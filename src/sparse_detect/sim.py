"""Seeded Monte-Carlo harness for phase-diagram experiments.

Estimates Type-I plus Type-II error rates over (beta, r, n, test) grids,
attaches Wilson confidence half-widths and the theoretical boundary
overlay, and provides the finite-n exponent-estimation diagnostic.

Engine: one unit of work is a block of replicates at one sample size n
(:func:`_block_counts`).  Replicate k's samples are the rows of one
sample matrix: the null sample, on which every cell at n decides, then
one alternative sample per (beta, r), on which every requested test of
that (beta, r) decides.  Every test decides on the matrix at once: hc
runs one pruned scan over the sorted rows, max takes two row
reductions, and lr computes the log-likelihood ratios once per r, on
the rows that need that r, then reduces each cell's row with the cell's
epsilon in one pass.  The matrix is drawn and decided in chunks of
whole rows of at most 2**17 values (one row when n is larger), so at
n = 1e5 a task holds one sample at a time and its memory does not grow
with the grid.  ``phase_sweep`` sums the blocks' counts and folds them
into one row per cell with ``run_cell``.

Reproducibility: every sample is drawn from a counter-based stream.  The
null sample of replicate k at sample size n is keyed by (seed, n, k).
The alternative sample is keyed by (seed, beta index, r index, n, k),
with the indices taken in the sorted grids.  :func:`rng.philox_state`
turns each key into a Philox state, and a task re-keys one generator
with it for every sample, which draws what a fresh ``rng.stream`` of the
same key would.  Results are independent of scheduling and worker
count, and CSV output is byte-identical for a fixed seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import numbers
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import families, rng
from .dists import Distribution, SparseMixture, epsilon_from_beta, log_likelihood_ratio
from .errors import ConfigError, InvalidParameterError, SparseDetectError
from .hctest import hc_statistics, hc_threshold, lr_log_ratios, lr_rejects, max_rejects

__all__ = [
    "TESTS",
    "ExperimentConfig",
    "PhaseCell",
    "PhaseTable",
    "GammaDiagnostic",
    "family_mixture",
    "run_cell",
    "phase_sweep",
    "estimate_gamma",
    "wilson_halfwidth",
]

TESTS = ("hc", "lr", "max")
_Z95 = 1.959963984540054
# values in the largest sample matrix one task draws and decides at a time
_CHUNK_VALUES = 1 << 17
# estimate_gamma flags a move larger than this between consecutive n
_GAMMA_FLAG_THRESHOLD = 0.05


def _exponent_grid(name: str, values) -> tuple[float, ...]:
    """The grid as floats; each entry must be a finite number >= 0."""
    try:
        grid = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigError(f"every {name} must be a number, got {name}_grid {values!r}") from None
    if not all(0 <= v < math.inf for v in grid):
        raise ConfigError(f"every {name} must be >= 0 and finite, got {name}_grid {grid}")
    return grid


def _whole(name: str, value) -> int:
    """``value`` as an int; it must be an integral number and not a bool."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for a phase sweep."""

    family: str
    beta_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    n_list: tuple[int, ...]
    replicates: int
    tests: tuple[str, ...]
    seed: int
    delta: float = 0.1
    family_params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "beta_grid", _exponent_grid("beta", self.beta_grid))
        object.__setattr__(self, "r_grid", _exponent_grid("r", self.r_grid))
        if not all(float(n).is_integer() for n in self.n_list):
            raise ConfigError(f"every n must be an integer, got n_list {tuple(self.n_list)}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "tests", tuple(self.tests))
        object.__setattr__(self, "replicates", _whole("replicates", self.replicates))
        object.__setattr__(self, "seed", _whole("seed", self.seed))
        try:
            families.build(self.family, self.family_params)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from None
        if not self.beta_grid or not self.r_grid or not self.n_list:
            raise ConfigError("beta_grid, r_grid and n_list must be non-empty")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        unknown = set(self.tests) - set(TESTS)
        if not self.tests or unknown:
            raise ConfigError(f"tests must be a non-empty subset of {TESTS}")
        if "hc" in self.tests and min(self.n_list) < 16:
            raise ConfigError("the hc test requires every n >= 16")
        if any(n < 2 for n in self.n_list):
            raise ConfigError("every n must be >= 2")
        if not (isinstance(self.delta, numbers.Real) and 0 < self.delta < math.inf):
            raise ConfigError(f"delta must be > 0 and finite, got {self.delta!r}")

    def cells(self) -> list[tuple[int, float, float, int, str]]:
        """Deterministic cell order: beta, then r, then n, then test."""
        ordered_tests = [t for t in TESTS if t in self.tests]
        out = []
        index = 0
        for beta in sorted(self.beta_grid):
            for r in sorted(self.r_grid):
                for n in sorted(self.n_list):
                    for test in ordered_tests:
                        out.append((index, beta, r, n, test))
                        index += 1
        return out

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "family_params": dict(self.family_params),
            "beta_grid": list(self.beta_grid),
            "r_grid": list(self.r_grid),
            "n_list": list(self.n_list),
            "replicates": self.replicates,
            "tests": list(self.tests),
            "seed": self.seed,
            "delta": self.delta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object; a malformed entry raises ConfigError."""
        delta = data.get("delta", 0.1)
        return cls(
            family=data["family"],
            beta_grid=tuple(data["beta_grid"]),
            r_grid=tuple(data["r_grid"]),
            n_list=tuple(data["n_list"]),
            replicates=data["replicates"],
            tests=tuple(data["tests"]),
            seed=data["seed"],
            delta=float(delta) if isinstance(delta, numbers.Real) else delta,
            family_params=dict(data.get("family_params", {})),
        )

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class PhaseCell:
    """Monte-Carlo error estimate for one (beta, r, n, test) cell."""

    beta: float
    r: float
    n: int
    test: str
    type1_rate: float
    type2_rate: float
    total_error: float
    wilson_ci_halfwidth: float
    replicates: int
    seed: int


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval; stable near rates 0 and 1.

    The counts must be integers with trials >= 1 and
    0 <= successes <= trials, and z must be > 0 and finite.
    """
    if not (isinstance(z, numbers.Real) and 0 < z < math.inf):
        raise InvalidParameterError(f"z must be > 0 and finite, got {z!r}")
    try:
        k, m = operator.index(successes), operator.index(trials)
    except TypeError:
        raise InvalidParameterError(
            f"successes and trials must be integers, got {successes!r}, {trials!r}"
        ) from None
    if m < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= k <= m:
        raise InvalidParameterError(f"successes must lie in [0, {m}], got {successes}")
    k, m = float(k), float(m)
    return z * math.sqrt(k * (m - k) / m + z * z / 4.0) / (m + z * z)


def family_mixture(
    family: str, family_params: dict, r: float, beta: float, n: int
) -> SparseMixture:
    """Concrete testing problem for a cell; the shift is recomputed per n."""
    eps = epsilon_from_beta(n, beta)
    null, alt = families.build(family, family_params)
    return SparseMixture(null, alt(r, n), eps)


def _subset(index: np.ndarray, size: int) -> np.ndarray | slice:
    """``index`` into ``size`` rows, or a full slice when it takes every row in order.

    A slice reads the rows without copying them; at n = 1e5, where a
    chunk holds one row, this saves a copy of the row per lr cell.
    """
    return slice(None) if np.array_equal(index, np.arange(size)) else index


def _decision_steps(
    rows: np.ndarray, cells: Sequence[tuple], mixes: dict, size: int
) -> list[tuple]:
    """How each cell ``cells[j]`` decides on row ``rows[j]`` of a ``size``-row sample matrix.

    One step per test, and one per r for lr: (test, the positions j it
    decides, their rows, lr data).  An lr step's data are the alternative
    law, the rows whose log-likelihood ratios it computes, and batches of
    at most ``size`` (index among those rows, epsilon) pairs, one pair
    per position, so that no batch holds more values than the matrix.
    ``mixes`` maps each cell's (beta, r) to its mixture.
    """
    tests = [cell[4] for cell in cells]
    steps = []
    for test in dict.fromkeys(tests):
        if test not in TESTS:
            raise InvalidParameterError(f"unknown test {test!r}")
        at = [j for j, t in enumerate(tests) if t == test]
        if test != "lr":
            steps.append((test, np.array(at), rows[at], None))
            continue
        for r in dict.fromkeys(cells[j][2] for j in at):
            at_r = np.array([j for j in at if cells[j][2] == r])
            need, row_of = np.unique(rows[at_r], return_inverse=True)
            eps = np.array([mixes[cells[j][1:3]].epsilon for j in at_r])
            batches = [
                (_subset(row_of[k:k + size], len(need)), eps[k:k + size])
                for k in range(0, len(at_r), size)
            ]
            alt = mixes[cells[at_r[0]][1:3]].alt_dist
            steps.append((test, at_r, rows[at_r], (alt, need, batches)))
    return steps


def _decisions(
    ys: np.ndarray, steps: list[tuple], size: int, null: Distribution, delta: float
) -> np.ndarray:
    """Whether each of ``size`` cells rejects the null, by ``_decision_steps``.

    hc and max decide once per row of the (m, n) sample matrix ``ys``;
    lr computes the log-likelihood ratios once per r, on the rows that
    need that r, and decides each cell's row with the cell's epsilon by
    the sign of its log LR (``lr_rejects``).
    """
    out = np.zeros(size, dtype=bool)
    for test, at, rows, lr in steps:
        if test == "hc":
            statistics, _ = hc_statistics(ys, null)
            out[at] = statistics[rows] > hc_threshold(ys.shape[1], delta)
        elif test == "max":
            out[at] = max_rejects(ys)[rows]
        else:
            alt, need, batches = lr
            ell = lr_log_ratios(ys[need], alt, null)
            if ell is None:  # a singular row: decide row by row, its statistic is +inf
                eps = np.concatenate([e for _, e in batches])
                out[at] = [
                    lr_rejects(lr_log_ratios(ys[i], alt, null), e) for i, e in zip(rows, eps)
                ]
            else:
                out[at] = np.concatenate([lr_rejects(ell[i], e) for i, e in batches])
    return out


def _block_counts(
    cfg: ExperimentConfig, cells: Sequence[tuple], reps: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Null rejections and alternative misses of each cell over replicates ``reps``.

    Every cell has the same n.  Replicate k's samples are the rows of one
    sample matrix: row 0 is the null sample, keyed by (seed, n, k), on
    which every cell decides; then each (beta, r) among the cells has one
    alternative sample, keyed by (seed, beta index, r index, n, k), on
    which every test of that (beta, r) decides.  Cells of one (beta, r)
    share the row when they are adjacent, as in ``cfg.cells()``.  The
    matrix is drawn and decided in chunks of whole rows, at most
    ``_CHUNK_VALUES`` values or one row, so a task's memory does not grow
    with the grid.  All draws come from one generator, re-keyed for each
    sample.
    """
    n = cells[0][3]
    betas, rs = sorted(cfg.beta_grid), sorted(cfg.r_grid)
    mixes = {
        (beta, r): family_mixture(cfg.family, cfg.family_params, r, beta, n)
        for beta, r in dict.fromkeys(cell[1:3] for cell in cells)
    }
    null = mixes[cells[0][1:3]].null_dist
    laws, keys, alt_rows = [null], [(n,)], []  # per matrix row; each cell's alternative row
    for (beta, r), group in groupby(cells, key=lambda cell: cell[1:3]):
        laws.append(mixes[beta, r].mixed())
        keys.append((betas.index(beta), rs.index(r), n))
        alt_rows += [len(laws) - 1] * len(list(group))
    # the decisions a replicate counts: each cell on row 0, then on its alternative row
    rows = np.array([0] * len(cells) + alt_rows)
    positions = np.tile(np.arange(len(cells)), 2)
    per_chunk = max(1, _CHUNK_VALUES // n)
    chunks = []  # (first row, rows, steps of its decisions, which are null ones, their cells)
    for lo in range(0, len(laws), per_chunk):
        size = min(per_chunk, len(laws) - lo)
        at = np.flatnonzero((rows >= lo) & (rows < lo + size))
        steps = _decision_steps(rows[at] - lo, [cells[i] for i in positions[at]], mixes, size)
        chunks.append((lo, size, steps, rows[at] == 0, positions[at]))
    bit_generator = np.random.Philox(0)
    stream = np.random.Generator(bit_generator)
    null_rejects, misses = np.zeros(len(cells), dtype=int), np.zeros(len(cells), dtype=int)
    for rep in reps:
        for lo, size, steps, on_null, cell_of in chunks:
            samples = []
            for row in range(lo, lo + size):
                bit_generator.state = rng.philox_state(cfg.seed, *keys[row], rep)
                samples.append(laws[row].sample(n, stream))
            ys = np.stack(samples) if size > 1 else samples[0][None]
            del samples
            try:
                rejected = _decisions(ys, steps, cell_of.size, null, cfg.delta)
            except SparseDetectError:
                # raise the error of the first row that fails, as deciding
                # the rows one at a time in order would
                for row in range(lo, lo + size):
                    mine = np.flatnonzero(rows == row)
                    row_cells = [cells[i] for i in positions[mine]]
                    row_steps = _decision_steps(rows[mine] - row, row_cells, mixes, 1)
                    _decisions(ys[row - lo:row - lo + 1], row_steps, mine.size, null, cfg.delta)
                raise
            null_rejects[cell_of[on_null]] += rejected[on_null]
            misses[cell_of[~on_null]] += ~rejected[~on_null]
    return null_rejects.tolist(), misses.tolist()


def run_cell(
    cfg: ExperimentConfig,
    cell: tuple[int, float, float, int, str],
    null_rejects: int | None = None,
    misses: int | None = None,
) -> PhaseCell:
    """Fold a cell's counts over all replicates into its row.

    ``null_rejects`` and ``misses`` are the cell's counts of null
    rejections and alternative misses over the ``cfg.replicates``
    replicates, as :func:`phase_sweep` sums them from its blocks; each
    must lie in [0, replicates].  When both are omitted, the cell
    computes them with the sweep's block function over every replicate,
    from the same streams, so the row equals the sweep's.  The result is
    a pure function of the configuration and the cell.
    """
    _, beta, r, n, test = cell
    m = cfg.replicates
    if null_rejects is None and misses is None:
        (null_rejects,), (misses,) = _block_counts(cfg, [cell], range(m))
    halfwidth = wilson_halfwidth(null_rejects, m) + wilson_halfwidth(misses, m)
    type1 = null_rejects / m
    type2 = misses / m
    return PhaseCell(
        beta=beta,
        r=r,
        n=n,
        test=test,
        type1_rate=type1,
        type2_rate=type2,
        total_error=type1 + type2,
        wilson_ci_halfwidth=halfwidth,
        replicates=m,
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class PhaseTable:
    """Sweep result: one PhaseCell per grid cell plus the overlay column."""

    config: ExperimentConfig
    cells: tuple[PhaseCell, ...]
    beta_star: tuple[float, ...]
    wall_time_s: float = 0.0
    worker_count: int = 1

    CSV_HEADER = (
        "beta,r,n,test,type1_rate,type2_rate,total_error,"
        "wilson_ci_halfwidth,replicates,seed,beta_star"
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(self.CSV_HEADER + "\n")
        for cell, overlay in zip(self.cells, self.beta_star):
            buf.write(
                f"{cell.beta!r},{cell.r!r},{cell.n},{cell.test},"
                f"{cell.type1_rate!r},{cell.type2_rate!r},{cell.total_error!r},"
                f"{cell.wilson_ci_halfwidth!r},{cell.replicates},{cell.seed},"
                f"{overlay!r}\n"
            )
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def manifest(self) -> dict:
        return {
            "seed": self.config.seed,
            "config_hash": self.config.config_hash(),
            "wall_time_s": self.wall_time_s,
            "worker_count": self.worker_count,
        }

    def write_manifest(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def overlay_csv(self) -> str:
        """Two-column (r, beta_star) plot data for the boundary curve."""
        seen = {}
        for cell, overlay in zip(self.cells, self.beta_star):
            seen.setdefault(cell.r, overlay)
        buf = io.StringIO()
        buf.write("r,beta_star\n")
        for r in sorted(seen):
            buf.write(f"{r!r},{seen[r]!r}\n")
        return buf.getvalue()

    def write_overlay_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.overlay_csv())

    def select(self, **criteria) -> list[PhaseCell]:
        """Cells matching the given field values exactly."""
        out = []
        for cell in self.cells:
            if all(getattr(cell, k) == v for k, v in criteria.items()):
                out.append(cell)
        return out


def phase_sweep(cfg: ExperimentConfig, workers: int = 1) -> PhaseTable:
    """Run every grid cell; aggregation is a deterministic fold in cell order.

    The work is one task per (n, replicate block): the cells at n over
    one block of replicates, both the null and the alternative half
    (see :func:`_block_counts`).  The parent sums each cell's counts
    over the blocks and calls ``run_cell`` once per cell, in cell order,
    to fold them into the cell's row.
    """
    cells = cfg.cells()
    used = 1 if workers <= 1 or len(cells) <= 1 else min(workers, len(cells))
    m = cfg.replicates
    blocks = [range(m * b // used, m * (b + 1) // used) for b in range(used)]
    groups = [[cell for cell in cells if cell[3] == n] for n in sorted(set(cfg.n_list))]
    task_groups = [group for group in groups for _ in blocks]
    task_blocks = blocks * len(groups)
    start = time.perf_counter()
    null_rejects, misses = [0] * len(cells), [0] * len(cells)  # by cell index
    with ProcessPoolExecutor(used) if used > 1 else contextlib.nullcontext() as pool:
        mapper = pool.map if pool else map
        task_counts = mapper(_block_counts, repeat(cfg), task_groups, task_blocks)
        for group, (nulls, alts) in zip(task_groups, task_counts):
            for cell, null_count, miss_count in zip(group, nulls, alts):
                null_rejects[cell[0]] += null_count
                misses[cell[0]] += miss_count
    results = [
        run_cell(cfg, cell, nulls, alts)
        for cell, nulls, alts in zip(cells, null_rejects, misses)
    ]
    wall = time.perf_counter() - start
    family = families.FAMILIES[cfg.family]
    overlay = tuple(family.beta_star(cell[2], cfg.family_params) for cell in cells)
    return PhaseTable(
        config=cfg,
        cells=tuple(results),
        beta_star=overlay,
        wall_time_s=wall,
        worker_count=used,
    )


# ---------------------------------------------------------------------------
# finite-n exponent estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaDiagnostic:
    """Normalized log-likelihood ratios at null tail quantiles, per n and s.

    ratios[i, j] is max(l(z(n^-s)), l(z(1 - n^-s))) / ln n at n = n_list[i],
    s = s_grid[j].  flags lists the (n_from, n_to, s, delta) quadruples
    where consecutive sample sizes moved by more than 0.05, the
    non-convergence diagnostic.
    """

    n_list: tuple[int, ...]
    s_grid: tuple[float, ...]
    ratios: np.ndarray
    flags: tuple[tuple[int, int, float, float], ...]

    @property
    def converged(self) -> bool:
        return not self.flags

    def deviation_from(self, target, n: int) -> float:
        """Largest |ratio - target(s)| over the s grid at sample size n."""
        i = self.n_list.index(n)
        targets = np.array([target(s) for s in self.s_grid])
        return float(np.max(np.abs(self.ratios[i] - targets)))


def _gamma_ratio_row(
    q: Distribution, g: Distribution, n: int, s_grid: tuple[float, ...]
) -> np.ndarray:
    log_n = math.log(n)
    row = np.empty(len(s_grid))
    for j, s in enumerate(s_grid):
        p = float(n) ** (-s)
        if 1.0 - p == 1.0:
            raise InvalidParameterError(
                f"n^-s = {p:.3g} underflows the quantile resolution at n={n}, s={s}"
            )
        lower = q.quantile(p)
        upper = q.quantile(1.0 - p)
        val = max(
            float(log_likelihood_ratio(g, q, lower)),
            float(log_likelihood_ratio(g, q, upper)),
        )
        row[j] = val / log_n
    return row


def estimate_gamma(
    q: Distribution,
    g: Union[Distribution, Callable[[int], Distribution]],
    n_list: Sequence[int],
    s_grid: Iterable[float],
) -> GammaDiagnostic:
    """Evaluate the normalized log-likelihood ratio at null tail quantiles.

    For each n and s, the ratio is the larger of the log-likelihood
    ratios at the null lower and upper n^-s quantiles, divided by ln n.
    Its large-n limit is the s-axis exponent function of the pair (q, g).
    ``g`` may also be a function of n, for an alternative whose signal
    is rescaled with the sample size (triangular-array semantics), which
    is the form in which family exponents converge.
    """
    n_list = tuple(int(n) for n in n_list)
    s_grid = tuple(float(s) for s in s_grid)
    if not n_list or min(n_list) < 2:
        raise InvalidParameterError("n_list must be non-empty with every n >= 2")
    if not s_grid:
        raise InvalidParameterError("s_grid must be non-empty")
    s_floor = 1.0 / math.log2(min(n_list))
    if min(s_grid) < s_floor - 1e-12:
        raise InvalidParameterError(
            f"s_grid must start at or above 1/log2(min n) = {s_floor:.6g}"
        )
    ratios = np.empty((len(n_list), len(s_grid)))
    for i, n in enumerate(n_list):
        ratios[i] = _gamma_ratio_row(q, g(n) if callable(g) else g, n, s_grid)
    flags = []
    for i in range(1, len(n_list)):
        deltas = np.abs(ratios[i] - ratios[i - 1])
        for j, s in enumerate(s_grid):
            if deltas[j] > _GAMMA_FLAG_THRESHOLD:
                flags.append((n_list[i - 1], n_list[i], s, float(deltas[j])))
    return GammaDiagnostic(
        n_list=n_list, s_grid=s_grid, ratios=ratios, flags=tuple(flags)
    )
