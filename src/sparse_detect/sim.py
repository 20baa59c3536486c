"""Seeded Monte-Carlo harness for phase-diagram experiments.

Estimates Type-I plus Type-II error rates over (beta, r, n, test) grids,
attaches Wilson confidence half-widths and the theoretical boundary
overlay, and provides the finite-n exponent-estimation diagnostic.

Engine: one unit of work is a block of replicates at one sample size n
(:func:`_block_counts`).  For each replicate k of the block it draws the
null sample once and every cell at n decides on it, then draws the
alternative sample of each (beta, r) once and every requested test
decides on that one draw.  The log-likelihood ratios depend only on
(r, n) and the sample, so the lr cells of one r share them and differ
only in the epsilon reduction.  ``phase_sweep`` sums the blocks' counts
and folds them into one row per cell with ``run_cell``.

Reproducibility: every sample is drawn from a counter-based stream.  The
null sample of replicate k at sample size n is keyed by (seed, n, k).
The alternative sample is keyed by (seed, beta index, r index, n, k),
with the indices taken in the sorted grids.  Results are independent of
scheduling and worker count, and CSV output is byte-identical for a
fixed seed.
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
from .errors import ConfigError, InvalidParameterError
from .hctest import hc_decision, hc_statistic, lr_log_ratios, lr_statistic, max_test

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
        return cls(
            family=data["family"],
            beta_grid=tuple(data["beta_grid"]),
            r_grid=tuple(data["r_grid"]),
            n_list=tuple(data["n_list"]),
            replicates=int(data["replicates"]),
            tests=tuple(data["tests"]),
            seed=int(data["seed"]),
            delta=float(data.get("delta", 0.1)),
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
    0 <= successes <= trials.
    """
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


def _decisions(
    ys: np.ndarray, null: Distribution, cells: Sequence[tuple], mixes: dict, delta: float
) -> list[bool]:
    """Whether each cell's test rejects the null on the one sample ``ys``.

    ``mixes`` maps each cell's (beta, r) to its mixture.  hc and max
    decide once; lr computes the log-likelihood ratios once per r and
    reduces them with each cell's epsilon.
    """
    shared, ells, out = {}, {}, []
    for _, beta, r, _, test in cells:
        if test == "lr":
            mix = mixes[beta, r]
            if r not in ells:
                ells[r] = lr_log_ratios(ys, mix.alt_dist, null)
            out.append(lr_statistic(ells[r], mix.epsilon) >= 0.0)
        elif test == "hc":
            if test not in shared:
                statistic, _ = hc_statistic(ys, null)
                shared[test] = hc_decision(statistic, ys.size, delta) == "alternative"
            out.append(shared[test])
        elif test == "max":
            if test not in shared:
                shared[test] = max_test(ys, u=1.0) == "alternative"
            out.append(shared[test])
        else:
            raise InvalidParameterError(f"unknown test {test!r}")
    return out


def _block_counts(
    cfg: ExperimentConfig, cells: Sequence[tuple], reps: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Null rejections and alternative misses of each cell over replicates ``reps``.

    Every cell has the same n.  Replicate k draws the null sample keyed
    by (seed, n, k) once and every cell decides on it.  Then, for each
    (beta, r) among the cells, it draws one alternative sample keyed by
    (seed, beta index, r index, n, k) and every test of that (beta, r)
    decides on it; cells of one (beta, r) share the draw when they are
    adjacent, as in ``cfg.cells()``.
    """
    n = cells[0][3]
    betas, rs = sorted(cfg.beta_grid), sorted(cfg.r_grid)
    mixes = {
        (beta, r): family_mixture(cfg.family, cfg.family_params, r, beta, n)
        for beta, r in dict.fromkeys(cell[1:3] for cell in cells)
    }
    null = mixes[cells[0][1:3]].null_dist
    alternatives = []  # (first cell position, cells, mixed law, stream key) per (beta, r)
    for (beta, r), members in groupby(enumerate(cells), key=lambda item: item[1][1:3]):
        positions, group = zip(*members)
        key = (betas.index(beta), rs.index(r), n)
        alternatives.append((positions[0], group, mixes[beta, r].mixed(), key))
    null_rejects, misses = [0] * len(cells), [0] * len(cells)
    for rep in reps:
        ys = null.sample(n, rng.stream(cfg.seed, n, rep))
        for i, rejected in enumerate(_decisions(ys, null, cells, mixes, cfg.delta)):
            null_rejects[i] += rejected
        for first, group, mixed, key in alternatives:
            ys = mixed.sample(n, rng.stream(cfg.seed, *key, rep))
            decisions = _decisions(ys, null, group, mixes, cfg.delta)
            for i, rejected in enumerate(decisions, first):
                misses[i] += not rejected
    return null_rejects, misses


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
