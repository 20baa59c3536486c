"""Seeded Monte-Carlo harness for phase-diagram experiments.

Estimates Type-I plus Type-II error rates over (beta, r, n, test) grids,
attaches Wilson confidence half-widths and the theoretical boundary
overlay, and provides the finite-n exponent-estimation diagnostic.

Engine: one unit of work is a block of replicates at one sample size n
(:func:`_block_counts`).  A cell's testing problem is a ``Mixture``.
Replicate k's samples are the rows of one sample matrix: the null
sample, on which every cell at n decides, then one alternative sample
per (beta, r), on which every requested test of that (beta, r) decides.
The matrix is drawn in chunks of whole rows of at most 2**17 values (one
row when n is larger), so at n = 1e5 a task holds one sample at a time
and its memory does not grow with the grid.  This layout is known here
alone.  Each test is a row of :data:`~sparse_detect.hctest.TESTS` and
decides a chunk's (row, mixture) pairs at once (see
:class:`~sparse_detect.hctest.DecisionRule`), the null row in every
cell's mixture and an alternative row in its own: hc runs one pruned
scan over the sorted rows, max takes two row reductions, and lr computes
the log-likelihood ratios once per alternative law.  The engine draws,
lays out the pairs and adds; ``phase_sweep`` sums the blocks' counts and
folds them into one row per cell with ``run_cell``.

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
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import product, repeat
from typing import Callable, Iterable, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import checks, families, rng
from .dists import Distribution, Mixture, _special, epsilon_from_beta, log_likelihood_ratio
from .errors import ConfigError, InvalidParameterError, InvalidSampleSizeError, SparseDetectError
from .hctest import TESTS

__all__ = [
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

_Z95 = 1.959963984540054
# values in the largest sample matrix one task draws and decides at a time
_CHUNK_VALUES = 1 << 17
# estimate_gamma flags a move larger than this between consecutive n
_GAMMA_FLAG_THRESHOLD = 0.05


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
        try:
            checked = {
                "beta_grid": checks.grid(self.beta_grid, "every beta", checks.nonnegative),
                "r_grid": checks.grid(self.r_grid, "every r", checks.nonnegative),
                "n_list": checks.integers(self.n_list, "every n"),
                "replicates": checks.integer(self.replicates, "replicates", 1),
                # one 64-bit Philox key word, so that no two seeds alias
                "seed": checks.integer(self.seed, "seed", 0, 2**64 - 1),
                "delta": checks.positive(self.delta, "delta"),
                "tests": checks.entries(self.tests, "tests"),
            }
            families.build(self.family, self.family_params)
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from None
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        for name in ("beta_grid", "r_grid", "n_list", "tests"):
            values = getattr(self, name)
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ConfigError(f"{name} repeats {repeated[0]!r}")
        if not all(isinstance(t, str) and t in TESTS for t in self.tests):
            raise ConfigError(
                f"tests must be a non-empty subset of {tuple(TESTS)}, got {list(self.tests)}"
            )
        for name, test in TESTS.items():
            if name in self.tests and min(self.n_list) < test.min_n:
                raise ConfigError(f"the {name} test requires every n >= {test.min_n}")

    def cells(self) -> list[tuple[int, float, float, int, str]]:
        """Deterministic cell order: beta, then r, then n, then test in table order."""
        tests = [name for name in TESTS if name in self.tests]
        grid = product(sorted(self.beta_grid), sorted(self.r_grid), sorted(self.n_list), tests)
        return [(index, *key) for index, key in enumerate(grid)]

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object keyed by field names, an absent key at its default;
        an unknown, missing or malformed key raises ConfigError."""
        kinds = get_type_hints(cls)  # in field order, so the first malformed field is named
        unknown = [key for key in data if key not in kinds]
        if unknown:
            raise ConfigError(f"config has unknown key {', '.join(map(repr, unknown))}")
        missing = [
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ConfigError(f"config is missing {', '.join(map(repr, missing))}")
        return cls(**{name: _from_json(name, kind, data[name])
                      for name, kind in kinds.items() if name in data})

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _from_json(name: str, kind, value):
    """JSON ``value`` as field ``name`` of type ``kind``: a list as a tuple, an object copied,
    and an integral float, as JSON may write 25 or 1e3, as the int it names."""
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_from_json(name, get_args(kind)[0], entry) for entry in value)
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        return dict(value)
    return int(value) if kind is int and isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True)
class PhaseCell:
    """Monte-Carlo error estimate for one (beta, r, n, test) cell, plus the boundary overlay.

    The fields, in order, are the columns of the sweep CSV.
    """

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
    beta_star: float  # the family's closed-form boundary at r; nan without one


def wilson_halfwidth(successes: int, trials: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval; stable near rates 0 and 1.

    The counts must be integers with trials >= 1 and
    0 <= successes <= trials, and z must be > 0 and finite.
    """
    z = checks.positive(z, "z")
    m = checks.integer(trials, "trials", 1)
    k, m = float(checks.integer(successes, "successes", 0, m)), float(m)
    return z * math.sqrt(k * (m - k) / m + z * z / 4.0) / (m + z * z)


def family_mixture(
    family: str, family_params: dict, r: float, beta: float, n: int
) -> Mixture:
    """Concrete testing problem for a cell; the shift is recomputed per n."""
    eps = epsilon_from_beta(n, beta)
    null, alt = families.build(family, family_params)
    return Mixture(null, alt(r, n), eps)


def _block_counts(
    cfg: ExperimentConfig, n: int, reps: Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Null rejections and alternative misses of the cells at ``n`` over replicates ``reps``.

    Replicate k's sample matrix has the null sample, keyed by (seed, n,
    k), as row 0 and the alternative sample of (beta_b, r_j), keyed by
    (seed, b, j, n, k), as row 1 + b |r| + j.  It is drawn in chunks of
    whole rows, at most ``_CHUNK_VALUES`` values or one row, from one
    generator re-keyed for each sample.  Each test decides a chunk's
    (row, mixture) pairs (see :class:`~sparse_detect.hctest.DecisionRule`):
    row 0 in every cell's mixture, an alternative row in its own.  Both
    counts are (|beta| |r|, |tests|) arrays in the order of ``cfg.cells()``.
    """
    mixes = [family_mixture(cfg.family, cfg.family_params, r, beta, n)
             for beta, r in product(sorted(cfg.beta_grid), sorted(cfg.r_grid))]
    laws = [mixes[0].first, *mixes]
    keys = [(n,), *product(range(len(cfg.beta_grid)), range(len(cfg.r_grid)), [n])]
    own = [mixes, *([mix] for mix in mixes)]  # the mixtures each row is decided in
    tests = [test for name, test in TESTS.items() if name in cfg.tests]
    per_chunk = max(1, _CHUNK_VALUES // n)
    bit_generator = np.random.Philox(0)
    stream = np.random.Generator(bit_generator)
    null_rejects = np.zeros((len(mixes), len(tests)), dtype=int)
    misses = np.zeros_like(null_rejects)
    for rep in reps:
        for lo in range(0, len(laws), per_chunk):
            rows = range(lo, min(lo + per_chunk, len(laws)))
            samples = []
            for row in rows:
                bit_generator.state = rng.philox_state(cfg.seed, *keys[row], rep)
                samples.append(laws[row].sample(n, stream))
            ys = np.stack(samples) if len(samples) > 1 else samples[0][None]
            del samples
            pairs = [(row - lo, mix) for row in rows for mix in own[row]]
            try:
                decided = np.array([test.rejects(ys, pairs, cfg.delta) for test in tests]).T
            except SparseDetectError:
                # raise the error of the first row that fails, as deciding
                # the rows one at a time in order would
                for k, row in enumerate(rows):
                    for test in tests:
                        test.rejects(ys[k:k + 1], [(0, mix) for mix in own[row]], cfg.delta)
                raise
            if lo == 0:  # the null row's pairs come first, one a cell
                null_rejects += decided[:len(mixes)]
                decided = decided[len(mixes):]
            first = max(lo, 1) - 1  # the cell of the chunk's first alternative row
            misses[first:first + len(decided)] += ~decided
    return null_rejects, misses


def run_cell(
    cfg: ExperimentConfig,
    cell: tuple[int, float, float, int, str],
    null_rejects: int,
    misses: int,
) -> PhaseCell:
    """Fold a cell's counts over all replicates into its row.

    ``null_rejects`` and ``misses`` are the cell's counts of null
    rejections and alternative misses over the ``cfg.replicates``
    replicates, as :func:`phase_sweep` sums them from its blocks; each
    must lie in [0, replicates].
    """
    _, beta, r, n, test = cell
    m = cfg.replicates
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
        beta_star=families.FAMILIES[cfg.family].beta_star(r, cfg.family_params),
    )


@dataclass(frozen=True)
class PhaseTable:
    """Sweep result: one PhaseCell per grid cell."""

    config: ExperimentConfig
    cells: tuple[PhaseCell, ...]
    wall_time_s: float = 0.0
    worker_count: int = 1

    CSV_HEADER = ",".join(f.name for f in fields(PhaseCell))

    def to_csv(self) -> str:
        # getattr, not astuple, which deep-copies every value (15 us a row against 4.5)
        names = self.CSV_HEADER.split(",")
        rows = [",".join(str(getattr(cell, name)) for name in names) for cell in self.cells]
        return "\n".join([self.CSV_HEADER, *rows]) + "\n"

    def manifest(self) -> dict:
        import scipy  # its top level loads no submodule

        from . import __version__  # at call time: the package imports this module

        return {
            "seed": self.config.seed,
            "config_hash": self.config.config_hash(),
            "wall_time_s": self.wall_time_s,
            "worker_count": self.worker_count,
            "sparse_detect_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
        }

    def overlay_csv(self) -> str:
        """Two-column (r, beta_star) plot data for the boundary curve."""
        seen = {}
        for cell in self.cells:
            seen.setdefault(cell.r, cell.beta_star)
        return "r,beta_star\n" + "".join(f"{r!r},{seen[r]!r}\n" for r in sorted(seen))

    def select(self, **criteria) -> list[PhaseCell]:
        """Cells matching the given field values exactly."""
        return [
            cell for cell in self.cells
            if all(getattr(cell, k) == v for k, v in criteria.items())
        ]


def phase_sweep(cfg: ExperimentConfig, workers: int = 1) -> PhaseTable:
    """Run every grid cell; aggregation is a deterministic fold in cell order.

    The work is one task per (n, replicate block): the cells at n over
    one block of replicates, both the null and the alternative half
    (see :func:`_block_counts`).  The pool has p = min(``workers``,
    |n| replicates) processes, and each n is split into min(p, replicates)
    blocks, so no block is empty and no process idles.  The parent sums each cell's counts
    over the blocks and calls ``run_cell`` once per cell, in cell order,
    to fold them into the cell's row.  ``workers`` must be an integer >= 1.
    """
    cells, ns, m = cfg.cells(), sorted(cfg.n_list), cfg.replicates
    used = min(checks.integer(workers, "workers", 1), len(ns) * m)
    per_n = min(used, m)  # replicate blocks a sample size, none of them empty
    blocks = [range(m * b // per_n, m * (b + 1) // per_n) for b in range(per_n)]
    task_ns = [n for n in ns for _ in blocks]
    if used > 1:
        _special()  # load it once in the parent, for the forked workers to inherit
    start = time.perf_counter()
    # by (beta, r), n and test, which is the order of cfg.cells()
    shape = (len(cfg.beta_grid) * len(cfg.r_grid), len(ns), len(cfg.tests))
    null_rejects, misses = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
    with ProcessPoolExecutor(used) if used > 1 else contextlib.nullcontext() as pool:
        mapper = pool.map if pool else map
        task_counts = mapper(_block_counts, repeat(cfg), task_ns, blocks * len(ns))
        for n, (nulls, alts) in zip(task_ns, task_counts):
            null_rejects[:, ns.index(n)] += nulls
            misses[:, ns.index(n)] += alts
    results = [
        run_cell(cfg, cell, nulls, alts)
        for cell, nulls, alts in zip(cells, null_rejects.ravel().tolist(), misses.ravel().tolist())
    ]
    wall = time.perf_counter() - start
    return PhaseTable(config=cfg, cells=tuple(results), wall_time_s=wall, worker_count=used)


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
        """Largest |ratio - target(s)| over the s grid at sample size n, one of ``n_list``."""
        if n not in self.n_list:
            raise InvalidSampleSizeError(f"n must be one of {list(self.n_list)}, got {n!r}")
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
    n_list = checks.integers(n_list, "every n", 2)
    s_grid = checks.grid(s_grid, "every s in s_grid")
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
