"""Decision rules on raw samples: higher criticism, likelihood ratio, maximum.

The higher-criticism statistic is the supremum over thresholds of the
normalized deviation between the empirical CDF and the declared null
CDF.  Because the empirical CDF is a step function and the deviation is
monotone between jumps, the supremum is attained on the finite candidate
set of sample points approached from the left and from the right, which
is what the implementation evaluates exactly.  It skips a block of sorted
rows only when a bound from the block's endpoints, valid because the
null CDF is monotone and F(1-F) concave, shows that no row in it can
reach the maximum (see :func:`hc_statistic`).  One scan serves a single
sample and a matrix of samples alike (:func:`hc_statistics`): the
matrix shares each numpy call's fixed cost across its rows, so it
prunes blocks of isqrt(n) // 4 rows once it holds 4096 values, where a
single sample needs n >= 4096.  The max and likelihood-ratio rules
likewise decide every row of a matrix in one pass (:func:`max_rejects`,
:func:`lr_rejects`).  The likelihood-ratio rule reads only the sign of
log LR, so :func:`lr_rejects` decides it by a certified screen: a
vectorised softplus sum settles every row whose value clears a proven
rounding margin, and only rows near 0 pay for the exact
:func:`lr_statistic`.  A testing problem is a
:class:`~sparse_detect.dists.Mixture`, and each test a sweep runs is one
row of :data:`TESTS`, which decides a list of (row, mixture) pairs on a
sample matrix (:class:`DecisionRule`); how a sweep lays out its rows is
for the sweep alone to know.

The declared null is always a :class:`~sparse_detect.dists.Distribution`;
its ``tails`` method gives both tail probabilities, each exact in its own
tail.  A new null kind implements ``tails``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import checks
from .dists import Distribution, Mixture, log_likelihood_ratio
from .errors import (
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
    SingularPointError,
    UndefinedPointError,
)

__all__ = [
    "DecisionRule",
    "TESTS",
    "HCResult",
    "hc_statistic",
    "hc_statistics",
    "hc_threshold",
    "hc_decision",
    "hc_test",
    "max_test",
    "max_rejects",
    "lr_test",
    "lr_log_ratios",
    "lr_statistic",
    "lr_rejects",
    "vn_statistic",
]


@dataclass(frozen=True)
class HCResult:
    statistic: float
    arg_t: float
    threshold: float
    decision: str
    n: int
    delta: float

    def to_dict(self) -> dict:
        return asdict(self)


def _block_width(n: int, samples: int = 1) -> int:
    """Rows per pruning block in a scan of ``samples`` samples of size n.

    Width 1 evaluates every row.  Pruning pays for its fixed cost once
    the scan holds about 4096 values, in one sample or across many: a
    scan of 101 Gaussian samples of 1000 values took 3.3 ms pruned
    against 8.4 ms row by row, while one such sample is faster row by row.
    """
    return max(1, math.isqrt(n) // 4) if samples * n >= 4096 else 1


def _checked_tails(null: Distribution, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null tails at points ``ys``, each exact in its own tail, where the weight
    1/sqrt(F (1 - F)) must be finite.

    A null that is not a Distribution or a NaN point raises
    InvalidParameterError, a tail of 0 InfiniteWeightError.
    """
    if not isinstance(null, Distribution):
        raise InvalidParameterError(f"the null must be a Distribution, got {null!r}")
    lower, upper = (np.asarray(tail, dtype=float) for tail in null.tails(ys))
    if not min(lower.min(initial=1.0), upper.min(initial=1.0)) > 0.0:  # 0 or NaN
        checks.array(ys, "sample", nan=False)
        raise InfiniteWeightError(
            "null CDF hit 0 or 1 at a sample point; deviation weight is infinite"
        )
    return lower, upper


def _weighted_deviation(
    lower: np.ndarray, upper: np.ndarray, rows: np.ndarray, n: int, restricted: bool
) -> np.ndarray:
    """|F_n - F| / sqrt(F (1 - F)) at points of sorted samples of size n.

    ``lower`` and ``upper`` are the points' null tails and ``rows`` their
    0-based rows in their sorted samples, broadcast against the tails.
    Each point takes the larger of the left and right limits of F_n and
    is measured in the tail with the smaller probability.  Under
    ``restricted`` a point whose null CDF lies outside [1/n, 1/2] reads
    -inf.
    """
    right, left = (rows + 1.0) / n, rows / n  # F_n at the row and just left of it
    # max(|right - F|, |left - F|) is max(right - F, F - left), as left < right
    dev = np.where(
        lower <= upper,
        np.maximum(right - lower, lower - left),
        np.maximum(upper - (1.0 - right), (1.0 - left) - upper),
    )
    dev /= np.sqrt(lower * upper)
    if restricted:
        dev[(lower < 1.0 / n) | (lower > 0.5)] = -np.inf
    return dev


def _open_blocks(
    ends: np.ndarray, lower: np.ndarray, upper: np.ndarray, best: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sample, first row) of every block whose deviation may reach ``best``.

    ``lower`` and ``upper`` hold the null tails at ``ends`` in each sample,
    one sample a line, and ``best`` each sample's best endpoint deviation.
    """
    n = int(ends[-1]) + 1
    a = ends[:-1]
    top, bottom = (ends[1:] + 1.0) / n, a / n  # F_n at the block's last row, left of its first
    reach = np.maximum(
        np.maximum(top - lower[:, :-1], lower[:, 1:] - bottom),
        np.maximum(upper[:, :-1] - (1.0 - top), (1.0 - bottom) - upper[:, 1:]),
    )
    weight = lower * upper
    bound = reach / np.sqrt(np.minimum(weight[:, :-1], weight[:, 1:]))
    # the margin absorbs rounding
    samples, blocks = np.nonzero(bound >= best[:, None] * (1.0 - 1e-9))
    return samples, a[blocks]


def hc_statistics(
    samples, null: Distribution, restricted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hc_statistic` of every row of a (m, n) matrix of samples.

    Returns the m statistics and the m maximizing thresholds, each equal
    bit for bit to what :func:`hc_statistic` gives on that row alone:
    this is the one pruned scan, run on all rows at once, with the block
    width of ``_block_width(n, m)``.  When several rows are invalid, the
    error raised is one of theirs.
    """
    # NaN sorts last, where the endpoint scan meets it
    ys = np.sort(checks.matrix(samples, "samples"), axis=-1)
    m, n = ys.shape
    checks.integer(n, "n", 1, error=InvalidSampleSizeError)
    # with ties in the sample the intermediate i/n levels are not attained,
    # but they only ever understate |F_n - F|, so the maximum is unaffected
    width = _block_width(n, m)
    ends = np.arange(0, n - 1 + width, width)
    ends[-1] = n - 1
    lower, upper = _checked_tails(null, ys if width == 1 else ys.take(ends, axis=1))
    end_dev = _weighted_deviation(lower, upper, ends, n, restricted)
    best, idx = end_dev.max(axis=1), ends[end_dev.argmax(axis=1)]  # ties: the smallest row
    if width > 1:  # blocks of width 1 have no inner rows
        owners, starts = _open_blocks(ends, lower, upper, best)
        # w - 1 rows from each open block's first inner row, one block a
        # column so the fold reduces across rows; a short last block takes
        # its rows from the end, rereading rows of the block before it,
        # which changes neither the maximum nor the tie-break
        rows = np.arange(1, width)[:, None] + np.minimum(starts, n - 1 - width)
        dev = _weighted_deviation(
            *_checked_tails(null, ys.ravel()[rows + owners * n]), rows, n, restricted
        )
        block_best = dev.max(axis=0)
        end_best = best.copy()
        np.maximum.at(best, owners, block_best)
        idx[best > end_best] = n  # an inner row beats every endpoint
        top = np.flatnonzero(block_best == best[owners])
        np.minimum.at(idx, owners[top], rows[dev[:, top].argmax(axis=0), top])
    if restricted and (best == -np.inf).any():
        raise InvalidParameterError(
            "restricted variant has no candidates with null CDF in [1/n, 1/2]"
        )
    return math.sqrt(n) * best, ys[np.arange(m), idx]


def hc_statistic(
    sample, null: Distribution, restricted: bool = False
) -> tuple[float, float]:
    """Higher-criticism statistic and its maximizing threshold.

    sqrt(n) times the largest |empirical - null| CDF deviation weighted
    by 1/sqrt(F(1-F)), maximized exactly over sample points from both
    sides.  F(1-F) and the deviations are evaluated through the CDF in
    the lower tail and the survival function in the upper tail, both from
    ``null.tails``, so neither saturates before a genuine float underflow.
    ``restricted=True`` keeps only candidates whose null CDF lies in
    [1/n, 1/2], the conventional tamed variant.  Ties resolve to the
    smallest threshold.

    The scan is pruned but exact.  Tails are first evaluated at every
    w-th sorted row and the last one, w = isqrt(n) // 4 for n >= 4096
    and 1 below (so small samples are scanned row by row).  Between two
    such rows a and b, F is monotone, so every row's numerator is at most
    max((b+1)/n - F_a, F_b - a/n) in either tail's form, and F(1-F) is
    concave, so its minimum over the block is at an endpoint.  Only
    blocks whose bound reaches the best endpoint deviation, less a 1e-9
    relative margin for rounding, are evaluated row by row; every row
    skipped deviates strictly less than the maximum, so the statistic,
    its threshold and the tie-break equal those of the full scan bit for
    bit.  This is the one-row case of :func:`hc_statistics`, which runs
    the same scan on every row of a sample matrix at once and prunes as
    soon as the matrix holds 4096 values.  A NaN sample point raises
    InvalidParameterError; a null tail of 0 at a sample point raises
    InfiniteWeightError.
    """
    statistics, thresholds = hc_statistics(checks.vector(sample, "sample")[None], null, restricted)
    return float(statistics[0]), float(thresholds[0])


def hc_threshold(n: int, delta: float) -> float:
    """Decision threshold sqrt(2 (1 + delta) log log n); n >= 16 keeps log log n > 0."""
    n = checks.integer(n, "n", 16, error=InvalidSampleSizeError)
    delta = checks.positive(delta, "delta")
    return math.sqrt(2.0 * (1.0 + delta) * math.log(math.log(n)))


def hc_decision(statistic: float, n: int, delta: float = 0.1) -> str:
    """"alternative" iff the statistic exceeds the log-log threshold."""
    statistic = checks.number(statistic, "statistic")
    return "alternative" if statistic > hc_threshold(n, delta) else "null"


def hc_test(
    sample, null: Distribution, delta: float = 0.1, restricted: bool = False
) -> HCResult:
    """Full higher-criticism test on a sample against a declared null."""
    ys = checks.array(sample, "sample")
    statistic, arg_t = hc_statistic(ys, null, restricted=restricted)
    return HCResult(
        statistic=statistic,
        arg_t=arg_t,
        threshold=hc_threshold(ys.size, delta),
        decision=hc_decision(statistic, ys.size, delta),
        n=int(ys.size),
        delta=delta,
    )


def max_test(sample, u: float = 1.0) -> str:
    """Declare the alternative iff max |Y_i| exceeds u * sqrt(2 ln n).

    n is the sample size and u must be > 0 and finite.  u >= 1 is the
    regime with vanishing null rejection probability; smaller u is
    allowed but flagged with a warning.  A sample holding NaN raises
    InvalidParameterError.
    """
    ys = checks.vector(sample, "sample", nan=False)
    checks.integer(ys.size, "n", 2, error=InvalidSampleSizeError)
    rejected = max_rejects(ys[None], u)[0]
    if u < 1.0:
        warnings.warn(
            "max test with u < 1 does not control the null rejection rate",
            stacklevel=2,
        )
    return "alternative" if rejected else "null"


def max_rejects(samples: np.ndarray, u: float = 1.0) -> np.ndarray:
    """Whether :func:`max_test` declares the alternative on each row of ``samples``."""
    samples = checks.matrix(samples, "samples")
    n = checks.integer(samples.shape[1], "n", 2, error=InvalidSampleSizeError)
    threshold = checks.positive(u, "u") * math.sqrt(2.0 * math.log(n))
    return np.maximum(samples.max(axis=-1), -samples.min(axis=-1)) > threshold


def lr_log_ratios(sample, alt: Distribution, null: Distribution) -> np.ndarray:
    """The log-likelihood ratios l(Y_i) = log dG/dQ (Y_i) of a sample.

    Each is an extended real from :func:`~sparse_detect.dists.log_likelihood_ratio`:
    +inf at a point carrying alternative mass off the null support, which
    makes log LR = +inf whatever the mixture weight.  An atomic law
    against an atomless one has no density ratio, and every point reads
    +inf.  ``sample`` may also be a matrix of samples, one a row; each
    row holds its own ratios.
    """
    try:
        return np.asarray(log_likelihood_ratio(alt, null, sample), dtype=float)
    except SingularPointError:  # the mixed-kind pair
        return np.full(np.shape(sample), np.inf)


def lr_statistic(ell: np.ndarray, eps):
    """log LR of the mixture (1 - eps) Q + eps G from ``lr_log_ratios``.

    sum_i log(1 + eps (exp(l(Y_i)) - 1)), evaluated in log space as
    logaddexp(log(1 - eps), log eps + l) for stability.  A sample holding
    a +inf log ratio gives +inf at every eps, whatever its other ratios:
    at eps = 0, where every other sample gives 0, such a point counts as
    singular, and so does a finite ratio that overflows (a Gaussian pair
    of unequal sd far out in the tail); at eps = 1 it beats a -inf ratio
    in the same sample, whose sum would be NaN.

    ``ell`` may also be a (m, n) matrix of one sample's log ratios a row,
    with ``eps`` one weight per row; the result is then the m statistics,
    each equal bit for bit to this function on its row alone.  The sums
    run along the contiguous last axis, and each row's constants come
    from ``math.log1p`` and ``math.log`` as in the one-row case.
    """
    if np.ndim(ell) < 2:
        return float(lr_statistic(np.reshape(ell, (1, -1)), [checks.between(eps, "eps", 0, 1)])[0])
    eps = np.asarray(eps, dtype=float)
    out = np.zeros(eps.shape)
    zero = eps == 0.0
    if zero.any():
        out[zero] = np.where(np.isposinf(ell[zero]).any(axis=-1), math.inf, 0.0)
    whole = eps == 1.0
    if whole.any():
        rows = ell[whole]
        with np.errstate(invalid="ignore"):  # the NaN of inf - inf is replaced by +inf
            out[whole] = np.where(np.isposinf(rows).any(axis=-1), math.inf, rows.sum(axis=-1))
    part = ~zero & ~whole
    if part.any():
        w = eps[part]
        a = np.array([math.log1p(-x) for x in w])[:, None]
        b = np.array([math.log(x) for x in w])[:, None]
        rows = ell if part.all() else ell[part]  # no copy when every row takes part
        out[part] = np.logaddexp(a, b + rows).sum(axis=-1)
    return out


def lr_rejects(ell: np.ndarray, eps):
    """``lr_statistic(ell, eps) >= 0``, decided by a certified screen.

    Takes the arguments of :func:`lr_statistic` and returns its sign test,
    equal to it on every row: a bool, or one per row of a matrix.  The
    exact statistic pays a scalar libm ``logaddexp`` per value, yet the
    rule reads only its sign.  So each row with 0 < eps < 1 is first
    screened with numpy's vectorised ``exp`` and ``log1p``: with
    a = log(1 - eps), b = log eps and x_i = l_i + (b - a),

        S~ = n a + sum_i softplus(x_i),  softplus(x) = max(x, 0) + log1p(exp(-|x|)),

    which equals the statistic S = sum_i logaddexp(a, b + l_i) in exact
    arithmetic.  A row is decided by the sign of S~ only when |S~|
    exceeds the margin M below; every other row (|S~| <= M, a NaN S~,
    eps outside (0, 1) or NaN) is decided by ``lr_statistic`` itself.

    The margin bounds how far rounding can move lr_statistic and S~ from
    S, with u = 2^-53 the unit roundoff, to first order:

    * per value, the roundings of a, b, b - a, b + l_i and x_i (u each,
      through derivatives of at most 1), one ulp each from ``exp`` and
      ``log1p`` (numpy's vectorised ones are within one ulp of libm,
      which the tests check), a few from libm's ``logaddexp`` and one
      from each addition that assembles a term: under
      10 u (|l_i| + |a| + |b| + 1) for both paths together;
    * per sum, numpy's pairwise summation of a contiguous row (as
      ``lr_log_ratios`` lays them out): it adds blocks of at most 128
      values over eight running sums and then pairs the blocks, so no
      term passes more than D = ceil(log2 n) + 18 roundings, an error of
      at most D u sum |terms|.  A term's size is at most |a| + softplus(x_i),
      and forming n a and adding it costs two more roundings, so the two
      sums together are off by at most (2 D + 2) u (n |a| + sum softplus).

    So |lr_statistic - S~| <= (2 ceil(log2 n) + 48) u
    (n (max |l| + |a| + |b| + 1) + sum softplus), and

        M = 2^-40 (n (max |l| + |a| + |b| + 1) + sum softplus)

    is 2^13 u times the same sum, at least 2^6 times the bound for every
    n up to 2^40.  max |l| is taken over finite entries: an entry
    l = -inf gives a in the exact path and 0 in the screen, both exactly,
    and a discrete null puts such entries in every row.  A +inf or NaN
    entry makes M or S~ non-finite, which sends its row to the exact path.
    """
    if np.ndim(ell) < 2:
        return bool(lr_rejects(np.reshape(ell, (1, -1)), [checks.between(eps, "eps", 0, 1)])[0])
    eps = np.asarray(eps, dtype=float)
    out = np.zeros(eps.shape, dtype=bool)
    sure = (eps > 0.0) & (eps < 1.0)  # the rows screened, then those the screen settles
    if sure.any():
        rows = ell if sure.all() else ell[sure]
        a = np.array([math.log1p(-x) for x in eps[sure]])
        b = np.array([math.log(x) for x in eps[sure]])
        buf = np.add(rows, (b - a)[:, None])
        soft = np.maximum(buf, 0.0)
        np.abs(buf, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.log1p(buf, out=buf)
        soft += buf
        soft_sum = soft.sum(axis=-1)
        n = rows.shape[-1]
        top = np.maximum(rows.max(axis=-1, initial=0.0), -rows.min(axis=-1, initial=0.0))
        odd = ~np.isfinite(top)  # a row holding -inf, +inf or NaN
        if odd.any():
            some = rows[odd]
            finite = np.isfinite(some)
            top[odd] = np.abs(some, out=np.zeros_like(some), where=finite).max(axis=-1)
        screen = n * a + soft_sum
        margin = 2.0**-40 * (n * (top + np.abs(a) + np.abs(b) + 1.0) + soft_sum)
        out[sure] = screen > 0.0
        sure[sure] = np.abs(screen) > margin  # False for NaN
    rest = ~sure
    if rest.any():
        out[rest] = lr_statistic(ell[rest], eps[rest]) >= 0.0
    return out


def lr_test(sample, mix: Mixture) -> tuple[float, str]:
    """Likelihood-ratio test of the null ``mix.first`` against the mixture ``mix``.

    The statistic is ``lr_statistic`` of the sample's ``lr_log_ratios``;
    the rule declares the alternative iff log LR >= 0.  A sample point
    carrying alternative mass off the null support forces log LR = +inf
    and an immediate alternative decision.  A sample holding NaN raises
    InvalidParameterError.  A point where neither law has mass raises
    UndefinedPointError at every eps, an infinite point of a Gaussian
    pair too.
    """
    ys = checks.vector(sample, "sample", nan=False)
    ell = lr_log_ratios(ys, mix.second, mix.first)
    if np.isnan(ell).any():  # inf - inf in a closed-form log ratio at an infinite point
        raise UndefinedPointError("both densities vanish at an infinite sample point")
    log_lr = lr_statistic(ell, mix.weight)
    return log_lr, "alternative" if log_lr >= 0.0 else "null"


def vn_statistic(sample, s: float, null: Distribution) -> float:
    """Normalized exceedance count at the threshold sqrt(2 s ln n).

    sqrt(n) (F_n(t) - F(t)) / sqrt(F(t)(1 - F(t))) with t = sqrt(2 s ln n)
    and n the sample size; its absolute value never exceeds the
    higher-criticism statistic.  A null tail of 0 at t raises
    InfiniteWeightError.
    """
    s = checks.between(s, "s", 0, 1, strict=True)
    ys = checks.vector(sample, "sample", nan=False)
    n = checks.integer(ys.size, "n", 16, error=InvalidSampleSizeError)
    t = math.sqrt(2.0 * s * math.log(n))
    f_low, f_up = (float(tail[0]) for tail in _checked_tails(null, np.array([t])))
    count_above = n - int(np.searchsorted(np.sort(ys), t, side="right"))
    # F_n(t) - F(t) = S(t) - S_n(t); the survival form stays exact when F ~ 1
    return math.sqrt(n) * (f_up - count_above / n) / math.sqrt(f_low * f_up)


def _hc_rows(ys, pairs, delta):
    statistics, _ = hc_statistics(ys, pairs[0][1].first)
    return (statistics > hc_threshold(ys.shape[1], delta))[[row for row, _ in pairs]]


def _max_rows(ys, pairs, delta):
    return max_rejects(ys)[[row for row, _ in pairs]]


def _subset(index: list[int], size: int) -> list[int] | slice:
    """``index`` into ``size`` rows, or a full slice, which copies no row, when it takes all."""
    return slice(None) if index == list(range(size)) else index


def _lr_rows(ys, pairs, delta):
    """lr on pairs, one alternative law at a time: log ratios once per row its pairs
    read, then their decisions in batches of at most ``len(ys)`` rows."""
    null, size = pairs[0][1].first, len(ys)
    groups: dict[Distribution, list[int]] = {}  # the pairs of each alternative law
    for k, (_, mix) in enumerate(pairs):
        groups.setdefault(mix.second, []).append(k)
    out = np.zeros(len(pairs), dtype=bool)
    for alt, mine in groups.items():
        reads: dict[int, int] = {}  # each row read, in order of first use, to its place
        picks = [reads.setdefault(pairs[k][0], len(reads)) for k in mine]
        eps = [pairs[k][1].weight for k in mine]
        rows = ys[_subset(list(reads), size)]
        ell = lr_log_ratios(rows, alt, null)
        out[mine] = np.concatenate([
            lr_rejects(ell[_subset(picks[k:k + size], len(ell))], eps[k:k + size])
            for k in range(0, len(picks), size)
        ])
    return out


@dataclass(frozen=True)
class DecisionRule:
    """A test of a phase sweep, one row of :data:`TESTS`.

    ``rejects(ys, pairs, delta)`` decides the test on rows of the sample
    matrix ``ys``.  ``pairs`` is a non-empty list of (row, mix), whose
    mixtures share one null ``mix.first``; the result holds, one bool a
    pair in order, whether the test rejects that null on ``ys[row]`` at
    its own threshold for (n, ``delta``).  ``min_n`` is the smallest n
    it takes.
    """

    rejects: Callable[..., np.ndarray]
    min_n: int


TESTS: dict[str, DecisionRule] = {
    "hc": DecisionRule(_hc_rows, min_n=16),
    "lr": DecisionRule(_lr_rows, min_n=2),
    "max": DecisionRule(_max_rows, min_n=2),
}
