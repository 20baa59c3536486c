"""Decision rules on raw samples: higher criticism, likelihood ratio, maximum.

The higher-criticism statistic is the supremum over thresholds of the
normalized deviation between the empirical CDF and the declared null
CDF.  Because the empirical CDF is a step function and the deviation is
monotone between jumps, the supremum is attained on the finite candidate
set of sample points approached from the left and from the right, which
is what the implementation evaluates exactly.  It skips a block of sorted
rows only when a bound from the block's endpoints, valid because the
null CDF is monotone and F(1-F) concave, shows that no row in it can
reach the maximum (see :func:`hc_statistic`).

The declared null is always a :class:`~sparse_detect.dists.Distribution`;
its ``tails`` method gives both tail probabilities, each exact in its own
tail.  A new null kind implements ``tails``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dists import Distribution, SparseMixture, log_likelihood_ratio
from .errors import (
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
    SingularPointError,
)

__all__ = [
    "HCResult",
    "hc_statistic",
    "hc_threshold",
    "hc_decision",
    "hc_test",
    "max_test",
    "lr_test",
    "lr_log_ratios",
    "lr_statistic",
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
        return {
            "statistic": self.statistic,
            "arg_t": self.arg_t,
            "threshold": self.threshold,
            "decision": self.decision,
            "n": self.n,
            "delta": self.delta,
        }


def _null_tail_values(null: Distribution, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper tail probabilities, each exact in its own tail."""
    if not isinstance(null, Distribution):
        raise InvalidParameterError(f"the null must be a Distribution, got {null!r}")
    lower, upper = null.tails(ys)
    return np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)


def _block_width(n: int) -> int:
    """Rows per pruning block; width 1 evaluates every row."""
    return math.isqrt(n) // 4 if n >= 4096 else 1


def _weighted_deviation(
    null: Distribution, ys: np.ndarray, rows: np.ndarray, restricted: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|F_n - F| / sqrt(F (1 - F)) at the given rows of the sorted sample.

    Returns the deviations and the rows' lower and upper null tails.  Each
    row takes the larger of the left and right limits of F_n and is
    measured in the tail with the smaller probability.  Under
    ``restricted`` a row whose null CDF lies outside [1/n, 1/2] reads -inf.
    """
    n = ys.size
    lower, upper = _null_tail_values(null, ys[rows])
    if (lower <= 0.0).any() or (upper <= 0.0).any():
        raise InfiniteWeightError(
            "null CDF hit 0 or 1 at a sample point; deviation weight is infinite"
        )
    right, left = (rows + 1.0) / n, rows / n  # F_n at the row and just left of it
    use_lower = lower <= upper
    dev = np.maximum(
        np.abs(np.where(use_lower, right - lower, upper - (1.0 - right))),
        np.abs(np.where(use_lower, left - lower, upper - (1.0 - left))),
    )
    dev /= np.sqrt(lower * upper)
    if restricted:
        dev[(lower < 1.0 / n) | (lower > 0.5)] = -np.inf
    return dev, lower, upper


def _open_rows(
    ends: np.ndarray, lower: np.ndarray, upper: np.ndarray, best: float, width: int
) -> np.ndarray:
    """Inner rows of the blocks between ``ends`` whose deviation may reach ``best``.

    ``lower`` and ``upper`` are the null tails at ``ends``.
    """
    n = int(ends[-1]) + 1
    a, b = ends[:-1], ends[1:]
    reach = np.maximum.reduce([
        (b + 1.0) / n - lower[:-1],
        lower[1:] - a / n,
        upper[:-1] - (1.0 - (b + 1.0) / n),
        (1.0 - a / n) - upper[1:],
    ])
    weight = lower * upper
    bound = reach / np.sqrt(np.minimum(weight[:-1], weight[1:]))
    starts = a[bound >= best * (1.0 - 1e-9)]  # the margin absorbs rounding
    inner = (starts[:, None] + np.arange(1, width)).ravel()
    return inner[inner < n - 1]  # the last block may be short


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
    bit.  A NaN sample point raises InvalidParameterError; a null tail
    of 0 at a sample point raises InfiniteWeightError.
    """
    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    if n < 1:
        raise InvalidSampleSizeError("higher criticism needs a non-empty sample")
    if np.isnan(ys[-1]):  # the sort puts NaN last
        raise InvalidParameterError("higher criticism needs a sample without NaN")
    # with ties in the sample the intermediate i/n levels are not attained,
    # but they only ever understate |F_n - F|, so the maximum is unaffected
    width = _block_width(n)
    ends = np.arange(0, n - 1 + width, width)
    ends[-1] = n - 1
    end_dev, lower, upper = _weighted_deviation(null, ys, ends, restricted)
    rows, dev = ends, end_dev
    if width > 1:  # blocks of width 1 have no inner rows
        inner = _open_rows(ends, lower, upper, end_dev.max(), width)
        rows = np.concatenate((ends, inner))
        dev = np.concatenate((end_dev, _weighted_deviation(null, ys, inner, restricted)[0]))
    best = dev.max()
    if best == -np.inf:
        raise InvalidParameterError(
            "restricted variant has no candidates with null CDF in [1/n, 1/2]"
        )
    idx = int(rows[dev == best].min())
    return math.sqrt(n) * float(best), float(ys[idx])


def hc_threshold(n: int, delta: float) -> float:
    """Decision threshold sqrt(2 (1 + delta) log log n)."""
    if n < 16:
        raise InvalidSampleSizeError(
            f"n must be >= 16 so that log log n > 0, got {n}"
        )
    if not 0 < delta < math.inf:
        raise InvalidParameterError(f"delta must be > 0 and finite, got {delta}")
    return math.sqrt(2.0 * (1.0 + delta) * math.log(math.log(n)))


def hc_decision(statistic: float, n: int, delta: float = 0.1) -> str:
    """"alternative" iff the statistic exceeds the log-log threshold."""
    return "alternative" if statistic > hc_threshold(n, delta) else "null"


def hc_test(
    sample, null: Distribution, delta: float = 0.1, restricted: bool = False
) -> HCResult:
    """Full higher-criticism test on a sample against a declared null."""
    ys = np.asarray(sample, dtype=float)
    statistic, arg_t = hc_statistic(ys, null, restricted=restricted)
    threshold = hc_threshold(ys.size, delta)
    return HCResult(
        statistic=statistic,
        arg_t=arg_t,
        threshold=threshold,
        decision="alternative" if statistic > threshold else "null",
        n=int(ys.size),
        delta=delta,
    )


def max_test(sample, u: float = 1.0) -> str:
    """Declare the alternative iff max |Y_i| exceeds u * sqrt(2 ln n).

    n is the sample size.  u >= 1 is the regime with vanishing null
    rejection probability; smaller u is allowed but flagged with a warning.
    """
    ys = np.asarray(sample, dtype=float)
    n = ys.size
    if n < 2:
        raise InvalidSampleSizeError(f"n must be >= 2, got {n}")
    if u < 1.0:
        warnings.warn(
            "max test with u < 1 does not control the null rejection rate",
            stacklevel=2,
        )
    threshold = abs(u) * math.sqrt(2.0 * math.log(n))
    return "alternative" if float(max(ys.max(), -ys.min())) > threshold else "null"


def lr_log_ratios(sample, alt: Distribution, null: Distribution) -> np.ndarray | None:
    """The log-likelihood ratios l(Y_i) = log dG/dQ (Y_i) of a sample.

    None when a sample point carries alternative mass off the null
    support, which makes log LR = +inf whatever the mixture weight.
    """
    try:
        return np.asarray(log_likelihood_ratio(alt, null, sample), dtype=float)
    except SingularPointError:
        return None


def lr_statistic(ell: np.ndarray | None, eps: float) -> float:
    """log LR of the mixture (1 - eps) Q + eps G from ``lr_log_ratios``.

    sum_i log(1 + eps (exp(l(Y_i)) - 1)), evaluated in log space as
    logaddexp(log(1 - eps), log eps + l) for stability.  A singular
    sample (``ell`` None) gives +inf, even at eps = 0, where every other
    sample gives 0.
    """
    if ell is None:
        return math.inf
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return float(np.sum(ell))
    return float(np.sum(np.logaddexp(math.log1p(-eps), math.log(eps) + ell)))


def lr_test(sample, mix: SparseMixture) -> tuple[float, str]:
    """Likelihood-ratio test of the null against a known sparse mixture.

    The statistic is ``lr_statistic`` of the sample's ``lr_log_ratios``;
    the rule declares the alternative iff log LR >= 0.  A sample point
    carrying alternative mass off the null support forces log LR = +inf
    and an immediate alternative decision.
    """
    ys = np.asarray(sample, dtype=float)
    if ys.size == 0:
        return 0.0, "alternative"
    log_lr = lr_statistic(lr_log_ratios(ys, mix.alt_dist, mix.null_dist), mix.epsilon)
    return log_lr, "alternative" if log_lr >= 0.0 else "null"


def vn_statistic(sample, s: float, null: Distribution) -> float:
    """Normalized exceedance count at the threshold sqrt(2 s ln n).

    sqrt(n) (F_n(t) - F(t)) / sqrt(F(t)(1 - F(t))) with t = sqrt(2 s ln n)
    and n the sample size; its absolute value never exceeds the
    higher-criticism statistic.
    """
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"s must lie in (0, 1), got {s}")
    ys = np.asarray(sample, dtype=float)
    n = ys.size
    if n < 16:
        raise InvalidSampleSizeError(f"n must be >= 16, got {n}")
    t = math.sqrt(2.0 * s * math.log(n))
    f_low, f_up = _null_tail_values(null, np.array([t]))
    f_low, f_up = float(f_low[0]), float(f_up[0])
    if f_low <= 0.0 or f_up <= 0.0:
        raise InfiniteWeightError("null CDF hit 0 or 1 at the exceedance threshold")
    count_above = n - int(np.searchsorted(np.sort(ys), t, side="right"))
    # F_n(t) - F(t) = S(t) - S_n(t); the survival form stays exact when F ~ 1
    return math.sqrt(n) * (f_up - count_above / n) / math.sqrt(f_low * f_up)
