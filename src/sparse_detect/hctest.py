"""Decision rules on raw samples: higher criticism, likelihood ratio, maximum.

The higher-criticism statistic is the supremum over thresholds of the
normalized deviation between the empirical CDF and the declared null
CDF.  Because the empirical CDF is a step function and the deviation is
monotone between jumps, the supremum is attained on the finite candidate
set of sample points approached from the left and from the right, which
is what the implementation evaluates exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .dists import Distribution, SparseMixture, log_likelihood_ratio
from .errors import (
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
    SingularPointError,
)

__all__ = [
    "EmpiricalCdf",
    "empirical_cdf",
    "HCResult",
    "hc_statistic",
    "hc_threshold",
    "hc_decision",
    "hc_test",
    "max_test",
    "lr_test",
    "vn_statistic",
]

NullCdf = Union[Distribution, Callable[[np.ndarray], np.ndarray]]


class EmpiricalCdf:
    """Step CDF backed by a sorted copy of the sample; O(log n) queries."""

    def __init__(self, sample):
        data = np.sort(np.asarray(sample, dtype=float))
        if data.size == 0:
            raise InvalidSampleSizeError("empirical CDF needs a non-empty sample")
        self._data = data
        self.n = data.size

    def __call__(self, t: float) -> float:
        """Fraction of sample points <= t."""
        return float(np.searchsorted(self._data, t, side="right")) / self.n

    def eval_left(self, t: float) -> float:
        """Left limit at t: fraction of sample points strictly below t."""
        return float(np.searchsorted(self._data, t, side="left")) / self.n

    @property
    def sorted_sample(self) -> np.ndarray:
        return self._data


def empirical_cdf(sample) -> EmpiricalCdf:
    return EmpiricalCdf(sample)


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


def _null_tail_values(null_cdf: NullCdf, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper tail probabilities, each exact in its own tail."""
    if isinstance(null_cdf, Distribution):
        lower = np.asarray(null_cdf.cdf(ys), dtype=float)
        upper = np.asarray(null_cdf.survival(ys), dtype=float)
    else:
        lower = np.asarray(null_cdf(ys), dtype=float)
        upper = 1.0 - lower
    return lower, upper


def _tail_deviation(rank: np.ndarray, f: np.ndarray, n: int, lower: bool) -> np.ndarray:
    """|F_n - F| at the larger of the left and right limits at each row.

    ``rank`` holds the rows' 0-based positions in the sorted sample and is
    overwritten with the result; ``f`` is the null probability of the
    rows' tail, the lower one (F) or the upper one (1 - F).
    """
    right = rank + 1.0
    right /= n  # F_n at the row
    rank /= n  # F_n just left of the row
    for level in (right, rank):
        if lower:
            level -= f
        else:  # (1 - F) - (1 - F_n)
            np.subtract(1.0, level, out=level)
            np.subtract(f, level, out=level)
        np.abs(level, out=level)
    return np.maximum(right, rank, out=rank)


def hc_statistic(
    sample, null_cdf: NullCdf, restricted: bool = False
) -> tuple[float, float]:
    """Higher-criticism statistic and its maximizing threshold.

    sqrt(n) times the largest |empirical - null| CDF deviation weighted
    by 1/sqrt(F(1-F)), maximized exactly over sample points from both
    sides.  F(1-F) and the deviations are evaluated through the CDF in
    the lower tail and the survival function in the upper tail, so
    neither saturates before a genuine float underflow.
    ``restricted=True`` keeps only candidates whose null CDF lies in
    [1/n, 1/2], the conventional tamed variant.  Ties resolve to the
    smallest threshold.
    """
    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    if n < 1:
        raise InvalidSampleSizeError("higher criticism needs a non-empty sample")
    f_low, f_up = _null_tail_values(null_cdf, ys)
    if np.any(f_low <= 0.0) or np.any(f_up <= 0.0):
        raise InfiniteWeightError(
            "null CDF hit 0 or 1 at a sample point; deviation weight is infinite"
        )
    # with ties in the sample the intermediate i/n levels are not attained,
    # but they only ever understate |F_n - F|, so the maximum is unaffected.
    # Each row is measured in the tail with the smaller probability, and
    # each tail's deviations are computed once, on its own rows, in place.
    dev = np.arange(n, dtype=float)  # 0-based ranks, overwritten by deviations
    use_lower = f_low <= f_up
    for rows, f, lower in ((use_lower, f_low, True), (~use_lower, f_up, False)):
        dev[rows] = _tail_deviation(dev[rows], f[rows], n, lower)
    weight = f_low * f_up
    dev /= np.sqrt(weight, out=weight)
    if restricted:
        keep = (f_low >= 1.0 / n) & (f_low <= 0.5)
        if not np.any(keep):
            raise InvalidParameterError(
                "restricted variant has no candidates with null CDF in [1/n, 1/2]"
            )
        dev[~keep] = -np.inf
    idx = int(np.argmax(dev))
    return math.sqrt(n) * float(dev[idx]), float(ys[idx])


def hc_threshold(n: int, delta: float) -> float:
    """Decision threshold sqrt(2 (1 + delta) log log n)."""
    if n < 16:
        raise InvalidSampleSizeError(
            f"n must be >= 16 so that log log n > 0, got {n}"
        )
    if delta <= 0:
        raise InvalidParameterError(f"delta must be > 0, got {delta}")
    return math.sqrt(2.0 * (1.0 + delta) * math.log(math.log(n)))


def hc_decision(statistic: float, n: int, delta: float = 0.1) -> str:
    """"alternative" iff the statistic exceeds the log-log threshold."""
    return "alternative" if statistic > hc_threshold(n, delta) else "null"


def hc_test(
    sample, null_cdf: NullCdf, delta: float = 0.1, restricted: bool = False
) -> HCResult:
    """Full higher-criticism test on a sample against a declared null."""
    ys = np.asarray(sample, dtype=float)
    statistic, arg_t = hc_statistic(ys, null_cdf, restricted=restricted)
    threshold = hc_threshold(ys.size, delta)
    return HCResult(
        statistic=statistic,
        arg_t=arg_t,
        threshold=threshold,
        decision="alternative" if statistic > threshold else "null",
        n=int(ys.size),
        delta=delta,
    )


def max_test(sample, n: int | None = None, u: float = 1.0) -> str:
    """Declare the alternative iff max |Y_i| exceeds u * sqrt(2 ln n).

    u >= 1 is the regime with vanishing null rejection probability;
    smaller u is allowed but flagged with a warning.
    """
    ys = np.asarray(sample, dtype=float)
    if n is None:
        n = ys.size
    if n < 2:
        raise InvalidSampleSizeError(f"n must be >= 2, got {n}")
    if n != ys.size:
        raise InvalidParameterError(
            f"declared n={n} does not match sample size {ys.size}"
        )
    if u < 1.0:
        warnings.warn(
            "max test with u < 1 does not control the null rejection rate",
            stacklevel=2,
        )
    threshold = abs(u) * math.sqrt(2.0 * math.log(n))
    return "alternative" if float(max(ys.max(), -ys.min())) > threshold else "null"


def lr_test(sample, mix: SparseMixture) -> tuple[float, str]:
    """Likelihood-ratio test of the null against a known sparse mixture.

    log LR = sum_i log(1 + eps (exp(l(Y_i)) - 1)), evaluated in log space
    as logaddexp(log(1 - eps), log eps + l) for stability; the rule
    declares the alternative iff log LR >= 0.  A sample point carrying
    alternative mass off the null support forces log LR = +inf and an
    immediate alternative decision.
    """
    ys = np.asarray(sample, dtype=float)
    eps = mix.epsilon
    if ys.size == 0:
        return 0.0, "alternative"
    try:
        ell = np.asarray(
            log_likelihood_ratio(mix.alt_dist, mix.null_dist, ys), dtype=float
        )
    except SingularPointError:
        return math.inf, "alternative"
    if eps == 0.0:
        return 0.0, "alternative"
    if eps == 1.0:
        log_lr = float(np.sum(ell))
    else:
        terms = np.logaddexp(math.log1p(-eps), math.log(eps) + ell)
        log_lr = float(np.sum(terms))
    return log_lr, "alternative" if log_lr >= 0.0 else "null"


def vn_statistic(sample, s: float, n: int, null_cdf: NullCdf) -> float:
    """Normalized exceedance count at the threshold sqrt(2 s ln n).

    sqrt(n) (F_n(t) - F(t)) / sqrt(F(t)(1 - F(t))) with t = sqrt(2 s ln n);
    its absolute value never exceeds the higher-criticism statistic.
    """
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"s must lie in (0, 1), got {s}")
    if n < 16:
        raise InvalidSampleSizeError(f"n must be >= 16, got {n}")
    ys = np.asarray(sample, dtype=float)
    if n != ys.size:
        raise InvalidParameterError(
            f"declared n={n} does not match sample size {ys.size}"
        )
    t = math.sqrt(2.0 * s * math.log(n))
    f_low, f_up = _null_tail_values(null_cdf, np.array([t]))
    f_low, f_up = float(f_low[0]), float(f_up[0])
    if f_low <= 0.0 or f_up <= 0.0:
        raise InfiniteWeightError("null CDF hit 0 or 1 at the exceedance threshold")
    count_above = n - int(np.searchsorted(np.sort(ys), t, side="right"))
    # F_n(t) - F(t) = S(t) - S_n(t); the survival form stays exact when F ~ 1
    return math.sqrt(n) * (f_up - count_above / n) / math.sqrt(f_low * f_up)
