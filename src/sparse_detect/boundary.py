"""Detection-boundary engine for sparse mixture testing.

Two dual routes are kept deliberately independent:

* closed-form boundaries (:func:`boundary_closed_form`) evaluate the
  exact piecewise formulas for the classical location model, the
  heteroscedastic normal model, dilated signal supports, generalized
  Gaussian convolutions, and generalized Gaussian location mixtures;
* numeric boundaries (:func:`beta_sharp`, :func:`beta_star_general`,
  :func:`hc_achievable_boundary`, :func:`hellinger_exponent`,
  :func:`tail_exponent`, :func:`beta_convolution`) are each one
  :func:`ess_sup_grid` supremum of an objective written once: the
  argmax over a dense grid, refined by golden section only inside the
  support.

Both must agree; the test suite enforces that on full parameter grids.

Exponent functions live on the u-axis (location scaled by sqrt(2 ln n))
or the s-axis (tail exponents of null quantiles, s = u^2).  Each
:func:`alpha_family` kind is one builder, and an :class:`ExponentFunction`
holds either that builder's vectorized evaluator or a sampled grid.
Evaluators over a finite support (dilate points, conv_from_f) reduce one
support point at a time over whole rows: no (rows, support) array is formed.
ggconv's Newton solve runs only on unsettled rows, compacted, in place.

Admissibility is probed by a ladder of :func:`laplace_log_integral`
values; the ladder checks its grid and forms the trapezoid log-weights
once, in one buffer, then makes one fused log-sum-exp pass per rung.  The
gate behind the numeric boundaries evaluates only the two rungs its
verdict reads, on the margin alpha(u) - u^2 it forms once and hands on
as a row the boundary may overwrite.  Row buffers belong to one call: no
call writes into an array it was given or keeps state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import checks
from .errors import (
    AdmissibilityError,
    EmptySupportError,
    HCBoundaryUndefinedError,
    InvalidParameterError,
    OutOfRegimeError,
    WrongParametrizationError,
)

__all__ = [
    "GRID_POINTS",
    "ExponentFunction",
    "BoundaryResult",
    "AdmissibilityReport",
    "alpha_family",
    "gamma_from_alpha",
    "exponent_from_csv",
    "check_admissible",
    "beta_sharp",
    "beta_star_general",
    "hellinger_exponent",
    "tail_exponent",
    "hc_achievable_boundary",
    "boundary_closed_form",
    "beta_convolution",
    "ess_sup_grid",
    "laplace_log_integral",
]

GRID_POINTS = 20001
_REFINE_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ADMISSIBLE_SLACK = 1e-9
_LADDER = tuple(2.0**k for k in range(4, 13))
_LADDER_FINAL_TOL = 0.05
_ULPS = 4.0 * np.finfo(float).eps
_NEWTON_CAP = 64  # ggconv Newton steps per row; about 12 at most in practice


# ---------------------------------------------------------------------------
# exponent functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFunction:
    """Limit exponent of a normalized log-likelihood ratio.

    Holds either a closed form, a vectorized evaluator ``fn`` on the
    domain [-width, width] (u-axis) or [0, width] (s-axis), or a sampled
    grid, strictly increasing ``xs`` with their ``values`` (-inf values
    encode regions without support).  ``convolutional`` asserts
    convexity, which :func:`check_admissible` verifies on the grid.
    """

    axis: str
    fn: Optional[Callable] = None
    width: Optional[float] = None
    xs: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    convolutional: bool = False

    def __post_init__(self):
        if self.axis not in ("u", "s"):
            raise InvalidParameterError(f"axis must be 'u' or 's', got {self.axis!r}")
        if (self.fn is None or self.width is None) == (self.xs is None or self.values is None):
            raise InvalidParameterError(
                "an exponent function holds either fn and width or xs and values"
            )
        if self.fn is not None:
            checks.positive(self.width, "width")
        else:
            xs = checks.array(self.xs, "xs")
            values = checks.array(self.values, "values")
            if xs.ndim != 1 or xs.size == 0 or xs.shape != values.shape:
                raise InvalidParameterError("grid xs and values must be equal-length 1-D")
            if not np.all(np.diff(xs) > 0):
                raise InvalidParameterError("grid abscissae must be strictly increasing")
            if np.any(np.isnan(values)) or np.any(np.isposinf(values)):
                raise InvalidParameterError(
                    "grid values must be finite or -inf (off-support marker)"
                )
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "values", values)

    @classmethod
    def from_grid(cls, xs, values, axis: str = "u", convolutional: bool = False):
        return cls(axis=axis, xs=xs, values=values, convolutional=convolutional)

    @property
    def has_closed_form(self) -> bool:
        return self.fn is not None

    def domain(self) -> tuple[float, float]:
        if self.fn is None:
            return float(self.xs[0]), float(self.xs[-1])
        return (-self.width if self.axis == "u" else 0.0), self.width

    def evaluate(self, x):
        """Evaluate the closed form (vectorized); grids interpolate linearly."""
        x = np.asarray(x, dtype=float)
        if self.fn is None:
            return np.interp(x, self.xs, self.values)
        return self.fn(x)

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Sampled grids as given; closed forms on GRID_POINTS points of the domain."""
        if self.fn is None:
            return self.xs, self.values
        lo, hi = self.domain()
        xs = np.linspace(lo, hi, GRID_POINTS)
        return xs, np.asarray(self.evaluate(xs), dtype=float)


@dataclass(frozen=True)
class BoundaryResult:
    """A detection-boundary value with its maximizer and provenance."""

    beta: float
    maximizer: float
    method: str
    grid_resolution: float = 0.0


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[str, ...]
    ladder_values: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.admissible


# ---------------------------------------------------------------------------
# closed-form exponent families, one builder each
# ---------------------------------------------------------------------------


def _closed(fn, scale: float, axis: str = "u", convolutional: bool = True):
    """Closed form ``fn`` on the domain half-width max(5, 2 scale)."""
    return ExponentFunction(axis, fn, max(5.0, 2.0 * scale), convolutional=convolutional)


def _rowwise(kernel):
    """Evaluator applying ``kernel`` to the raveled input, in the input's shape."""
    return lambda u: kernel(np.ravel(u)).reshape(np.shape(u))[()]


def _idj(params):
    r = checks.positive(params.get("r"), "r")
    return _closed(lambda u: 2.0 * u * math.sqrt(r) - r, math.sqrt(r) + 1.0)


def _symmetric_idj(params):
    r = checks.positive(params.get("r"), "r")
    return _closed(lambda u: 2.0 * np.abs(u) * math.sqrt(r) - r, math.sqrt(r) + 1.0)


def _hetero(params):
    r = checks.nonnegative(params.get("r"), "r")
    sigma2 = checks.positive(params.get("sigma2"), "sigma2")
    return _closed(
        lambda u: u * u - (u - math.sqrt(r)) ** 2 / sigma2,
        math.sqrt(r) + math.sqrt(sigma2),
        convolutional=sigma2 >= 1.0,
    )


def _dilate(params):
    if "linf" in params:
        linf = checks.nonnegative(params["linf"], "linf")
        pts = (-linf, linf)
    elif "points" in params:
        pts = checks.grid(params["points"], "every dilate support point")
    elif "interval" in params:
        ends = checks.grid(params["interval"], "every dilate interval end")
        if len(ends) != 2 or not ends[0] < ends[1]:
            raise InvalidParameterError(f"dilate interval must be (a, b) with a < b, got {ends}")
        a, b = ends

        def kernel(u):
            x = np.clip(u, a, b)  # unconstrained maximizer of 2ux - x^2 is x = u
            return 2.0 * u * x - x * x

        return _closed(kernel, max(abs(a), abs(b)) + 1.0)
    else:
        raise InvalidParameterError("dilate needs points=, interval= or linf=")
    support, squares = np.asarray(pts), np.asarray(pts) ** 2

    def kernel(u):  # running max of 2 u p - p^2: exact, so equal to the row maximum
        two_u = 2.0 * u
        best = two_u * support[0] - squares[0]
        for p, p2 in zip(support[1:], squares[1:]):
            np.maximum(best, two_u * p - p2, out=best)
        return best

    return _closed(_rowwise(kernel), max(abs(p) for p in pts) + 1.0)


def _signal_support(ts, fs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ts`` and ``fs`` as arrays, and the mask of the points on the support of f.

    The points must be finite, and only +inf in ``fs`` marks a point off
    the support; a NaN or -inf exponent raises InvalidParameterError.
    """
    ts, fs = np.asarray(checks.grid(ts, "ts")), checks.array(fs, "fs")
    if ts.shape != fs.shape:
        raise InvalidParameterError("ts and fs must be equal-length 1-D arrays")
    finite = np.isfinite(fs)
    if not np.all(finite | (fs == np.inf)):
        raise InvalidParameterError(
            f"exponents fs must be finite or +inf (off-support marker), got {fs}"
        )
    if not np.any(finite):
        raise EmptySupportError("f is infinite everywhere")
    return ts, fs, finite


def _conv_from_f(params):
    ts, fs, finite = _signal_support(params["ts"], params["fs"])
    ts, fs = ts[finite], fs[finite]

    def kernel(u):  # running min of (u - t)^2 + f(t), as in dilate
        best = (u - ts[0]) ** 2 + fs[0]
        for t, f in zip(ts[1:], fs[1:]):
            np.minimum(best, (u - t) ** 2 + f, out=best)
        return u * u - best

    return _closed(_rowwise(kernel), float(np.max(np.abs(ts))) + 1.0)


def _gen_gaussian_conv(params):
    r = checks.positive(params.get("r"), "r")
    tau = checks.positive(params.get("tau"), "tau")
    sqrt_r = math.sqrt(r)
    # alpha(u) = u^2 - min_{z >= 0} c(z), c(z) = (u - sqrt(r) z)^2 + z^tau.  Above lo,
    # c'(z) = 2 r z - 2 sqrt(r) u + tau z^(tau-1) increases, so its root there is the
    # local minimum of c: lo = 0 for tau >= 1; for tau < 1, c' is convex and lo is its
    # minimizer.  Rows with c'(lo) >= 0 keep z = 0, a candidate every row compares.
    lo = (tau * (1.0 - tau) / (2.0 * r)) ** (1.0 / (2.0 - tau)) if tau < 1.0 else 0.0
    slope_lo = 2.0 * r * lo + tau * lo ** (tau - 1.0)  # c'(lo) + 2 sqrt(r) u

    def kernel(u):
        u = np.abs(u)  # the exponent is even in u
        with np.errstate(over="ignore"):
            rows = np.flatnonzero(2.0 * sqrt_r * u > slope_lo)
        ui = u[rows]
        a, b = np.full(rows.shape, lo), ui / sqrt_r  # c'(a) < 0 <= c'(b) on the rows solved
        z = np.zeros(u.shape)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if tau > 1.0:  # c' >= tau z^(tau-1) - 2 sqrt(r) u gives a nearer upper end
                b = np.minimum(b, (2.0 * sqrt_r * ui / tau) ** (1.0 / (tau - 1.0)))
            x = b.copy()
            # Newton from b, bisecting when a step leaves the bracket; a row stops once
            # c' is zero to its rounding error or its bracket is a few ulps wide.  Only
            # the unsettled rows are solved, compacted, with three scratch rows a step.
            for _ in range(_NEWTON_CAP):
                if rows.size == 0:
                    break
                power = x ** (tau - 2.0)
                slope = np.multiply(x, 2.0 * r)  # c'(x), term by term
                slope -= (work := np.multiply(ui, 2.0 * sqrt_r))
                slope += np.multiply(np.multiply(power, tau, out=work), x, out=work)
                left = slope < 0.0
                np.copyto(a, x, where=left)
                np.copyto(b, x, where=~left)
                power *= tau * (tau - 1.0)  # c''(x), then the step x - c'(x) / c''(x)
                power += 2.0 * r
                step = np.subtract(x, np.divide(slope, power, out=power), out=power)
                go = np.abs(slope, out=slope) > np.multiply(ui, _ULPS * 2.0 * sqrt_r, out=work)
                np.multiply(np.add(a, b, out=x), 0.5, out=x)
                np.copyto(x, step, where=(step >= a) & (step <= b))
                z[rows] = x
                tol = np.multiply(np.divide(ui, sqrt_r, out=slope), _ULPS, out=slope)
                go &= np.subtract(b, a, out=work) > tol  # the bracket is a few ulps wide
                del power, slope, work, step, tol
                rows, x = rows[go], x[go]
                ui, a, b = ui[go], a[go], b[go]
        return u * u - np.minimum((u - sqrt_r * z) ** 2 + z**tau, u * u)

    return _closed(_rowwise(kernel), sqrt_r * 2.0 ** (1.0 / tau) + 1.0)


def _gen_gaussian_location(params):
    r = checks.positive(params.get("r"), "r")
    tau = checks.positive(params.get("tau"), "tau")
    return _closed(
        lambda s: s - np.abs(np.maximum(s, 0.0) ** (1.0 / tau) - r ** (1.0 / tau)) ** tau,
        r + 1.0, axis="s", convolutional=False,
    )


_ALPHA_FAMILIES: dict[str, Callable] = {
    "idj": _idj,
    "symmetric_idj": _symmetric_idj,
    "hetero": _hetero,
    "dilate": _dilate,
    "conv_from_f": _conv_from_f,
    "gen_gaussian_conv": _gen_gaussian_conv,
    "gen_gaussian_location": _gen_gaussian_location,
}


def alpha_family(family: str, **params) -> ExponentFunction:
    """Closed-form exponent function for a named mixture family.

    u-axis families: ``idj(r)``, ``symmetric_idj(r)``, ``hetero(r, sigma2)``,
    ``dilate(points= | interval= | linf=)``, ``conv_from_f(ts, fs)``,
    ``gen_gaussian_conv(r, tau)``.  The s-axis family
    ``gen_gaussian_location(r, tau)`` describes a non-Gaussian null.
    """
    builder = _ALPHA_FAMILIES.get(family)
    if builder is None:
        raise InvalidParameterError(f"unknown exponent family {family!r}")
    return builder(params)


def gamma_from_alpha(alpha: ExponentFunction) -> ExponentFunction:
    """s-axis exponent gamma(s) = alpha(sqrt s) v alpha(-sqrt s)."""
    _require_axis(alpha, "u")
    lo, hi = alpha.domain()
    smax = max(hi, -lo) ** 2
    s = np.linspace(0.0, smax, GRID_POINTS)
    root = np.sqrt(s)
    vals = np.maximum(alpha.evaluate(root), alpha.evaluate(-root))
    return ExponentFunction.from_grid(s, vals, axis="s")


def exponent_from_csv(path) -> ExponentFunction:
    """Load a sampled exponent function from two-column CSV.

    The header's first column names the axis ('u,value' or 's,value');
    the rows hold strictly increasing abscissae and values (-inf allowed
    to mark off-support regions).
    """
    xs, vals = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        axis = header.split(",")[0].strip().lower()
        if axis not in ("u", "s"):
            raise InvalidParameterError(
                f"{path}: header must declare the axis as 'u,value' or 's,value'"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                x_str, v_str = line.split(",")[:2]
                xs.append(float(x_str))
                vals.append(float(v_str))
            except ValueError:
                raise InvalidParameterError(
                    f"{path}:{lineno}: cannot parse {line!r} as 'x,value'"
                ) from None
    if not xs:
        raise InvalidParameterError(f"{path}: no grid rows found")
    return ExponentFunction.from_grid(xs, vals, axis=axis)


# ---------------------------------------------------------------------------
# grid machinery
# ---------------------------------------------------------------------------


def ess_sup_grid(
    xs, values, refine: Optional[Callable] = None
) -> tuple[float, float]:
    """(max value, argmax) over a grid; -inf entries are skipped.

    A NaN or +inf maximum, or one at a non-finite abscissa, raises
    :class:`InvalidParameterError`.  Ties break to the smallest abscissa.
    When ``refine`` is given (a callable agreeing with ``values`` on the
    grid), a golden-section pass between the neighbours of the winning
    point sharpens the maximum; it is skipped unless both neighbours are
    finite, so the refinement never leaves the support.
    """
    xs = checks.array(xs, "xs")
    values = checks.array(values, "values")
    if xs.size == 0:
        raise EmptySupportError("empty grid")
    if np.all(np.isneginf(values)):
        raise EmptySupportError("all grid values are -inf")
    idx = int(np.argmax(values))  # first occurrence wins ties; a NaN wins outright
    best_x, best_v = float(xs[idx]), float(values[idx])
    if not (math.isfinite(best_v) and math.isfinite(best_x)):  # all -inf was caught above
        value = "NaN" if math.isnan(best_v) else best_v
        raise InvalidParameterError(f"grid value is {value} at x={best_x:.6g}")
    lo, hi = max(idx - 1, 0), min(idx + 1, xs.size - 1)
    if refine is not None and np.all(np.isfinite(values[lo : hi + 1])):
        x_ref, v_ref = _golden_max_scalar(refine, float(xs[lo]), float(xs[hi]))
        if v_ref > best_v:
            best_x, best_v = x_ref, v_ref
    return best_v, best_x


def _sup(fn: ExponentFunction, xs, row, objective: Callable, lo: float = -np.inf):
    """ess_sup_grid of ``row``, objective(x, fn(x)) on the grid, over the points x >= lo.

    The grid increases, so those points are a slice: no mask and no copy.
    Closed forms refine through ``fn.evaluate``; sampled grids keep the grid maximum.
    """
    start = int(np.searchsorted(xs, lo))
    refine = (lambda x: objective(x, fn.evaluate(x))) if fn.has_closed_form else None
    return ess_sup_grid(xs[start:], row[start:], refine)


def _boundary(excess: float, arg: float, xs) -> BoundaryResult:
    """1/2 + 0 v excess clamped to 1, with the grid's step as resolution.

    A supremum that already holds the 1/2 passes sup - 1/2: that is exact
    for sup in [1/4, 1] (Sterbenz), so the clamp keeps every bit.
    """
    step = float(xs[1] - xs[0]) if len(xs) > 1 else 0.0
    return BoundaryResult(min(1.0, 0.5 + max(0.0, excess)), arg, "grid", step)


def _golden_max_scalar(fn, lo: float, hi: float):
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = float(fn(c)), float(fn(d))
    while b - a > _REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = float(fn(d))
    x = 0.5 * (a + b)
    return x, float(fn(x))


def laplace_log_integral(xs, values, big_m: float) -> float:
    """(1/M) log integral of exp(M f) over the grid, trapezoid weights.

    Stabilized with log-sum-exp; -inf values contribute nothing.  As M
    grows the result converges to the essential supremum of f, which is
    how admissibility of exponent functions is probed numerically.  M
    must be positive and finite, ``xs`` strictly increasing and ``values``
    free of NaN.  This is the one-rung case of the admissibility ladder.
    """
    return _laplace_ladder(xs, checks.array(values, "values", nan=False), (big_m,))[0]


def _laplace_ladder(xs, values, ladder) -> tuple[float, ...]:
    """:func:`laplace_log_integral` at each M of ``ladder``, one fused pass per rung.

    The inputs are checked and the trapezoid log-weights formed once.
    Each rung then evaluates scipy's log-sum-exp formula in one reused
    buffer a = M f + log w: with top its maximum, attained k times, the
    maxima leave the sum, exp(a - top) runs in place only where
    a - top > -746 (exp is exactly 0.0 below -745.13, so the skipped
    entries are set to 0.0), and the full-length row is summed in numpy's
    pairwise order.  The
    result (log1p(s/k) + log k + top) / M is therefore
    ``scipy.special.logsumexp(a) / M`` bit for bit, without its
    per-call conversions and its second, unshifted exp pass.
    """
    ladder = tuple(checks.positive(m, "M") for m in ladder)
    xs = checks.array(xs, "xs")
    values = checks.array(values, "values")
    if xs.ndim != 1 or xs.shape != values.shape:
        raise InvalidParameterError("grid xs and values must be equal-length 1-D")
    if xs.size < 2:
        raise EmptySupportError("laplace integral needs at least two grid points")
    half = np.diff(xs)
    if not np.all(half > 0):
        raise InvalidParameterError("grid abscissae must be strictly increasing")
    half *= 0.5
    log_w = np.append(half, 0.0)  # w_i = dx_i / 2 + dx_(i-1) / 2, zero terms left out
    log_w[1:] += half
    del half
    np.log(log_w, out=log_w)
    a = np.empty_like(xs)
    out = []
    for m in ladder:
        np.multiply(values, m, out=a)
        a += log_w
        top = a.max()
        if not np.isfinite(top):
            # nan, or every term -inf, or a +inf term: log-sum-exp is top itself
            out.append(float(top) / m)
            continue
        hit = a == top
        k = np.count_nonzero(hit)
        a[hit] = -np.inf
        a -= top
        keep = a > -746.0  # exp is exactly 0.0 below -745.13
        np.exp(a, out=a, where=keep)
        np.putmask(a, ~keep, 0.0)
        out.append(float(np.log1p(a.sum() / k) + np.log(k) + top) / m)
    return tuple(out)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def check_admissible(alpha: ExponentFunction) -> AdmissibilityReport:
    """Verify that an exponent function can arise from a mixture sequence.

    Three conditions: pointwise alpha(u) <= u^2; the normalized
    log-integral of exp(t (alpha - u^2)) moving toward 0 over the last
    step of a geometric ladder of t, with final magnitude <= 0.05; and
    convexity when the function is flagged convolutional.  The report holds
    every rung; the gate behind the numeric boundaries reads only the last two.
    """
    _require_axis(alpha, "u")
    return _admissibility(alpha, *alpha.grid())[0]


def _admissibility(
    alpha: ExponentFunction, xs, vals, rungs=_LADDER
) -> tuple[AdmissibilityReport, np.ndarray]:
    """The report, and the margin alpha(u) - u^2 on the grid, a fresh row the caller owns."""
    violations = []
    undefined = np.isnan(vals)
    if np.any(undefined):
        violations.append(
            f"alpha(u) is NaN at {int(undefined.sum())} grid points "
            f"(first at u={xs[np.argmax(undefined)]:.6g})"
        )
    margin = np.multiply(xs, xs)
    np.subtract(vals, margin, out=margin)
    bad = margin > _ADMISSIBLE_SLACK
    if np.any(bad):
        worst = int(np.nanargmax(margin))
        violations.append(
            f"alpha(u) exceeds u^2 at {int(bad.sum())} grid points "
            f"(worst at u={xs[worst]:.6g}, excess {margin[worst]:.3g})"
        )

    ladder = _laplace_ladder(xs, margin, rungs)  # each rung is computed on its own
    mags = [abs(v) for v in ladder]
    # direction check on the last step only: the early rungs are dominated
    # by the domain-width term log(W)/t, whose sign says nothing about alpha
    if mags[-1] > mags[-2] + _ADMISSIBLE_SLACK:
        violations.append("normalized log-integral does not decrease toward 0")
    if mags[-1] > _LADDER_FINAL_TOL:
        violations.append(
            f"normalized log-integral at t={_LADDER[-1]:.0f} is {ladder[-1]:.4g}, "
            f"maximum allowed magnitude {_LADDER_FINAL_TOL}"
        )

    if alpha.convolutional:
        finite = np.isfinite(vals)
        v = vals if finite.all() else vals[finite]
        if v.size >= 3:
            second = np.multiply(v[1:-1], 2.0)  # v[2:] - 2 v[1:-1] + v[:-2], in one row
            np.subtract(v[2:], second, out=second)
            second += v[:-2]
            if np.any(second < -_ADMISSIBLE_SLACK):
                violations.append("convolutional flag set but alpha is not convex")

    return AdmissibilityReport(not violations, tuple(violations), ladder), margin


def _require_axis(fn: ExponentFunction, axis: str) -> None:
    if fn.axis != axis:
        raise WrongParametrizationError(
            f"expected {axis}-axis exponent function, got {fn.axis}-axis"
        )


def _require_admissible(alpha: ExponentFunction, xs, vals) -> np.ndarray:
    """The margin alpha(u) - u^2 of an admissible alpha, checked on the verdict's two rungs."""
    report, margin = _admissibility(alpha, xs, vals, _LADDER[-2:])
    if not report.admissible:
        raise AdmissibilityError("; ".join(report.violations))
    return margin


# ---------------------------------------------------------------------------
# boundaries from exponent functions
# ---------------------------------------------------------------------------


def beta_sharp(alpha: ExponentFunction) -> BoundaryResult:
    """Detection boundary 1/2 + 0 v sup_u {alpha(u) - u^2 + (u^2 ^ 1)/2}."""
    _require_axis(alpha, "u")
    xs, vals = alpha.grid()
    row = _sharpen(xs, _require_admissible(alpha, xs, vals))
    return _boundary(*_sup(alpha, xs, row, _sharp_objective), xs)


def _sharp_objective(u, value):
    return value - u * u + 0.5 * np.minimum(u * u, 1.0)


def _sharpen(xs, margin):
    """``margin`` = alpha(u) - u^2 turned in place into :func:`_sharp_objective`."""
    half = np.multiply(xs, xs)
    margin += np.multiply(np.minimum(half, 1.0, out=half), 0.5, out=half)
    return margin


def beta_star_general(gamma: ExponentFunction) -> BoundaryResult:
    """Boundary 1/2 + 0 v sup_{s>=0} {gamma(s) - s + (s ^ 1)/2} on the s-axis."""
    _require_axis(gamma, "s")
    xs, vals = gamma.grid()
    margin = vals - xs
    if np.any(margin > _ADMISSIBLE_SLACK):
        worst = int(np.argmax(margin))
        raise AdmissibilityError(
            f"gamma(s) exceeds s at s={xs[worst]:.6g} by {margin[worst]:.3g}"
        )
    margin += 0.5 * np.minimum(xs, 1.0)  # the objective below, in place
    objective = lambda s, value: value - s + 0.5 * np.minimum(s, 1.0)
    return _boundary(*_sup(gamma, xs, margin, objective), xs)


def hellinger_exponent(alpha: ExponentFunction, beta: float) -> float:
    """Polynomial rate of the squared Hellinger distance at sparsity beta.

    sup_u { min(2(alpha - beta), alpha - beta) - u^2 }: the squared
    contamination rate applies where the likelihood exponent stays below
    beta, the simple rate above it.  Crosses -1 exactly at the boundary.
    """
    _require_axis(alpha, "u")
    beta = checks.number(beta, "beta")
    if beta < 0.5:
        raise OutOfRegimeError(f"beta must be >= 1/2, got {beta}")
    xs, vals = alpha.grid()
    _require_admissible(alpha, xs, vals)
    objective = lambda u, value: np.minimum(2.0 * (value - beta), value - beta) - u * u
    return _sup(alpha, xs, objective(xs, vals), objective)[0]


def tail_exponent(alpha: ExponentFunction, u: float) -> float:
    """sup over q >= u of alpha(q) - q^2; nonincreasing in u."""
    _require_axis(alpha, "u")
    u = checks.nonnegative(u, "u")
    xs, vals = alpha.grid()
    candidates = []
    if xs[-1] >= u:
        objective = lambda q, value: value - q * q
        candidates.append(_sup(alpha, xs, vals - xs * xs, objective, lo=u)[0])
    if alpha.has_closed_form:
        candidates.append(float(alpha.evaluate(u)) - u * u)
    if not candidates:
        raise EmptySupportError(f"grid does not reach q >= {u}")
    return max(candidates)


def hc_achievable_boundary(alpha: ExponentFunction) -> BoundaryResult:
    """Boundary achieved by the higher-criticism test.

    1/2 + 0 v sup_{q>=0} {alpha(q) - q^2 + (q^2 ^ 1)/2}, the objective of
    :func:`beta_sharp` restricted to q >= 0, with which it must coincide
    (adaptivity).
    """
    _require_axis(alpha, "u")
    xs, vals = alpha.grid()
    if not np.any(vals > 0):
        raise HCBoundaryUndefinedError("exponent function is nowhere positive")
    row = _sharpen(xs, _require_admissible(alpha, xs, vals))
    return _boundary(*_sup(alpha, xs, row, _sharp_objective, lo=0.0), xs)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _beta_star_idj(x):
    """Classical boundary at signal strength x, vectorized (0-d for a scalar).

    1/2 + x for x <= 1/4, else 1 - (1 - sqrt x)^2.  A scalar x takes
    numpy's scalar power path, so its value matches Python's float
    arithmetic bit for bit.
    """
    x = np.asarray(x, dtype=float)
    low = 0.5 + np.maximum(x, 0.0)
    high = 1.0 - np.maximum(0.0, 1.0 - np.sqrt(np.maximum(x, 0.0))) ** 2
    return np.where(x <= 0.25, low, high)


def boundary_closed_form(family: str, mode: str = "beta-of-r", **params) -> float:
    """Exact piecewise boundary formulas, branch conditions as printed.

    Families: ``idj``; ``hetero`` (heteroscedastic normal, sigma2);
    ``dilate`` (signal support scaled, parameter linf); ``ggconv``
    (generalized Gaussian convolution, tau and r; exact bullets at
    tau = 1 and tau = 2, a deterministic 1-D supremum otherwise); and
    ``gglocation`` (generalized Gaussian location mixture, tau and r).
    ``mode="r-of-beta"`` inverts the idj and hetero formulas.
    """
    if mode not in ("beta-of-r", "r-of-beta"):
        raise InvalidParameterError(f"unknown mode {mode!r}")

    if family == "idj":
        if mode == "beta-of-r":
            return float(_beta_star_idj(checks.nonnegative(params.get("r"), "r")))
        beta = checks.between(params.get("beta"), "beta", 0.5, 1.0, strict=True)
        return beta - 0.5 if beta <= 0.75 else (1.0 - math.sqrt(1.0 - beta)) ** 2

    if family == "hetero":
        sigma2 = checks.positive(params.get("sigma2"), "sigma2")
        if mode == "beta-of-r":
            r = checks.nonnegative(params.get("r"), "r")
            if 2.0 * math.sqrt(r) + sigma2 <= 2.0:
                # at the corner r = 0, sigma2 = 2 the ratio is read as 0
                return 0.5 if r == 0.0 and sigma2 == 2.0 else 0.5 + r / (2.0 - sigma2)
            return 1.0 - max(0.0, 1.0 - math.sqrt(r)) ** 2 / sigma2
        beta = checks.between(params.get("beta"), "beta", 0.5, 1.0, strict=True)
        if sigma2 < 2.0 and beta <= 1.0 - sigma2 / 4.0:
            return (2.0 - sigma2) * (beta - 0.5)
        return max(0.0, 1.0 - math.sqrt(sigma2) * math.sqrt(1.0 - beta)) ** 2

    if family == "dilate":
        _require_mode_beta(mode, family)
        linf = checks.nonnegative(params.get("linf"), "linf")
        if linf <= 0.5:
            return linf * linf + 0.5
        return 1.0 - max(0.0, 1.0 - linf) ** 2

    if family == "ggconv":
        _require_mode_beta(mode, family)
        r = checks.positive(params.get("r"), "r")
        tau = checks.positive(params.get("tau"), "tau")
        if tau == 1.0:
            if r > 1.5 + math.sqrt(2.0):
                return (1.0 - 0.5 / math.sqrt(r)) ** 2
            return 0.5
        if tau == 2.0:
            return max(0.5, r / (1.0 + r))
        # deterministic supremum of the classical boundary against the
        # polynomial tail cost: sup_{z >= 0} { beta_idj(r z^2) - z^tau }
        zmax = max(2.0, 2.0 / math.sqrt(r), 1.2 * 0.5 ** (1.0 / tau))
        zs = np.linspace(0.0, zmax, GRID_POINTS)
        objective = lambda z: _beta_star_idj(r * z * z) - z**tau
        sup, _ = ess_sup_grid(zs, objective(zs), objective)
        return min(1.0, max(0.5, sup))

    if family == "gglocation":
        _require_mode_beta(mode, family)
        r = checks.nonnegative(params.get("r"), "r")
        tau = checks.positive(params.get("tau"), "tau")
        if r > 1.0:
            return 1.0
        if tau <= 1.0 or r == 0.0:  # r = 0 reads 1/2 even where the threshold underflows
            return 0.5 * (1.0 + r)
        root, rise = 2.0 ** (1.0 / (1.0 - tau)), 0.5 - 2.0 ** (tau / (1.0 - tau))
        threshold = (1.0 - root) ** tau
        if r < threshold:
            if math.isfinite(rise / threshold):
                return 0.5 + rise / threshold * r
            # subnormal threshold: the slope overflows, so r / threshold is formed in logs
            return 0.5 + rise * math.exp(math.log(r) - tau * math.log1p(-root))
        return 1.0 - (1.0 - r ** (1.0 / tau)) ** tau

    raise InvalidParameterError(f"unknown boundary family {family!r}")


def beta_convolution(ts, fs) -> BoundaryResult:
    """Boundary of a convolution model from the signal-density exponent f.

    sup_t { beta_idj(t^2) - f(t) } over the declared grid, +inf entries
    marking off-support regions, refined with linearly interpolated f
    inside the support.  The grid ``ts`` must be strictly increasing.
    The result is clamped to [1/2, 1].
    """
    ts, fs, finite = _signal_support(ts, fs)
    if not np.all(np.diff(ts) > 0.0):
        raise InvalidParameterError(f"ts must be strictly increasing, got {ts}")
    objective = np.where(finite, _beta_star_idj(ts * ts) - fs, -np.inf)
    f_lin = lambda t: float(np.interp(t, ts[finite], fs[finite]))
    sup, arg = ess_sup_grid(ts, objective, lambda t: _beta_star_idj(t * t) - f_lin(t))
    return _boundary(sup - 0.5, arg, ts)


def _require_mode_beta(mode: str, family: str) -> None:
    if mode != "beta-of-r":
        raise InvalidParameterError(
            f"mode r-of-beta is not available for family {family!r}"
        )
