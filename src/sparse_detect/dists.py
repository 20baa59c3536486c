"""Probability distributions for sparse mixture testing.

Concrete families: Gaussian, generalized Gaussian (Subbotin, density
proportional to exp(-|x|^tau)), scale dilations, location shifts,
finite discrete laws, and two-component mixtures.  All values are
immutable; sampling is driven by externally supplied generator streams
(see :mod:`sparse_detect.rng`) so identical (seed, path) inputs give
bit-identical output.

A null law is always a :class:`Distribution`.  Tail probabilities are
computed one way: each kind implements ``tails(y) -> (lower, upper)``,
each tail exact in its own range, and ``cdf`` and ``survival`` read it.
The elementwise evaluators ``tails`` and ``log_density`` do not check
their points: a NaN point gives NaN, and no warning.
A new kind implements ``tails`` and joins ``_KINDS``.  ``scipy.special``
loads when a special function is first evaluated (:func:`_special`), so a
process that computes only boundaries never loads it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import checks
from .errors import (
    IncompatibleLawsError,
    InvalidParameterError,
    InvalidProbabilityError,
    InvalidSampleSizeError,
    SingularPointError,
    UndefinedPointError,
)

__all__ = [
    "Distribution",
    "Gaussian",
    "GenGaussian",
    "Dilated",
    "Shifted",
    "FiniteDiscrete",
    "Mixture",
    "epsilon_from_beta",
    "mu_from_r",
    "log_likelihood_ratio",
    "to_spec",
    "from_spec",
]

_ATOM_MASS_TOL = 1e-12
_QUANTILE_CDF_TOL = 1e-12


def _special():
    # about half a cold start (numpy.f2py and numpy.testing come with it)
    import scipy.special

    return scipy.special


class Distribution:
    """Base class; concrete kinds implement densities, tails and sampling."""

    kind: str = "abstract"

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return False

    @property
    def has_density(self) -> bool:
        return not self.is_discrete

    def log_density(self, y):
        """Log density at y, elementwise; NaN where y is NaN."""
        raise NotImplementedError

    def tails(self, y):
        """(P(Y <= y), P(Y > y)), each exact in its own tail; both NaN where y is NaN."""
        raise NotImplementedError

    def cdf(self, y):
        return self.tails(y)[0]

    def survival(self, y):
        return self.tails(y)[1]

    def mass(self, y: float) -> float:
        """Point mass at y (zero for atomless laws); discrete kinds map arrays."""
        return 0.0

    def support_bounds(self, log_floor: float = -700.0) -> tuple[float, float]:
        """Interval outside which the log density stays below log_floor."""
        raise NotImplementedError

    # -- quantiles ---------------------------------------------------------

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{y : F(y) >= p} via monotone bisection."""
        p = checks.probability(p)
        lo, hi = self.support_bounds()
        # widen until the bracket certainly contains the quantile
        while self.cdf(lo) > p:
            lo = 2 * lo - hi
        while self.cdf(hi) < p:
            hi = 2 * hi - lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= p:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 * max(1.0, abs(hi)):
                break
        if abs(self.cdf(hi) - p) > _QUANTILE_CDF_TOL and self.has_density:
            # continuous kinds must hit the target probability exactly
            raise InvalidProbabilityError(
                f"bisection failed to match cdf at p={p!r}"
            )
        return hi

    def sample(self, n: int, stream: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Normal law with the given mean and standard deviation."""

    mean: float = 0.0
    sd: float = 1.0
    kind = "gaussian"

    def __post_init__(self):
        checks.number(self.mean, "mean")
        checks.positive(checks.number(self.sd, "sd"), "sd")

    def log_density(self, y):
        z = (np.asarray(y, dtype=float) - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2 * math.pi)

    def tails(self, y):
        z = (np.asarray(y, dtype=float) - self.mean) / self.sd
        special = _special()
        return special.ndtr(z), special.ndtr(-z)

    def quantile(self, p: float) -> float:
        return self.mean + self.sd * float(_special().ndtri(checks.probability(p)))

    def support_bounds(self, log_floor: float = -700.0) -> tuple[float, float]:
        half = self.sd * math.sqrt(2 * max(1.0, -log_floor))
        return self.mean - half, self.mean + half

    def sample(self, n, stream):
        out = stream.standard_normal(n)
        if self.sd != 1.0:
            out *= self.sd
        out += self.mean  # also at mean 0, which turns an exact -0.0 draw into +0.0
        return out


@dataclass(frozen=True)
class GenGaussian(Distribution):
    """Symmetric law with density tau/(2*Gamma(1/tau)) * exp(-|x|^tau).

    tau=1 is the standard Laplace law, tau=2 a normal with variance 1/2.
    """

    tau: float
    kind = "gen_gaussian"

    def __post_init__(self):
        checks.positive(checks.number(self.tau, "tau"), "tau")

    @property
    def _log_norm(self) -> float:
        return math.log(self.tau) - math.log(2.0) - _special().gammaln(1.0 / self.tau)

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self._log_norm - np.abs(y) ** self.tau

    def tails(self, y):
        # each tail is Q(1/tau, |y|^tau) / 2, from gammaincc so it stays exact
        # down to underflow instead of cancelling in 1 - gammainc; the law is
        # symmetric, so one pass gives both tails
        y = np.asarray(y, dtype=float)
        half = 0.5 * _special().gammaincc(1.0 / self.tau, np.abs(y) ** self.tau)
        rest = 1.0 - half
        below = y < 0
        lower, upper = np.where(below, half, rest), np.where(below, rest, half)
        return (lower, upper) if lower.shape else (float(lower), float(upper))

    def quantile(self, p: float) -> float:
        # invert the smaller tail, Q(1/tau, |y|^tau) = 2 min(p, 1 - p), so
        # that p far below or above 1/2 keeps its resolution
        p = checks.probability(p)
        tail = 2.0 * min(p, 1.0 - p)
        mag = float(_special().gammainccinv(1.0 / self.tau, tail)) ** (1.0 / self.tau)
        return -mag if p < 0.5 else mag

    def support_bounds(self, log_floor: float = -700.0) -> tuple[float, float]:
        half = (max(1.0, -log_floor + self._log_norm + 1.0)) ** (1.0 / self.tau)
        return -half, half

    def sample(self, n, stream):
        # |X|^tau ~ Gamma(1/tau, 1), and the sign is an independent fair coin
        mag = stream.standard_gamma(1.0 / self.tau, n) ** (1.0 / self.tau)
        return np.copysign(mag, stream.random(n) - 0.5, out=mag)


@dataclass(frozen=True)
class Dilated(Distribution):
    """Law of scale * X where X follows the base distribution."""

    base: Distribution
    scale: float
    kind = "dilated"

    def __post_init__(self):
        checks.positive(checks.number(self.scale, "scale"), "scale")

    @property
    def is_discrete(self) -> bool:
        return self.base.is_discrete

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self.base.log_density(y / self.scale) - math.log(self.scale)

    def tails(self, y):
        return self.base.tails(np.asarray(y, dtype=float) / self.scale)

    def mass(self, y):
        return self.base.mass(y / self.scale)

    def quantile(self, p: float) -> float:
        return self.scale * self.base.quantile(p)

    def support_bounds(self, log_floor: float = -700.0):
        lo, hi = self.base.support_bounds(log_floor)
        return self.scale * lo, self.scale * hi

    def sample(self, n, stream):
        out = self.base.sample(n, stream)  # every kind's sample is a fresh array
        out *= self.scale
        return out


@dataclass(frozen=True)
class Shifted(Distribution):
    """Law of X + shift where X follows the base distribution."""

    base: Distribution
    shift: float
    kind = "shifted"

    def __post_init__(self):
        checks.number(self.shift, "shift")

    @property
    def is_discrete(self) -> bool:
        return self.base.is_discrete

    def log_density(self, y):
        return self.base.log_density(np.asarray(y, dtype=float) - self.shift)

    def tails(self, y):
        return self.base.tails(np.asarray(y, dtype=float) - self.shift)

    def mass(self, y):
        return self.base.mass(y - self.shift)

    def quantile(self, p: float) -> float:
        return self.shift + self.base.quantile(p)

    def support_bounds(self, log_floor: float = -700.0):
        lo, hi = self.base.support_bounds(log_floor)
        return lo + self.shift, hi + self.shift

    def sample(self, n, stream):
        out = self.base.sample(n, stream)  # every kind's sample is a fresh array
        out += self.shift
        return out


@dataclass(frozen=True)
class FiniteDiscrete(Distribution):
    """Finitely supported law given as ((point, mass), ...) pairs."""

    atoms: tuple[tuple[float, float], ...]
    kind = "finite_discrete"

    def __post_init__(self):
        atoms = tuple(sorted(
            (checks.number(p, "atom points"), checks.nonnegative(m, "atom masses"))
            for p, m in self.atoms
        ))
        if not atoms:
            raise InvalidParameterError("finite_discrete needs at least one atom")
        total = math.fsum(m for _, m in atoms)
        if abs(total - 1.0) > _ATOM_MASS_TOL:
            raise InvalidParameterError(
                f"atom masses must sum to 1 within {_ATOM_MASS_TOL}, got {total!r}"
            )
        points = [p for p, _ in atoms]
        if len(set(points)) != len(points):
            raise InvalidParameterError("atom points must be distinct")
        object.__setattr__(self, "atoms", atoms)

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def points(self) -> np.ndarray:
        return np.array([p for p, _ in self.atoms])

    @property
    def masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms])

    def mass(self, y):
        points = self.points
        y = np.asarray(y, dtype=float)
        idx = np.minimum(np.searchsorted(points, y), points.size - 1)
        out = np.where(points[idx] == y, self.masses[idx], 0.0)
        return out if out.shape else float(out)

    def log_density(self, y):
        raise IncompatibleLawsError("discrete law has no Lebesgue density")

    def tails(self, y):
        # the upper tail sums the masses above y, so it keeps atoms far
        # below the rounding of 1 - cdf
        masses = self.masses
        below = np.concatenate(([0.0], np.cumsum(masses)))
        above = np.concatenate((np.cumsum(masses[::-1])[::-1], [0.0]))
        y = np.asarray(y, dtype=float)
        idx = np.searchsorted(self.points, y, side="right")  # NaN sorts above every point
        nan = np.isnan(y)
        lower, upper = np.where(nan, np.nan, below[idx]), np.where(nan, np.nan, above[idx])
        return (lower, upper) if lower.shape else (float(lower), float(upper))

    def quantile(self, p: float) -> float:
        p = checks.probability(p)
        cum = np.cumsum(self.masses)
        idx = int(np.searchsorted(cum, p - _ATOM_MASS_TOL, side="left"))
        return float(self.points[min(idx, len(self.atoms) - 1)])

    def support_bounds(self, log_floor: float = -700.0):
        pts = self.points
        return float(pts[0]) - 1.0, float(pts[-1]) + 1.0

    def sample(self, n, stream):
        u = stream.random(n)
        cum = np.cumsum(self.masses)
        idx = np.searchsorted(cum, u, side="right")
        return self.points[np.minimum(idx, len(self.atoms) - 1)]


@dataclass(frozen=True)
class Mixture(Distribution):
    """Two-component mixture (1 - weight) * first + weight * second.

    It is also the testing problem of the null Q = first against this
    law, with G = second and eps = weight.
    """

    first: Distribution
    second: Distribution
    weight: float
    kind = "mixture"

    def __post_init__(self):
        checks.between(self.weight, "weight epsilon", 0, 1)

    @property
    def is_discrete(self) -> bool:
        return self.first.is_discrete and self.second.is_discrete

    @property
    def has_density(self) -> bool:
        return self.first.has_density and self.second.has_density

    def log_density(self, y):
        if not self.has_density:
            raise IncompatibleLawsError("mixture with a discrete component has no density")
        w = self.weight
        if w == 0.0:
            return self.first.log_density(y)
        if w == 1.0:
            return self.second.log_density(y)
        a = math.log1p(-w) + self.first.log_density(y)
        b = math.log(w) + self.second.log_density(y)
        with np.errstate(invalid="ignore"):  # only a NaN y is invalid here, and gives NaN
            return np.logaddexp(a, b)

    def tails(self, y):
        w = self.weight
        (lower1, upper1), (lower2, upper2) = self.first.tails(y), self.second.tails(y)
        return (1.0 - w) * lower1 + w * lower2, (1.0 - w) * upper1 + w * upper2

    def mass(self, y):
        w = self.weight
        return (1.0 - w) * self.first.mass(y) + w * self.second.mass(y)

    def support_bounds(self, log_floor: float = -700.0):
        lo1, hi1 = self.first.support_bounds(log_floor)
        lo2, hi2 = self.second.support_bounds(log_floor)
        return min(lo1, lo2), max(hi1, hi2)

    def sample(self, n, stream):
        # K ~ Binomial(n, weight) second-component draws overwrite a
        # first-component sample at K uniformly chosen positions.  Stream
        # consumption order is fixed, so output is reproducible.
        k = int(stream.binomial(n, self.weight))
        at = stream.choice(n, k, replace=False, shuffle=False)
        out = self.first.sample(n, stream)
        out[at] = self.second.sample(k, stream)
        return out


# ---------------------------------------------------------------------------
# calibration helpers
# ---------------------------------------------------------------------------


def epsilon_from_beta(n: int, beta: float) -> float:
    """Contamination fraction n**(-beta) for sample size n."""
    n = checks.integer(n, "n", 2, error=InvalidSampleSizeError)
    return float(n) ** (-checks.nonnegative(beta, "beta"))


def mu_from_r(n: int, r: float) -> float:
    """Location shift sqrt(2 * r * ln n) for signal strength r."""
    n = checks.integer(n, "n", 2, error=InvalidSampleSizeError)
    return math.sqrt(2.0 * checks.nonnegative(r, "r") * math.log(n))


# ---------------------------------------------------------------------------
# log-likelihood ratio
# ---------------------------------------------------------------------------


def log_likelihood_ratio(g: Distribution, q: Distribution, y):
    """log of the density (or mass) ratio dG/dQ at y.

    Gaussian pairs use the exact closed form
    log(q.sd / g.sd) + 0.5 ((y - q.mean) / q.sd)^2 - 0.5 ((y - g.mean) / g.sd)^2;
    in the equal-variance location case this is mu*y - mu^2/2.  Returns
    -inf where the numerator vanishes but the reference law does not.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    if isinstance(g, Gaussian) and isinstance(q, Gaussian):
        yy = np.atleast_1d(np.asarray(y, dtype=float))
        out = _half_square(yy, q)
        log_sd = math.log(q.sd / g.sd)
        if log_sd != 0.0:  # a half-square is >= +0.0, so adding +0.0 changes nothing
            out += log_sd
        out -= _half_square(yy, g)
        return float(out[0]) if scalar else out
    if g.is_discrete and q.is_discrete:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        mg, mq = g.mass(ys), q.mass(ys)
        if np.any((mq == 0) & (mg > 0)):
            raise SingularPointError("alternative has an atom off the null support")
        if np.any((mq == 0) & (mg == 0)):
            raise UndefinedPointError("neither law carries mass at the point")
        with np.errstate(divide="ignore"):
            out = np.log(mg) - np.log(mq)
        return float(out[0]) if scalar else out
    if g.is_discrete != q.is_discrete:
        raise SingularPointError(
            "atomic law against an atomless one: density ratio does not exist"
        )
    lg = np.asarray(g.log_density(y), dtype=float)
    lq = np.asarray(q.log_density(y), dtype=float)
    sing = np.isneginf(lq) & ~np.isneginf(lg)
    if np.any(sing):
        raise SingularPointError("reference density vanishes where g is positive")
    undef = np.isneginf(lq) & np.isneginf(lg)
    if np.any(undef):
        raise UndefinedPointError("both densities vanish at the point")
    out = lg - lq
    return float(out) if scalar else out


def _half_square(y: np.ndarray, law: Gaussian) -> np.ndarray:
    """0.5 * ((y - law.mean) / law.sd) ** 2 in one new array, bit for bit.

    It skips only steps that cannot change the result: subtracting a zero
    mean and dividing by a unit sd change at most the sign of a zero,
    which the square drops.
    """
    z = y - law.mean if law.mean != 0.0 else y
    if law.sd != 1.0:
        z = np.divide(z, law.sd, out=None if z is y else z)
    z = np.square(z, out=None if z is y else z)
    z *= 0.5
    return z


# ---------------------------------------------------------------------------
# JSON specifications: a kind plus its dataclass fields
# ---------------------------------------------------------------------------

_KINDS = {k.kind: k for k in (Gaussian, GenGaussian, Dilated, Shifted, FiniteDiscrete, Mixture)}


def to_spec(d: Distribution) -> dict:
    """Plain-dict form of a distribution, suitable for JSON transport."""
    if _KINDS.get(getattr(d, "kind", None)) is not type(d):
        raise InvalidParameterError(f"unknown distribution {d!r}")
    values = {f.name: _CODECS[f.type][0](getattr(d, f.name)) for f in fields(d)}
    return {"kind": d.kind, **values}


def from_spec(spec: dict) -> Distribution:
    """Inverse of :func:`to_spec`; a malformed spec raises InvalidParameterError."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidParameterError(f"{spec!r} is not a spec of kind {' or '.join(_KINDS)}")
    declared = {f.name: f for f in fields(_KINDS[kind])}
    unknown = sorted(set(spec) - set(declared) - {"kind"})
    if unknown:
        raise InvalidParameterError(f"{kind} spec has unknown field {', '.join(unknown)}")
    args = {}
    for name, f in declared.items():
        if name in spec:
            try:
                args[name] = _CODECS[f.type][1](spec[name], name)
            except (TypeError, ValueError, InvalidParameterError) as exc:
                raise InvalidParameterError(
                    f"{kind} field {name!r} cannot be read from {spec[name]!r}: {exc}"
                ) from None
        elif f.default is MISSING:
            raise InvalidParameterError(f"{kind} spec needs field {name!r}")
    return _KINDS[kind](**args)


# per field annotation, as written: (to JSON, from JSON given the field's name)
_CODECS = {
    "float": (lambda x: x, checks.number),
    "Distribution": (to_spec, lambda spec, name: from_spec(spec)),
    "tuple[tuple[float, float], ...]": (
        lambda atoms: [list(atom) for atom in atoms],
        lambda atoms, name: tuple(
            (checks.number(p, "atom points"), checks.number(m, "atom masses")) for p, m in atoms
        ),
    ),
}
