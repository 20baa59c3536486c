"""Probability distributions for sparse mixture testing.

Concrete families: Gaussian, generalized Gaussian (Subbotin, density
proportional to exp(-|x|^tau)), scale dilations, location shifts,
finite discrete laws, and two-component mixtures.  All values are
immutable; sampling is driven by externally supplied generator streams
(see :mod:`sparse_detect.rng`) so identical (seed, path) inputs give
bit-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaincc, gammaincinv, gammaln, ndtr, ndtri

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
    "SparseMixture",
    "epsilon_from_beta",
    "mu_from_r",
    "log_likelihood_ratio",
    "sample",
    "to_spec",
    "from_spec",
    "dumps",
    "loads",
]

_ATOM_MASS_TOL = 1e-12
_QUANTILE_CDF_TOL = 1e-12


class Distribution:
    """Base class; concrete kinds implement densities, CDFs and sampling."""

    kind: str = "abstract"

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return False

    @property
    def has_density(self) -> bool:
        return not self.is_discrete

    def log_density(self, y):
        raise NotImplementedError

    def cdf(self, y):
        raise NotImplementedError

    def survival(self, y):
        """Upper-tail probability; override where 1 - cdf would cancel."""
        return 1.0 - np.asarray(self.cdf(y), dtype=float)

    def mass(self, y: float) -> float:
        """Point mass at y (zero for atomless laws)."""
        return 0.0

    def support_bounds(self, log_floor: float = -700.0) -> tuple[float, float]:
        """Interval outside which the log density stays below log_floor."""
        raise NotImplementedError

    # -- quantiles ---------------------------------------------------------

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{y : F(y) >= p} via monotone bisection."""
        _check_probability(p)
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
        if not (self.sd > 0):
            raise InvalidParameterError(f"sd must be > 0, got {self.sd}")

    def log_density(self, y):
        z = (np.asarray(y, dtype=float) - self.mean) / self.sd
        return -0.5 * z * z - math.log(self.sd) - 0.5 * math.log(2 * math.pi)

    def cdf(self, y):
        return ndtr((np.asarray(y, dtype=float) - self.mean) / self.sd)

    def survival(self, y):
        return ndtr(-(np.asarray(y, dtype=float) - self.mean) / self.sd)

    def quantile(self, p: float) -> float:
        _check_probability(p)
        return self.mean + self.sd * float(ndtri(p))

    def support_bounds(self, log_floor: float = -700.0) -> tuple[float, float]:
        half = self.sd * math.sqrt(2 * max(1.0, -log_floor))
        return self.mean - half, self.mean + half

    def sample(self, n, stream):
        return self.mean + self.sd * stream.standard_normal(n)


@dataclass(frozen=True)
class GenGaussian(Distribution):
    """Symmetric law with density tau/(2*Gamma(1/tau)) * exp(-|x|^tau).

    tau=1 is the standard Laplace law, tau=2 a normal with variance 1/2.
    """

    tau: float
    kind = "gen_gaussian"

    def __post_init__(self):
        if not (self.tau > 0):
            raise InvalidParameterError(f"tau must be > 0, got {self.tau}")

    @property
    def _log_norm(self) -> float:
        return math.log(self.tau) - math.log(2.0) - gammaln(1.0 / self.tau)

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self._log_norm - np.abs(y) ** self.tau

    def cdf(self, y):
        # each tail is Q(1/tau, |y|^tau) / 2, from gammaincc so it stays exact
        # down to underflow instead of cancelling in 1 - gammainc
        y = np.asarray(y, dtype=float)
        half = 0.5 * gammaincc(1.0 / self.tau, np.abs(y) ** self.tau)
        out = np.where(y < 0, half, 1.0 - half)
        return out if out.shape else float(out)

    def survival(self, y):
        return self.cdf(-np.asarray(y, dtype=float))

    def quantile(self, p: float) -> float:
        _check_probability(p)
        q = 2.0 * p - 1.0
        mag = float(gammaincinv(1.0 / self.tau, abs(q))) ** (1.0 / self.tau)
        return math.copysign(mag, q) if q != 0 else 0.0

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
        if not (self.scale > 0):
            raise InvalidParameterError(f"scale must be > 0, got {self.scale}")

    @property
    def is_discrete(self) -> bool:
        return self.base.is_discrete

    def log_density(self, y):
        y = np.asarray(y, dtype=float)
        return self.base.log_density(y / self.scale) - math.log(self.scale)

    def cdf(self, y):
        return self.base.cdf(np.asarray(y, dtype=float) / self.scale)

    def survival(self, y):
        return self.base.survival(np.asarray(y, dtype=float) / self.scale)

    def mass(self, y):
        return self.base.mass(y / self.scale)

    def quantile(self, p: float) -> float:
        return self.scale * self.base.quantile(p)

    def support_bounds(self, log_floor: float = -700.0):
        lo, hi = self.base.support_bounds(log_floor)
        return self.scale * lo, self.scale * hi

    def sample(self, n, stream):
        return self.scale * self.base.sample(n, stream)


@dataclass(frozen=True)
class Shifted(Distribution):
    """Law of X + shift where X follows the base distribution."""

    base: Distribution
    shift: float
    kind = "shifted"

    @property
    def is_discrete(self) -> bool:
        return self.base.is_discrete

    def log_density(self, y):
        return self.base.log_density(np.asarray(y, dtype=float) - self.shift)

    def cdf(self, y):
        return self.base.cdf(np.asarray(y, dtype=float) - self.shift)

    def survival(self, y):
        return self.base.survival(np.asarray(y, dtype=float) - self.shift)

    def mass(self, y):
        return self.base.mass(y - self.shift)

    def quantile(self, p: float) -> float:
        return self.shift + self.base.quantile(p)

    def support_bounds(self, log_floor: float = -700.0):
        lo, hi = self.base.support_bounds(log_floor)
        return lo + self.shift, hi + self.shift

    def sample(self, n, stream):
        return self.shift + self.base.sample(n, stream)


@dataclass(frozen=True)
class FiniteDiscrete(Distribution):
    """Finitely supported law given as ((point, mass), ...) pairs."""

    atoms: tuple[tuple[float, float], ...]
    kind = "finite_discrete"

    def __post_init__(self):
        atoms = tuple(sorted((float(p), float(m)) for p, m in self.atoms))
        if not atoms:
            raise InvalidParameterError("finite_discrete needs at least one atom")
        if any(m < 0 for _, m in atoms):
            raise InvalidParameterError("atom masses must be >= 0")
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

    def mass(self, y: float) -> float:
        for p, m in self.atoms:
            if p == y:
                return m
        return 0.0

    def log_density(self, y):
        raise IncompatibleLawsError("discrete law has no Lebesgue density")

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        cum = np.cumsum(self.masses)
        idx = np.searchsorted(self.points, y, side="right")
        out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return out if out.shape else float(out)

    def quantile(self, p: float) -> float:
        _check_probability(p)
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
    """Two-component mixture (1 - weight) * first + weight * second."""

    first: Distribution
    second: Distribution
    weight: float
    kind = "mixture"

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise InvalidParameterError(f"weight must lie in [0, 1], got {self.weight}")

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
        return np.logaddexp(a, b)

    def cdf(self, y):
        w = self.weight
        return (1.0 - w) * self.first.cdf(y) + w * self.second.cdf(y)

    def survival(self, y):
        w = self.weight
        return (1.0 - w) * self.first.survival(y) + w * self.second.survival(y)

    def mass(self, y):
        w = self.weight
        return (1.0 - w) * self.first.mass(y) + w * self.second.mass(y)

    def support_bounds(self, log_floor: float = -700.0):
        lo1, hi1 = self.first.support_bounds(log_floor)
        lo2, hi2 = self.second.support_bounds(log_floor)
        return min(lo1, lo2), max(hi1, hi2)

    def sample(self, n, stream):
        # Bernoulli(weight) component label first, then one draw per label.
        # Stream consumption order is fixed, so output is reproducible.
        labels = stream.random(n) < self.weight
        n_second = int(labels.sum())
        out = np.empty(n, dtype=float)
        out[~labels] = self.first.sample(n - n_second, stream)
        out[labels] = self.second.sample(n_second, stream)
        return out


@dataclass(frozen=True)
class SparseMixture:
    """Testing problem: null law Q against (1 - eps) Q + eps G."""

    null_dist: Distribution
    alt_dist: Distribution
    epsilon: float

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise InvalidParameterError(
                f"epsilon must lie in [0, 1], got {self.epsilon}"
            )

    def mixed(self) -> Mixture:
        """The mixed law as a first-class distribution."""
        return Mixture(self.null_dist, self.alt_dist, self.epsilon)

    def sample(self, n: int, stream: np.random.Generator) -> np.ndarray:
        return self.mixed().sample(n, stream)


# ---------------------------------------------------------------------------
# calibration helpers
# ---------------------------------------------------------------------------


def epsilon_from_beta(n: int, beta: float) -> float:
    """Contamination fraction n**(-beta) for sample size n."""
    if n < 2:
        raise InvalidSampleSizeError(f"n must be >= 2, got {n}")
    if beta < 0:
        raise InvalidParameterError(f"beta must be >= 0, got {beta}")
    return float(n) ** (-beta)


def mu_from_r(n: int, r: float) -> float:
    """Location shift sqrt(2 * r * ln n) for signal strength r."""
    if n < 2:
        raise InvalidSampleSizeError(f"n must be >= 2, got {n}")
    if r < 0:
        raise InvalidParameterError(f"r must be >= 0, got {r}")
    return math.sqrt(2.0 * r * math.log(n))


# ---------------------------------------------------------------------------
# log-likelihood ratio
# ---------------------------------------------------------------------------


def log_likelihood_ratio(g: Distribution, q: Distribution, y):
    """log of the density (or mass) ratio dG/dQ at y.

    Gaussian pairs use the exact closed form; in the equal-variance
    location case this is mu*y - mu^2/2.  Returns -inf where the
    numerator vanishes but the reference law does not.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    if isinstance(g, Gaussian) and isinstance(q, Gaussian):
        yy = np.asarray(y, dtype=float)
        out = (
            math.log(q.sd / g.sd)
            + 0.5 * ((yy - q.mean) / q.sd) ** 2
            - 0.5 * ((yy - g.mean) / g.sd) ** 2
        )
        return float(out) if scalar else out
    if g.is_discrete and q.is_discrete:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        mg = np.array([g.mass(v) for v in ys])
        mq = np.array([q.mass(v) for v in ys])
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


def sample(
    d: Union[Distribution, SparseMixture], n: int, stream: np.random.Generator
) -> np.ndarray:
    """Draw n i.i.d. values using the supplied stream."""
    if n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=float)
    return d.sample(n, stream)


def _check_probability(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise InvalidProbabilityError(f"p must lie in (0, 1), got {p!r}")


# ---------------------------------------------------------------------------
# JSON specifications
# ---------------------------------------------------------------------------


def to_spec(d: Union[Distribution, SparseMixture]) -> dict:
    """Plain-dict form of a distribution, suitable for JSON transport."""
    if isinstance(d, SparseMixture):
        return {
            "kind": "sparse_mixture",
            "null": to_spec(d.null_dist),
            "alt": to_spec(d.alt_dist),
            "epsilon": d.epsilon,
        }
    if isinstance(d, Gaussian):
        return {"kind": "gaussian", "mean": d.mean, "sd": d.sd}
    if isinstance(d, GenGaussian):
        return {"kind": "gen_gaussian", "tau": d.tau}
    if isinstance(d, Dilated):
        return {"kind": "dilated", "scale": d.scale, "base": to_spec(d.base)}
    if isinstance(d, Shifted):
        return {"kind": "shifted", "shift": d.shift, "base": to_spec(d.base)}
    if isinstance(d, FiniteDiscrete):
        return {"kind": "finite_discrete", "atoms": [[p, m] for p, m in d.atoms]}
    if isinstance(d, Mixture):
        return {
            "kind": "mixture",
            "first": to_spec(d.first),
            "second": to_spec(d.second),
            "weight": d.weight,
        }
    raise InvalidParameterError(f"unknown distribution {d!r}")


def from_spec(spec: dict) -> Union[Distribution, SparseMixture]:
    """Inverse of :func:`to_spec`."""
    kind = spec.get("kind")
    if kind == "gaussian":
        return Gaussian(float(spec.get("mean", 0.0)), float(spec.get("sd", 1.0)))
    if kind == "gen_gaussian":
        return GenGaussian(float(spec["tau"]))
    if kind == "dilated":
        return Dilated(from_spec(spec["base"]), float(spec["scale"]))
    if kind == "shifted":
        return Shifted(from_spec(spec["base"]), float(spec["shift"]))
    if kind == "finite_discrete":
        return FiniteDiscrete(tuple((float(p), float(m)) for p, m in spec["atoms"]))
    if kind == "mixture":
        return Mixture(
            from_spec(spec["first"]), from_spec(spec["second"]), float(spec["weight"])
        )
    if kind == "sparse_mixture":
        return SparseMixture(
            from_spec(spec["null"]), from_spec(spec["alt"]), float(spec["epsilon"])
        )
    raise InvalidParameterError(f"unknown distribution kind {kind!r}")


def dumps(d: Union[Distribution, SparseMixture]) -> str:
    return json.dumps(to_spec(d))


def loads(text: str) -> Union[Distribution, SparseMixture]:
    return from_spec(json.loads(text))
