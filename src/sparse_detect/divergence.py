"""Total-variation, Hellinger and mixture-divergence computations.

Every law is split once into a Lebesgue density and an atom table, and
total variation and the Hellinger affinity are one integral of a pointwise
term: summed exactly over the union of the atoms, plus one adaptive
Gauss-Kronrod quadrature of the densities on a domain truncated where both
fall below 1e-300.  Densities and atoms never interact.  The reported
quadrature error must stay under 1e-6, and a quadrature that scipy reports
as failed raises QuadratureError with scipy's reason, never a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .dists import Distribution, FiniteDiscrete, Mixture
from .errors import (
    IncompatibleLawsError,
    InvalidDistanceError,
    InvalidSampleSizeError,
    NotSingularError,
    QuadratureError,
)

__all__ = [
    "total_variation",
    "error_sum",
    "hellinger_sq",
    "hellinger_tensorize",
    "tv_hellinger_bounds",
    "mixture_hellinger_singular",
    "DecomposedAlternative",
    "decompose_alternative",
]

_QUAD_TOL = 1e-6
_DENSITY_LOG_FLOOR = math.log(1e-300)


# ---------------------------------------------------------------------------
# Lebesgue split: (density or None, atom table), and one integral over both
# ---------------------------------------------------------------------------


def _split(d: Distribution):
    """Decompose into a Lebesgue density and an atom table.

    Returns (pdf, atoms): pdf is None when the law has no absolutely
    continuous part, and atoms maps point -> mass.
    """
    if isinstance(d, FiniteDiscrete):
        return None, dict(d.atoms)
    if isinstance(d, Mixture):
        w = d.weight
        (f1, a1), (f2, a2) = _split(d.first), _split(d.second)
        atoms = {x: (1 - w) * a1.get(x, 0.0) + w * a2.get(x, 0.0) for x in a1.keys() | a2.keys()}
        parts = [(c, f) for c, f in ((1 - w, f1), (w, f2)) if f is not None and c > 0]
        if not parts:
            return None, atoms
        return (lambda y: sum(c * f(y) for c, f in parts)), atoms
    if d.is_discrete:
        # dilated/shifted discrete laws: enumerate via their base atoms
        raise IncompatibleLawsError(
            f"discrete law of kind {d.kind!r} must be given as finite_discrete"
        )
    return (lambda y: float(np.exp(d.log_density(y)))), {}


def _no_density(y) -> float:
    return 0.0


def _domain(p: Distribution, q: Distribution) -> tuple[float, float, list]:
    lo1, hi1 = p.support_bounds(_DENSITY_LOG_FLOOR)
    lo2, hi2 = q.support_bounds(_DENSITY_LOG_FLOOR)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    interior = [x for x in (lo1, hi1, lo2, hi2) if lo < x < hi]
    return lo, hi, sorted(set(interior))


def _quad(fn, lo, hi, points) -> float:
    # scipy.integrate loads scipy.optimize, sparse and linalg with it, so
    # only a quadrature pays that import; closed forms and sweeps never do.
    from scipy.integrate import quad

    # full_output returns scipy's reason for a failed integration instead
    # of issuing it as an IntegrationWarning
    val, err, _, *reason = quad(fn, lo, hi, points=points or None, limit=200, full_output=1)
    if reason:
        raise QuadratureError(f"quadrature failed: {' '.join(reason[0].split())}")
    if err > _QUAD_TOL:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds {_QUAD_TOL:.0e}"
        )
    return val


def _integral(p: Distribution, q: Distribution, term) -> float:
    """Sum of term(P{x}, Q{x}) over the atoms plus the integral of term(p, q)."""
    if p.is_discrete != q.is_discrete:
        raise IncompatibleLawsError(
            "cannot compare a purely discrete law with a purely continuous one"
        )
    fp, ap = _split(p)
    fq, aq = _split(q)
    # atoms and densities contribute independently
    total = sum(term(ap.get(x, 0.0), aq.get(x, 0.0)) for x in sorted(ap.keys() | aq.keys()))
    if fp is None and fq is None:
        return total
    fp, fq = fp or _no_density, fq or _no_density
    return total + _quad(lambda y: term(fp(y), fq(y)), *_domain(p, q))


def total_variation(p: Distribution, q: Distribution) -> float:
    """sup_A |P(A) - Q(A)| as half the L1 distance between the laws."""
    return min(1.0, 0.5 * _integral(p, q, lambda a, b: abs(a - b)))


def error_sum(p: Distribution, q: Distribution) -> float:
    """Optimal sum of Type-I and Type-II errors, 1 - TV(P, Q)."""
    return 1.0 - total_variation(p, q)


def hellinger_sq(p: Distribution, q: Distribution) -> float:
    """Squared Hellinger distance, the integral of (sqrt dP - sqrt dQ)^2."""
    # 2 - 2 * affinity; a side without a density integrates to exactly 0.0
    affinity = _integral(p, q, lambda a, b: math.sqrt(a * b))
    return min(2.0, max(0.0, 2.0 - 2.0 * affinity))


def hellinger_tensorize(h2: float, n: int) -> float:
    """Squared Hellinger distance between n-fold product laws."""
    h2 = checks.between(h2, "squared Hellinger distance", 0, 2, error=InvalidDistanceError)
    n = checks.integer(n, "n", 1, error=InvalidSampleSizeError)
    if h2 == 2.0:
        return 2.0  # math.log1p refuses -1
    # 2 - 2 (1 - h2/2)^n without cancelling at small h2; +0.0 at h2 = 0
    return -2.0 * math.expm1(n * math.log1p(-h2 / 2.0))


def tv_hellinger_bounds(h2: float) -> tuple[float, float]:
    """Sandwich h2/2 <= TV <= sqrt(h2) * sqrt(1 - h2/4), clamped to [0, 1]."""
    h2 = checks.between(h2, "squared Hellinger distance", 0, 2, error=InvalidDistanceError)
    lower = min(1.0, h2 / 2.0)
    upper = min(1.0, math.sqrt(h2 * (1.0 - h2 / 4.0)))
    return lower, upper


def mixture_hellinger_singular(h2_pq0: float, eps: float) -> float:
    """H^2 between P and (1-eps) Q0 + eps Q1 when Q1 is singular w.r.t. P.

    Exact identity 2(1 - sqrt(1-eps)) + sqrt(1-eps) * H^2(P, Q0), with
    1 - sqrt(1-eps) written as eps / (1 + sqrt(1-eps)) so small eps keeps
    its relative accuracy.
    """
    h2_pq0 = checks.between(h2_pq0, "squared Hellinger distance", 0, 2, error=InvalidDistanceError)
    eps = checks.between(eps, "eps", 0, 1)
    root = math.sqrt(1.0 - eps)
    return 2.0 * eps / (1.0 + root) + root * h2_pq0


# ---------------------------------------------------------------------------
# declared decomposition of the alternative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecomposedAlternative:
    """Alternative split as (1 - kappa) * ac_part + kappa * singular_part.

    epsilon_prime and q_prime restate the testing problem with the
    singular mass removed: the contaminated null absorbs the absolutely
    continuous part at the reduced rate eps * (1 - kappa) / (1 - eps * kappa).
    """

    kappa: float
    ac_part: Distribution
    singular_part: Distribution | None
    epsilon_prime: float
    q_prime: Mixture
    case: str


def decompose_alternative(
    null_dist: Distribution,
    kappa: float,
    ac_part: Distribution,
    singular_part: Distribution | None,
    eps: float,
    n: int,
) -> DecomposedAlternative:
    """Bookkeeping for a declared null/singular split of the alternative.

    The caller supplies the split; no measure-theoretic decomposition of
    arbitrary laws is attempted.  The case label records whether the
    singular mass eps * kappa is at most 1/n ("case-1", detectability
    driven by the absolutely continuous part) or larger ("case-2",
    trivially detectable through the singular support).
    """
    checks.between(kappa, "kappa", 0, 1)
    checks.between(eps, "eps", 0, 1)
    checks.integer(n, "n", 2, error=InvalidSampleSizeError)
    if kappa > 0:
        _check_singular(null_dist, singular_part)
    if eps * kappa >= 1.0:
        eps_prime = 0.0
    else:
        eps_prime = eps * (1.0 - kappa) / (1.0 - eps * kappa)
    q_prime = Mixture(null_dist, ac_part, eps_prime)
    if eps * kappa <= 1.0 / n:
        case = "case-1: singular mass <= 1/n, detectability set by the AC part"
    else:
        case = "case-2: singular mass > 1/n, trivially detectable via singular support"
    return DecomposedAlternative(
        kappa=kappa,
        ac_part=ac_part,
        singular_part=singular_part,
        epsilon_prime=eps_prime,
        q_prime=q_prime,
        case=case,
    )


def _check_singular(null_dist: Distribution, nu: Distribution | None) -> None:
    if nu is None:
        raise NotSingularError("kappa > 0 requires an explicit singular part")
    if not isinstance(nu, FiniteDiscrete):
        raise NotSingularError(
            "singular part must be finite_discrete so singularity is checkable"
        )
    for point, mass in nu.atoms:
        if mass > 0 and null_dist.mass(point) > 0:
            raise NotSingularError(
                f"singular part puts mass on null atom at {point!r}"
            )
