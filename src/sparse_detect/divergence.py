"""Total-variation, Hellinger and mixture-divergence computations.

Discrete pairs are evaluated exactly over the union of their atoms.
Continuous pairs go through adaptive Gauss-Kronrod quadrature on a
domain truncated where both densities fall below 1e-300; the reported
quadrature error must stay under 1e-6.  Mixtures of a density part and
an atomic part are split measure-theoretically: densities and atoms
never interact, so both contributions are summed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .dists import Distribution, FiniteDiscrete, Mixture, SparseMixture
from .errors import (
    IncompatibleLawsError,
    InvalidDistanceError,
    InvalidParameterError,
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
# structural split: (density weight, density callable, atom table)
# ---------------------------------------------------------------------------


def _split(d: Distribution):
    """Decompose into an absolutely continuous part and an atom table.

    Returns (ac_weight, pdf, atoms) where pdf integrates to ac_weight
    and atoms maps point -> mass with total 1 - ac_weight.
    """
    if isinstance(d, FiniteDiscrete):
        return 0.0, None, {p: m for p, m in d.atoms}
    if isinstance(d, Mixture):
        w1, f1, a1 = _split(d.first)
        w2, f2, a2 = _split(d.second)
        w = d.weight
        atoms = {}
        for pt, m in a1.items():
            atoms[pt] = atoms.get(pt, 0.0) + (1 - w) * m
        for pt, m in a2.items():
            atoms[pt] = atoms.get(pt, 0.0) + w * m
        ac_weight = (1 - w) * w1 + w * w2

        def pdf(y, _f1=f1, _f2=f2, _w=w, _w1=w1, _w2=w2):
            out = 0.0
            if _f1 is not None and _w < 1:
                out += (1 - _w) * _f1(y)
            if _f2 is not None and _w > 0:
                out += _w * _f2(y)
            return out

        return ac_weight, (pdf if ac_weight > 0 else None), atoms
    if d.is_discrete:
        # dilated/shifted discrete laws: enumerate via their base atoms
        raise IncompatibleLawsError(
            f"discrete law of kind {d.kind!r} must be given as finite_discrete"
        )

    def pdf(y, _d=d):
        return float(np.exp(_d.log_density(y)))

    return 1.0, pdf, {}


def _common_atoms(a1: dict, a2: dict) -> list:
    return sorted(set(a1) | set(a2))


def _domain(p: Distribution, q: Distribution) -> tuple[float, float, list]:
    lo1, hi1 = p.support_bounds(_DENSITY_LOG_FLOOR)
    lo2, hi2 = q.support_bounds(_DENSITY_LOG_FLOOR)
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    interior = [x for x in (lo1, hi1, lo2, hi2) if lo < x < hi]
    return lo, hi, sorted(set(interior))


def _quad(fn, lo, hi, points) -> float:
    val, err = quad(fn, lo, hi, points=points or None, limit=200)
    if err > _QUAD_TOL:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds {_QUAD_TOL:.0e}"
        )
    return val


def _check_comparable(p: Distribution, q: Distribution) -> None:
    if p.is_discrete != q.is_discrete:
        raise IncompatibleLawsError(
            "cannot compare a purely discrete law with a purely continuous one"
        )


def total_variation(p: Distribution, q: Distribution) -> float:
    """sup_A |P(A) - Q(A)| as half the L1 distance between the laws."""
    _check_comparable(p, q)
    wp, fp, ap = _split(p)
    wq, fq, aq = _split(q)
    atom_part = sum(abs(ap.get(x, 0.0) - aq.get(x, 0.0)) for x in _common_atoms(ap, aq))
    density_part = 0.0
    if fp is not None or fq is not None:
        lo, hi, pts = _domain(p, q)
        gp = fp or (lambda y: 0.0)
        gq = fq or (lambda y: 0.0)
        density_part = _quad(lambda y: abs(gp(y) - gq(y)), lo, hi, pts)
    return min(1.0, 0.5 * (atom_part + density_part))


def error_sum(p: Distribution, q: Distribution) -> float:
    """Optimal sum of Type-I and Type-II errors, 1 - TV(P, Q)."""
    return 1.0 - total_variation(p, q)


def hellinger_sq(p: Distribution, q: Distribution) -> float:
    """Squared Hellinger distance, the integral of (sqrt dP - sqrt dQ)^2."""
    _check_comparable(p, q)
    wp, fp, ap = _split(p)
    wq, fq, aq = _split(q)
    # 2 - 2 * affinity; atoms and densities contribute independently
    affinity = sum(
        math.sqrt(ap.get(x, 0.0) * aq.get(x, 0.0)) for x in _common_atoms(ap, aq)
    )
    if fp is not None and fq is not None:
        lo, hi, pts = _domain(p, q)
        affinity += _quad(lambda y: math.sqrt(fp(y) * fq(y)), lo, hi, pts)
    return min(2.0, max(0.0, 2.0 - 2.0 * affinity))


def hellinger_tensorize(h2: float, n: int) -> float:
    """Squared Hellinger distance between n-fold product laws."""
    _check_h2(h2)
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    return 2.0 - 2.0 * (1.0 - h2 / 2.0) ** n


def tv_hellinger_bounds(h2: float) -> tuple[float, float]:
    """Sandwich h2/2 <= TV <= sqrt(h2) * sqrt(1 - h2/4), clamped to [0, 1]."""
    _check_h2(h2)
    lower = min(1.0, h2 / 2.0)
    upper = min(1.0, math.sqrt(h2 * (1.0 - h2 / 4.0)))
    return lower, upper


def mixture_hellinger_singular(h2_pq0: float, eps: float) -> float:
    """H^2 between P and (1-eps) Q0 + eps Q1 when Q1 is singular w.r.t. P.

    Exact identity 2(1 - sqrt(1-eps)) + sqrt(1-eps) * H^2(P, Q0).
    """
    _check_h2(h2_pq0)
    if not (0.0 <= eps <= 1.0):
        raise InvalidParameterError(f"eps must lie in [0, 1], got {eps}")
    root = math.sqrt(1.0 - eps)
    return 2.0 * (1.0 - root) + root * h2_pq0


def _check_h2(h2: float) -> None:
    if not (0.0 <= h2 <= 2.0):
        raise InvalidDistanceError(f"squared Hellinger distance must lie in [0, 2], got {h2}")


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
    q_prime: SparseMixture
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
    if not (0.0 <= kappa <= 1.0):
        raise InvalidParameterError(f"kappa must lie in [0, 1], got {kappa}")
    if not (0.0 <= eps <= 1.0):
        raise InvalidParameterError(f"eps must lie in [0, 1], got {eps}")
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if kappa > 0:
        _check_singular(null_dist, singular_part)
    if eps * kappa >= 1.0:
        eps_prime = 0.0
    else:
        eps_prime = eps * (1.0 - kappa) / (1.0 - eps * kappa)
    q_prime = SparseMixture(null_dist, ac_part, eps_prime)
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
