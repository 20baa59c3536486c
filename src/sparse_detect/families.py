"""The mixture families, each defined once by a row of ``FAMILIES``.

A row holds the family's parameter schema (the swept signal parameter
and the required shape parameters), its ``alpha_family`` exponent name,
its closed-form rule (``boundary_closed_form`` under the row's name)
and its builder: shape parameters -> (fixed null law, function
(r, n) -> alternative), the signal rescaled with n.  Families without a
builder have boundaries but cannot be simulated yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import boundary, checks
from .dists import Distribution, Gaussian, GenGaussian, Shifted, from_spec, mu_from_r
from .errors import InvalidParameterError

__all__ = ["Family", "FAMILIES", "SIMULATABLE", "build"]


@dataclass(frozen=True)
class Family:
    """One mixture family; the module docstring describes the fields."""

    name: str
    swept: str = "r"
    shape: tuple[str, ...] = ()
    exponent: Optional[str] = None  # None: no exponent function, no boundary
    builder: Optional[Callable] = None

    def alpha(self, value: float, params: dict) -> boundary.ExponentFunction:
        """Exponent function at signal value ``value``."""
        return boundary.alpha_family(self.exponent, **{self.swept: value, **self.checked(params)})

    def beta_star(self, value: float, params: dict) -> float:
        """Closed-form boundary at signal value ``value`` >= 0; nan without one."""
        params = self.checked(params)
        if self.exponent is None:
            return math.nan
        value = checks.nonnegative(value, self.swept)
        return boundary.boundary_closed_form(self.name, **{self.swept: value, **params})

    def checked(self, params: dict) -> dict:
        """``params`` if it is a dict of every shape parameter and no other key; else
        InvalidParameterError naming a missing, then an undeclared, parameter."""
        if not isinstance(params, dict):
            raise InvalidParameterError(f"family parameters must be a dict, got {params!r}")
        missing = [name for name in self.shape if params.get(name) is None]
        if missing:
            raise InvalidParameterError(
                f"family {self.name!r} requires parameter {', '.join(missing)}"
            )
        extra = [str(key) for key in params if key not in self.shape]
        if extra:
            raise InvalidParameterError(
                f"family {self.name!r} does not take parameter {', '.join(extra)}"
            )
        return params


def _idj(params):
    return Gaussian(), lambda r, n: Gaussian(mu_from_r(n, r), 1.0)


def _hetero(params):
    sd = math.sqrt(checks.positive(params["sigma2"], "sigma2"))
    return Gaussian(), lambda r, n: Gaussian(mu_from_r(n, r), sd)


def _gglocation(params):
    tau = checks.positive(params["tau"], "tau")
    null = GenGaussian(tau)

    def alt(r, n):
        r = checks.nonnegative(r, "r")
        return Shifted(null, (r * math.log(n)) ** (1.0 / tau))

    return null, alt


def _custom(params):
    # a fixed pair given as JSON specs; r is unused and the alternative
    # does not rescale with n
    null, alt = from_spec(params["null"]), from_spec(params["alt"])
    return null, lambda r, n: alt


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("idj", exponent="idj", builder=_idj),
        Family("hetero", shape=("sigma2",), exponent="hetero", builder=_hetero),
        Family("dilate", swept="linf", exponent="dilate"),
        Family("ggconv", shape=("tau",), exponent="gen_gaussian_conv"),
        Family("gglocation", shape=("tau",), exponent="gen_gaussian_location", builder=_gglocation),
        Family("custom", shape=("null", "alt"), builder=_custom),
    )
}
SIMULATABLE = tuple(name for name, family in FAMILIES.items() if family.builder)


def build(name: str, params: dict) -> tuple[Distribution, Callable]:
    """The family's null law and its (r, n) -> alternative function.

    Raises InvalidParameterError when the family cannot be simulated or
    ``params`` is not its shape parameters (see :meth:`Family.checked`),
    or one of them is out of range.
    """
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None or family.builder is None:
        raise InvalidParameterError(
            f"family {name!r} is not simulatable; choose from {SIMULATABLE}"
        )
    return family.builder(family.checked(params))
