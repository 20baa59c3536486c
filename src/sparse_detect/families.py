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

from . import boundary
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
    no_signal: Optional[float] = None  # boundary at swept <= 0, outside the closed form
    builder: Optional[Callable] = None

    def alpha(self, value: float, params: dict) -> boundary.ExponentFunction:
        """Exponent function at signal value ``value``."""
        return boundary.alpha_family(self.exponent, **self._params(value, params))

    def beta_star(self, value: float, params: dict) -> float:
        """Closed-form boundary at signal value ``value``; nan without one."""
        if self.exponent is None:
            return math.nan
        if self.no_signal is not None and not value > 0:
            return self.no_signal
        return boundary.boundary_closed_form(self.name, **self._params(value, params))

    def _params(self, value: float, params: dict) -> dict:
        return {self.swept: value, **{name: params[name] for name in self.shape}}


def _idj(params):
    return Gaussian(), lambda r, n: Gaussian(mu_from_r(n, r), 1.0)


def _hetero(params):
    sd = math.sqrt(boundary._require_positive(params, "sigma2"))
    return Gaussian(), lambda r, n: Gaussian(mu_from_r(n, r), sd)


def _gglocation(params):
    tau = boundary._require_positive(params, "tau")
    null = GenGaussian(tau)

    def alt(r, n):
        r = boundary._require_nonnegative({"r": r}, "r")
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
        Family("idj", exponent="idj", no_signal=0.5, builder=_idj),
        Family("hetero", shape=("sigma2",), exponent="hetero", builder=_hetero),
        Family("dilate", swept="linf", exponent="dilate"),
        Family("ggconv", shape=("tau",), exponent="gen_gaussian_conv"),
        Family(
            "gglocation", shape=("tau",), exponent="gen_gaussian_location",
            no_signal=0.5, builder=_gglocation,
        ),
        Family("custom", shape=("null", "alt"), builder=_custom),
    )
}
SIMULATABLE = tuple(name for name, family in FAMILIES.items() if family.builder)


def build(name: str, params: dict) -> tuple[Distribution, Callable]:
    """The family's null law and its (r, n) -> alternative function.

    Raises InvalidParameterError when the family cannot be simulated or
    a required shape parameter is missing or out of range.
    """
    family = FAMILIES.get(name)
    if family is None or family.builder is None:
        raise InvalidParameterError(
            f"family {name!r} is not simulatable; choose from {SIMULATABLE}"
        )
    missing = [p for p in family.shape if params.get(p) is None]
    if missing:
        raise InvalidParameterError(
            f"family {name!r} requires parameter {', '.join(missing)}"
        )
    return family.builder(params)
