"""Numeric input checks, the one place that decides whether a value is an acceptable number.

A number is a real number that is not a bool: an int, a float or a numpy
scalar.  A scalar must also be finite and meet its check's rule, else the
check raises ``error`` (InvalidParameterError unless the call site names a
subclass) with the message "{name} must {rule}, got {value!r}".
"""

from __future__ import annotations

import math
import numbers
import reprlib
from collections.abc import Iterable

import numpy as np

from .errors import InvalidParameterError, InvalidProbabilityError


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def number(value, name, rule="be finite", holds=None, error=InvalidParameterError) -> float:
    """``value`` as a float: a finite number for which ``holds``, if given, is true."""
    if _is_number(value):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (holds is None or holds(x)):
            return x
    raise error(f"{name} must {rule}, got {value!r}")


def positive(value, name, error=InvalidParameterError) -> float:
    return number(value, name, "be > 0 and finite", lambda x: x > 0, error)


def nonnegative(value, name, error=InvalidParameterError) -> float:
    return number(value, name, "be >= 0 and finite", lambda x: x >= 0, error)


def between(value, name, lo, hi, strict=False, error=InvalidParameterError) -> float:
    """A number in [lo, hi], or in (lo, hi) when ``strict``."""
    if strict:
        return number(value, name, f"lie in ({lo}, {hi})", lambda x: lo < x < hi, error)
    return number(value, name, f"lie in [{lo}, {hi}]", lambda x: lo <= x <= hi, error)


def probability(value, name="p") -> float:
    return between(value, name, 0, 1, strict=True, error=InvalidProbabilityError)


def integer(value, name, low=None, high=None, error=InvalidParameterError) -> int:
    """``value`` as an int: an integral number, not a bool, in [low, high] (None: no bound).

    An integral float such as 3.0 is not an integer here; a reader of a
    text format, where 1e3 names an integer, converts it first.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        rule = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise error(f"{name} must {rule}, got {value!r}")
    return int(value)


def entries(values, name) -> tuple:
    """The entries of a non-empty list, tuple or other iterable; a string or a scalar raises."""
    listed = isinstance(values, Iterable) and not isinstance(values, (str, bytes))
    if not (listed and (items := tuple(values))):
        raise InvalidParameterError(f"{name} must come in a non-empty list, got {values!r}")
    return items


def grid(values, name, check=number) -> tuple[float, ...]:
    """Each entry of a non-empty list through ``check(entry, name)``; ``name`` reads "every beta".

    An entry that is not a number is named as such before any range is checked.
    """
    items = entries(values, name)
    for value in items:
        if not _is_number(value):
            raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    return tuple(check(value, name) for value in items)


def integers(values, name, low=None) -> tuple[int, ...]:
    """Each entry of a non-empty list through :func:`integer` with ``low``."""
    return tuple(integer(value, name, low) for value in entries(values, name))


def array(values, name, nan=True) -> np.ndarray:
    """``values`` as a float array of any shape, without a copy when it is one.

    ±inf entries pass; an entry that is not a number raises, and so does
    NaN unless ``nan``.
    """
    try:
        out = np.asarray(values)
    except ValueError:  # a ragged nesting
        out = None
    if out is None or out.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must hold numbers, got {reprlib.repr(values)}")
    out = out.astype(float, copy=False)
    if not nan and np.isnan(out).any():
        raise InvalidParameterError(f"{name} must hold numbers without NaN")
    return out


def vector(values, name, nan=True) -> np.ndarray:
    """``values`` as :func:`array` reads them, which must form one 1-D sample."""
    out = array(values, name, nan)
    if out.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-D array, got shape {out.shape}")
    return out


def matrix(values, name) -> np.ndarray:
    """``values`` as :func:`array` reads them, which must form a (rows, n) matrix."""
    out = array(values, name)
    if out.ndim != 2:
        raise InvalidParameterError(f"{name} must be a (rows, n) matrix, got shape {out.shape}")
    return out
