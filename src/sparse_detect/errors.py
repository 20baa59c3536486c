"""Semantic exception hierarchy shared by all modules."""

from __future__ import annotations


class SparseDetectError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameterError(SparseDetectError):
    """A numeric parameter violates its documented range."""


class InvalidSampleSizeError(InvalidParameterError):
    """Sample size is too small for the requested operation."""


class InvalidProbabilityError(InvalidParameterError):
    """A probability argument lies outside (0, 1)."""


class InvalidDistanceError(InvalidParameterError):
    """A squared Hellinger distance lies outside [0, 2]."""


class SingularPointError(SparseDetectError):
    """Density ratio requested of an atomic law against an atomless one, which has none."""


class UndefinedPointError(SparseDetectError):
    """Density ratio requested where neither law has mass."""


class IncompatibleLawsError(SparseDetectError):
    """Two distributions cannot be compared (mismatched support types)."""


class NotSingularError(SparseDetectError):
    """A declared singular component overlaps the null support."""


class WrongParametrizationError(SparseDetectError):
    """Exponent function supplied on the wrong axis (u vs s)."""


class AdmissibilityError(SparseDetectError):
    """Exponent function fails the admissibility conditions."""


class OutOfRegimeError(SparseDetectError):
    """Requested sparsity exponent lies outside the supported regime."""


class HCBoundaryUndefinedError(SparseDetectError):
    """Higher-criticism boundary undefined (exponent nowhere positive)."""


class EmptySupportError(SparseDetectError):
    """A grid function is infinite everywhere (empty effective support)."""


class InfiniteWeightError(SparseDetectError):
    """Null CDF hit exactly 0 or 1 at a sample point, making the
    normalized deviation weight infinite."""


class QuadratureError(SparseDetectError):
    """Adaptive quadrature failed to reach the requested error bound."""


class ConfigError(SparseDetectError):
    """Experiment configuration violates an invariant."""
