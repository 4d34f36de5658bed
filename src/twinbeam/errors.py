"""Semantic exception hierarchy shared across the package."""

__all__ = ["TwinbeamError", "ParameterError", "ConvergenceError", "TableSizeError",
           "ConditioningError", "InfeasibleConstraintError", "TailBoundError",
           "VerificationError", "DegenerateRecordError"]


class TwinbeamError(Exception):
    """Base class for all package errors."""


class ParameterError(TwinbeamError, ValueError):
    """An input violates a documented contract (domain, type, range)."""


class ConvergenceError(TwinbeamError):
    """An assembled distribution failed its own check.

    Raised when assembled masses exceed their exact totals beyond
    rounding, or when the marginal behind an above(t*) selection, summed
    with its tail, misses 1.  The joint-table, marginal and conditional
    count-law kernels, ``joint_prob`` and the measurement route behind
    ``verify=True`` do not raise it on the validated domain (mu >= 1,
    0 < eta < 1, M >= 0; tested with mu and M up to 1e6).  Work that
    cannot finish within a budget is refused up front with TableSizeError.
    It always replaces a result, never accompanies a wrong one.
    """


class TableSizeError(TwinbeamError):
    """A requested table exceeds its cell, level or member budget."""


class ConditioningError(TwinbeamError):
    """Conditioning on an outcome (or outcome set) of vanishing probability."""


class InfeasibleConstraintError(TwinbeamError):
    """A constraint inversion produced an out-of-domain value (e.g. negative mean)."""


class TailBoundError(TwinbeamError):
    """A truncated tail is too large for the requested computation."""


class VerificationError(TwinbeamError):
    """Two independent computation routes disagreed beyond tolerance."""


class DegenerateRecordError(TwinbeamError):
    """A shot record cannot support the requested statistic."""
