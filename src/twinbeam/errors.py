"""Semantic exception hierarchy shared across the package."""


class TwinbeamError(Exception):
    """Base class for all package errors."""


class ParameterError(TwinbeamError, ValueError):
    """An input violates a documented contract (domain, type, range)."""


class ConvergenceError(TwinbeamError):
    """A series failed its convergence guarantee.

    Defensive: cannot occur for parameters that pass validation.
    """


class TableSizeError(TwinbeamError):
    """A requested table exceeds the configured cell or series-level budget."""


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
