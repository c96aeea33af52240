"""Exception hierarchy shared across the package."""


class HrdeaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HrdeaError, ValueError):
    """Inputs are structurally wrong (dimension mismatch, bad bounds, ...)."""


class DomainError(HrdeaError, ValueError):
    """A value is outside its admissible domain (e.g. negative input)."""


class ParseError(HrdeaError, ValueError):
    """A file could not be parsed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LpError(HrdeaError):
    """The LP solver failed."""


class LpUnbounded(LpError):
    """The LP is unbounded along the objective."""


class DegenerateFitError(HrdeaError):
    """A distribution fit is impossible (e.g. zero-variance samples)."""


class UnsupportedDimensionError(HrdeaError):
    """The requested operation does not scale to this dimension."""
