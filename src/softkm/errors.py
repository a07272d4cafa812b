"""Exception types shared across the package."""

__all__ = [
    "SoftKMError",
    "InvalidInput",
    "ParseError",
    "PreconditionViolated",
    "DegenerateSimplex",
    "NotPositiveSemidefinite",
    "NumericalFailure",
]


class SoftKMError(Exception):
    """Base class for all library errors."""


class InvalidInput(SoftKMError):
    """An argument violates a documented precondition."""


class ParseError(InvalidInput):
    """A dataset file cannot be parsed; the message carries the location."""


class PreconditionViolated(InvalidInput):
    """A matrix argument fails a structural requirement."""


class DegenerateSimplex(InvalidInput):
    """Prototypes do not span a (k-1)-dimensional simplex."""


class NotPositiveSemidefinite(InvalidInput):
    """A kernel matrix has significantly negative eigenvalues."""


class NumericalFailure(SoftKMError):
    """A solver produced non-finite values or hit a singular linear system."""
