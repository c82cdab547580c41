"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: usage errors -> 1, data errors -> 2,
convergence errors -> 3.
"""


class RcthermError(Exception):
    """Base class for all package errors."""


class DataError(RcthermError):
    """Invalid, malformed, or insufficient input data."""


class ParseError(DataError):
    """Malformed CSV row or field, or malformed RC parameters; carries a
    line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OrderingError(DataError):
    """Timestamps out of order."""


class DuplicateTimestampError(DataError):
    """Repeated timestamp in a trace."""


class UnimputableError(DataError):
    """A required field is entirely missing and cannot be interpolated."""


class InsufficientDataError(DataError):
    """Not enough samples for the requested operation."""


class ShapeError(DataError):
    """Dimension mismatch between arrays or models."""


class InvalidParameterError(DataError):
    """Physically invalid model parameters (e.g. nonpositive R or C)."""


class DegenerateSeriesError(DataError):
    """A series with no variance (or zero denominator) where variation is required."""


class ConfigError(RcthermError):
    """Invalid experiment or generator configuration."""


class ConvergenceError(RcthermError):
    """An iterative solver exceeded its iteration budget."""
