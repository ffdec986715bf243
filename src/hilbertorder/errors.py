"""Exception types raised across the package."""


class HilbertError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(HilbertError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class DimensionMismatchError(DomainError):
    """Operands built for different dimensions were combined."""


class ResourceLimitError(HilbertError):
    """A request would exceed a configured size guard."""


class PointFileError(HilbertError, ValueError):
    """A point file is malformed; the message names the offending row."""
