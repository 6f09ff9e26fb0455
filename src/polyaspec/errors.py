"""Exception types shared across the package."""


class PolyaspecError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PolyaspecError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(PolyaspecError, ValueError):
    """Externally supplied data fails structural validation."""


class CoverageError(PolyaspecError, ValueError):
    """A query exceeds the range covered by a spectrum or counting function.

    Raised instead of silently truncating: a count above the cutoff would be
    a lower bound, not the count.
    """


class ConfigError(PolyaspecError, ValueError):
    """Required inputs for a formula or run configuration are missing."""


class ModeError(PolyaspecError, ValueError):
    """An operation was requested in a mode the input does not support,

    e.g. exact-integer verification on a stream without exact values, or a
    Neumann-only check on a Dirichlet stream.
    """
