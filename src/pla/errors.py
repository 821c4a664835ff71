"""Exception hierarchy shared across the package."""


class PlaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PlaError, ValueError):
    """A setting of an analysis, a simulation or the CSV reader is invalid."""


class ParseError(PlaError):
    """Input file could not be parsed as a rectangular numeric table."""


class DimensionError(PlaError):
    """Input dimensions are too small or inconsistent for the operation."""


class DegenerateColumnError(PlaError):
    """A column has zero sample variance where nonzero variance is required."""


class SymmetryError(PlaError):
    """Matrix deviates from symmetry beyond tolerance."""


class NumericalError(PlaError):
    """An underlying numerical routine failed to converge."""


class ZeroTraceError(PlaError):
    """All eigenvalues are zero; explained-variance shares are undefined."""


class InsufficientInputError(PlaError):
    """The requested analysis mode needs inputs that were not provided."""


class ConsistencyError(PlaError):
    """Report and data refer to different variable sets."""


class FactorizationError(PlaError):
    """Covariance factorization failed (matrix not positive definite)."""
