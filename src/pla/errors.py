"""Exception hierarchy shared across the package.

Each class below ``PlaError`` is a ``ConfigError``, a ``DataError`` or a
``NumericalError``, on which the CLI exits with 2, 3 or 4, so a caller can
catch one class per exit code.
"""

__all__ = [
    "PlaError",
    "ConfigError",
    "DataError",
    "ParseError",
    "DimensionError",
    "DegenerateColumnError",
    "InsufficientInputError",
    "ConsistencyError",
    "NumericalError",
    "SymmetryError",
    "ZeroTraceError",
    "FactorizationError",
]


class PlaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PlaError, ValueError):
    """A setting of an analysis, a simulation or the CSV reader is invalid."""


class DataError(PlaError):
    """The input data cannot be analyzed as given."""


class ParseError(DataError):
    """Input file could not be parsed as a rectangular numeric table."""


class DimensionError(DataError):
    """Input dimensions are too small or inconsistent for the operation."""


class DegenerateColumnError(DataError):
    """A column has zero sample variance where nonzero variance is required."""


class InsufficientInputError(DataError):
    """The input lacks what the analysis needs: a covariance, not a correlation."""


class ConsistencyError(DataError):
    """Report and data refer to different variable sets."""


class NumericalError(PlaError):
    """A matrix or the result of a numerical routine is unusable."""


class SymmetryError(NumericalError):
    """Matrix deviates from symmetry beyond tolerance."""


class ZeroTraceError(NumericalError):
    """All eigenvalues are zero; explained-variance shares are undefined."""


class FactorizationError(NumericalError):
    """Covariance factorization failed (matrix not positive definite)."""
