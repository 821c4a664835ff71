"""Principal loading analysis: discard variables via eigenvector block structure."""

from . import core, dispersion, errors, ingest, perturbation, simulate
from .core import *
from .dispersion import *
from .errors import *
from .ingest import *
from .perturbation import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, dispersion, errors, ingest, perturbation, simulate)
    for name in module.__all__
]
