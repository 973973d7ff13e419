"""Desk-scale solver and verification toolkit for degenerate m-Laplace
Dirichlet problems with boundary-singular reaction terms.

The package's public names are its layers' ``__all__``s, re-exported as
they stand."""

from . import analyzer, barriers, core, eigen, solver
from .analyzer import *  # noqa: F403
from .barriers import *  # noqa: F403
from .core import *  # noqa: F403
from .eigen import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *solver.__all__, *eigen.__all__, *barriers.__all__, *analyzer.__all__,
    "__version__",
]
