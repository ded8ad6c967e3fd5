"""Variational calculus for positive operator measures on indefinite spaces.

The package models translation-invariant configurations as finite
operator-valued measures in momentum space, evaluates a quartic spectral
action over position differences, and provides constrained minimization
together with first-order optimality verification, closed-form pointwise
solvers, and local correlation sampling.

Each module's ``__all__`` is its public surface; the package re-exports
every one of them, and ``main`` from :mod:`kreinact.cli`.
"""

from . import action, cfsbridge, elverify, errors, homomeasure, krein, minimize, pointwise

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "main",
    *(
        name
        for module in (errors, krein, homomeasure, action, pointwise, elverify, minimize, cfsbridge)
        for name in module.__all__
    ),
]

# From here on ``kreinact.action`` is the function ``action``; the module
# is ``sys.modules["kreinact.action"]``.
from .action import *
from .cfsbridge import *
from .cli import main
from .elverify import *
from .errors import *
from .homomeasure import *
from .krein import *
from .minimize import *
from .pointwise import *
