"""Exception hierarchy for :mod:`kreinact`.

Two broad failure classes are distinguished, mirroring the CLI exit codes:
:class:`ValidationError` (exit code 2) for malformed inputs, violated
preconditions and infeasible problem data, and :class:`NumericalError`
(exit code 3) for routines that could not reach their numerical contract.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "KreinactError",
    "ValidationError",
    "NumericalError",
    "NonsmoothPointError",
    "InfeasibleProblemError",
    "NonUniqueMultipliersError",
    "RestorationError",
    "BasisReductionWarning",
]


class KreinactError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(KreinactError, ValueError):
    """Invalid input: wrong shapes, violated preconditions, malformed files."""


class NumericalError(KreinactError, RuntimeError):
    """A numerical routine failed to satisfy its contract."""


class NonsmoothPointError(NumericalError):
    """The Lagrangian is not differentiable at the offending position point.

    Raised when eigenvalue moduli of the closed chain cross (or hit zero)
    at ``xi`` and one-sided directional derivatives disagree, so no
    gradient kernel exists there.
    """

    def __init__(self, message: str, xi):
        super().__init__(message)
        self.xi = np.asarray(xi, dtype=float)


class InfeasibleProblemError(ValidationError):
    """The constraint set of an optimization problem is empty."""


class NonUniqueMultipliersError(KreinactError):
    """Lagrange multipliers are not unique at the given point.

    ``family`` describes the admissible set (see
    :class:`kreinact.pointwise.MultiplierFamily`).
    """

    def __init__(self, message: str, family=None):
        super().__init__(message)
        self.family = family


class RestorationError(NumericalError):
    """Exact constraint restoration failed (degenerate block traces)."""


class BasisReductionWarning(UserWarning):
    """A degenerate Gram matrix forced a reduction of the test-function basis."""


def _check_count(value, least: int, message: str) -> int:
    """``value`` as an ``int`` if it is an integral number, not a bool, ``>= least``; else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(message)
    return int(value)
