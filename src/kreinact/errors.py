"""Exception hierarchy for :mod:`kreinact`.

Two broad failure classes are distinguished, mirroring the CLI exit codes:
:class:`ValidationError` (exit code 2) for malformed inputs, violated
preconditions and infeasible problem data, and :class:`NumericalError`
(exit code 3) for routines that could not reach their numerical contract.

The module owns the package's input rules, each raising a
:class:`ValidationError` that names the argument: ``_check_count`` (a count),
``_check_real`` (a real), ``_entries`` (a sequence), ``_reals`` (an array of
reals), ``_four_vector`` (4-vectors).  An integer beyond the float range fails
as too large for a float, not as an ``OverflowError``; a value of the wrong
type fails, not as a ``TypeError``.
"""

from __future__ import annotations

import math
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

    Raised when the closed chain at ``xi`` is defective (its eigenvectors
    are nearly parallel, as where a real eigenvalue pair turns complex), or
    when, at ``delta = 0``, its vanishing moduli form a zero cluster that
    moves at first order, so no gradient kernel exists there.
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


def _check_real(value, name: str, low: float = -math.inf, *, strict: bool = True) -> float:
    """``float(value)`` of a real number that is finite and above ``low`` (at or above it
    unless ``strict``); else a ValidationError naming ``name``."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        rule = "" if low == -math.inf else (
            " and positive" if strict and low == 0 else f" and {'>' if strict else '>='} {low!r}")
        raise ValidationError(f"{name} must be finite{rule}, got {value!r}")
    return x


def _entries(values, length: int | None, message: str) -> tuple:
    """``values`` as a tuple of ``length`` entries (any number if None); else ValidationError(message)."""
    try:
        entries = tuple(values)
    except TypeError:
        raise ValidationError(message) from None
    if length is not None and len(entries) != length:
        raise ValidationError(message)
    return entries


def _reals(x, name: str) -> np.ndarray:
    """``x`` as a float array; else a ValidationError naming ``name``."""
    try:
        return np.asarray(x, float)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a float") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must hold real numbers, got {x!r}") from None


def _four_vector(x, name: str, ndim: int = 1) -> np.ndarray:
    """``x`` as a finite 4-vector (``ndim=1``) or a stack of rows of four (``ndim=2``)."""
    x = _reals(x, name)
    if x.ndim != ndim or x.shape[-1] != 4:
        what = "a 4-vector" if ndim == 1 else "rows of four numbers"
        raise ValidationError(f"{name} must be {what}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must have finite entries")
    return x
