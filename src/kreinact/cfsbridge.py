"""From measures to causal fermion systems: waves and local correlations.

A test function is the complex ``(k, d)`` array of its values ``u(p_j)``
at the k atoms of a measure on ``V = C^d``, and a basis of m test functions
is an ``(m, k, d)`` array.  The measure induces a positive semi-definite
inner product

    <u | v> = sum_j  prec u(p_j) | A_j v(p_j) succ,

physical waves ``psi^u(x) = sum_j e^{-i p_j . x} A_j u(p_j)``, and local
correlation operators ``F(x)`` with matrix elements
``<u_i | F(x) u_j> = - prec psi^{u_i}(x) | psi^{u_j}(x) succ`` in a chosen
test-function basis.  Expressed against the Gram matrix of the basis, the
pencil eigenvalues of ``F(x)`` are basis independent and obey the signature
bound: at most ``n`` positive and at most ``n`` negative.  Sampling ``F``
over a position grid yields the empirical push-forward measure of the
construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisReductionWarning, ValidationError, _check_count, _four_vector
from .homomeasure import OperatorMeasure, _write_table
from .krein import _hermitize

__all__ = [
    "LocalCorrelation",
    "standard_basis",
    "hilbert_inner",
    "physical_wave",
    "local_correlation",
    "empirical_cfs",
    "correlations_to_csv",
]

_GRAM_RTOL = 1e-12


def _test_functions(measure: OperatorMeasure, values, ndim: int = 2) -> np.ndarray:
    """``values`` as a complex array of ``ndim`` axes ending in ``(k, d)``, else ValidationError."""
    U = np.asarray(values, complex)
    k, d = measure.n_atoms, measure.space.dim
    if U.ndim != ndim or U.shape[-2:] != (k, d):
        shape = f"(m, {k}, {d})" if ndim == 3 else f"({k}, {d})"
        raise ValidationError(f"test functions must have shape {shape} ({k} atoms, dim {d}), got {U.shape}")
    return U


def standard_basis(measure: OperatorMeasure, limit: int | None = None) -> np.ndarray:
    """Coordinate test functions ``u(p_j) = e_i`` in atom-major order, at most ``limit``."""
    if limit is not None:
        _check_count(limit, 1, f"basis size (--basis-size) must be an integer at least 1, got {limit!r}")
    size = measure.n_atoms * measure.space.dim
    return np.eye(size, dtype=complex).reshape(size, measure.n_atoms, measure.space.dim)[:limit]


def hilbert_inner(u: np.ndarray, v: np.ndarray, measure: OperatorMeasure) -> complex:
    """Induced inner product ``sum_j prec u(p_j) | A_j v(p_j) succ`` of two ``(k, d)`` test functions."""
    u, v = _test_functions(measure, u), _test_functions(measure, v)
    total = 0.0 + 0.0j
    for uj, vj, A in zip(u, v, measure.operators):
        total += measure.space.inner(uj, A @ vj)
    return complex(total)


def physical_wave(u: np.ndarray, measure: OperatorMeasure, x) -> np.ndarray:
    """Wave ``psi^u(x) = sum_j e^{-i p_j . x} A_j u(p_j)`` of a ``(k, d)`` test function."""
    x = _four_vector(x, "position")
    u = _test_functions(measure, u)
    out = np.zeros(measure.space.dim, complex)
    for uj, (p, A) in zip(u, measure.atoms()):
        out += np.exp(-1j * float(p @ x)) * (A @ uj)
    return out


@dataclass(frozen=True)
class LocalCorrelation:
    """Local correlation operator at ``x`` in a test-function basis.

    ``matrix`` holds ``<u_i|F(x)u_j>``; ``gram`` the basis Gram matrix;
    ``pencil_eigenvalues`` the (basis independent) eigenvalues of ``F``
    against the Gram inner product, restricted to the non-degenerate part
    of the basis.
    """

    x: np.ndarray
    matrix: np.ndarray
    gram: np.ndarray
    pencil_eigenvalues: np.ndarray


def _basis_arrays(measure: OperatorMeasure, basis: np.ndarray):
    """Point-independent arrays of the correlation pencil: ``AU``, the Gram
    matrix ``G`` and the reduction ``W`` onto its nondegenerate span.

    ``U[i, j] = u_i(p_j)`` and ``AU[i, j] = A_j u_i(p_j)``; the waves are the
    phase-weighted sums of ``AU`` over the atoms, and the Gram matrix pairs
    ``U`` with ``AU`` atom by atom.  ``W`` has no column when no direction
    of the basis survives.  Called only from the public functions, so that the
    :class:`~kreinact.errors.BasisReductionWarning` points at their caller.
    """
    if not len(basis):
        raise ValidationError("basis must contain at least one test function")
    U = _test_functions(measure, basis, ndim=3)
    m = len(U)
    AU = np.einsum("jab,ijb->ija", measure.operators, U)
    G = _hermitize((U.conj() * measure.space.signature).reshape(m, -1) @ AU.reshape(m, -1).T)

    gw, gv = np.linalg.eigh(G)
    keep = gw > _GRAM_RTOL * max(float(gw[-1]), 1e-300)
    if not keep.all():
        warnings.warn(
            f"Gram matrix is degenerate; reducing basis from {m} to {int(keep.sum())}",
            BasisReductionWarning,
            stacklevel=3,
        )
    W = gv[:, keep] / np.sqrt(gw[keep])[None, :]
    return AU, G, W


def _correlation_at(measure: OperatorMeasure, x: np.ndarray, AU, G, W) -> LocalCorrelation:
    """Local correlation at ``x`` from the arrays of :func:`_basis_arrays`."""
    waves = np.einsum("j,ija->ia", np.exp(-1j * (measure.momenta @ x)), AU)
    F = _hermitize(-(waves.conj() * measure.space.signature) @ waves.T)
    eigs = np.linalg.eigvalsh(_hermitize(W.conj().T @ F @ W))
    return LocalCorrelation(x=x, matrix=F, gram=G, pencil_eigenvalues=np.sort(eigs))


def local_correlation(measure: OperatorMeasure, x, basis: np.ndarray) -> LocalCorrelation:
    """Correlation matrix ``-prec psi_i(x) | psi_j(x) succ`` with pencil spectrum.

    A numerically singular Gram matrix triggers a
    :class:`~kreinact.errors.BasisReductionWarning` and the pencil is
    solved on the span where the Gram form is nondegenerate.
    """
    return _correlation_at(measure, _four_vector(x, "position"), *_basis_arrays(measure, basis))


def empirical_cfs(measure: OperatorMeasure, grid, basis: np.ndarray) -> list:
    """Sampled push-forward ``[(weight, LocalCorrelation at xi), ...]``, all from one set of basis arrays."""
    arrays = _basis_arrays(measure, basis)
    return [
        (float(w), _correlation_at(measure, np.asarray(xi, float), *arrays))
        for xi, w in zip(grid.points, grid.weights)
    ]


def correlations_to_csv(samples: list, path) -> None:
    """CSV of (weight, x, pencil eigenvalues) per sampled point."""
    width = max((len(corr.pencil_eigenvalues) for _, corr in samples), default=0)
    rows = [
        [float(w), *corr.x.tolist(), *corr.pencil_eigenvalues.tolist()]
        + [np.nan] * (width - len(corr.pencil_eigenvalues))
        for w, corr in samples
    ]
    _write_table(path, ["weight", "x0", "x1", "x2", "x3"] + [f"eig{i}" for i in range(width)], rows)
