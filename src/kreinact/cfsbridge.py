"""From measures to causal fermion systems: waves and local correlations.

Test functions live on the atoms of a measure (one vector of ``V`` per
atom).  The measure induces a positive semi-definite inner product

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

from .action import _four_vector
from .errors import BasisReductionWarning, ValidationError
from .homomeasure import OperatorMeasure, _write_table

__all__ = [
    "TestFunction",
    "LocalCorrelation",
    "standard_basis",
    "hilbert_inner",
    "physical_wave",
    "local_correlation",
    "empirical_cfs",
    "correlations_to_csv",
]

_GRAM_RTOL = 1e-12


@dataclass(frozen=True)
class TestFunction:
    """Finitely supported map from atom indices to vectors in ``V``."""

    __test__ = False  # domain object, not a pytest collection target

    values: dict

    def __post_init__(self):
        clean = {}
        for key, vec in self.values.items():
            arr = np.asarray(vec, complex).ravel()
            clean[int(key)] = arr
        object.__setattr__(self, "values", clean)

    def vector(self, atom_index: int, dim: int) -> np.ndarray:
        vec = self.values.get(atom_index)
        if vec is None:
            return np.zeros(dim, complex)
        if vec.shape != (dim,):
            raise ValidationError(
                f"test-function value at atom {atom_index} has wrong dimension"
            )
        return vec


def standard_basis(measure: OperatorMeasure, limit: int | None = None) -> list:
    """Coordinate test functions ``u(p_j) = e_i``, one per (atom, coordinate), at most ``limit``."""
    if limit is not None and limit < 1:
        raise ValidationError(f"basis size (--basis-size) must be at least 1, got {limit!r}")
    d = measure.space.dim
    basis = []
    for j in range(measure.n_atoms):
        for i in range(d):
            e = np.zeros(d, complex)
            e[i] = 1.0
            basis.append(TestFunction(values={j: e}))
            if limit is not None and len(basis) >= limit:
                return basis
    return basis


def hilbert_inner(u: TestFunction, v: TestFunction, measure: OperatorMeasure) -> complex:
    """Induced inner product ``sum_j prec u(p_j) | A_j v(p_j) succ``."""
    space = measure.space
    d = space.dim
    total = 0.0 + 0.0j
    for j, (_, A) in enumerate(measure.atoms()):
        uj = u.vector(j, d)
        vj = v.vector(j, d)
        if not uj.any() and not vj.any():
            continue
        total += space.inner(uj, A @ vj)
    return complex(total)


def physical_wave(u: TestFunction, measure: OperatorMeasure, x) -> np.ndarray:
    """Wave ``psi^u(x) = sum_j e^{-i p_j . x} A_j u(p_j)``."""
    x = _four_vector(x, "position")
    space = measure.space
    d = space.dim
    out = np.zeros(d, complex)
    for j, (p, A) in enumerate(measure.atoms()):
        uj = u.vector(j, d)
        if not uj.any():
            continue
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


def _basis_arrays(measure: OperatorMeasure, basis: list):
    """Point-independent arrays of the correlation pencil: ``AU``, the Gram
    matrix ``G`` and the reduction ``W`` onto its nondegenerate span.

    ``U[i, j] = u_i(p_j)`` and ``AU[i, j] = A_j u_i(p_j)``; the waves are the
    phase-weighted sums of ``AU`` over the atoms, and the Gram matrix pairs
    ``U`` with ``AU`` atom by atom.  ``W`` is None when no direction of the
    basis survives.  Called only from the public functions, so that the
    :class:`~kreinact.errors.BasisReductionWarning` points at their caller.
    """
    if not basis:
        raise ValidationError("basis must contain at least one test function")
    sig = measure.space.signature
    d = measure.space.dim
    m = len(basis)
    k = measure.n_atoms
    U = np.array([[u.vector(j, d) for j in range(k)] for u in basis], complex).reshape(m, k, d)
    AU = np.einsum("jab,ijb->ija", measure.operators, U)
    G = (U.conj() * sig).reshape(m, -1) @ AU.reshape(m, -1).T
    G = 0.5 * (G + G.conj().T)

    gw, gv = np.linalg.eigh(G)
    keep = gw > _GRAM_RTOL * max(float(gw[-1]), 1e-300)
    if not keep.all():
        warnings.warn(
            f"Gram matrix is degenerate; reducing basis from {m} to {int(keep.sum())}",
            BasisReductionWarning,
            stacklevel=3,
        )
    W = gv[:, keep] / np.sqrt(gw[keep])[None, :] if keep.any() else None
    return AU, G, W


def _correlation_at(measure: OperatorMeasure, x: np.ndarray, AU, G, W) -> LocalCorrelation:
    """Local correlation at ``x`` from the arrays of :func:`_basis_arrays`."""
    waves = np.einsum("j,ija->ia", np.exp(-1j * (measure.momenta @ x)), AU)
    F = -(waves.conj() * measure.space.signature) @ waves.T
    F = 0.5 * (F + F.conj().T)
    if W is None:
        eigs = np.zeros(0)
    else:
        reduced = W.conj().T @ F @ W
        eigs = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    return LocalCorrelation(x=x, matrix=F, gram=G, pencil_eigenvalues=np.sort(eigs))


def local_correlation(measure: OperatorMeasure, x, basis: list) -> LocalCorrelation:
    """Correlation matrix ``-prec psi_i(x) | psi_j(x) succ`` with pencil spectrum.

    A numerically singular Gram matrix triggers a
    :class:`~kreinact.errors.BasisReductionWarning` and the pencil is
    solved on the span where the Gram form is nondegenerate.
    """
    x = _four_vector(x, "position")
    return _correlation_at(measure, x, *_basis_arrays(measure, basis))


def empirical_cfs(measure: OperatorMeasure, grid, basis: list) -> list:
    """Sampled push-forward: ``[(weight, LocalCorrelation at xi), ...]``.

    The basis arrays are built once; every sample shares one Gram matrix.
    """
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
