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

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisReductionWarning, ValidationError
from .homomeasure import OperatorMeasure

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
    """Coordinate test functions ``u(p_j) = e_i``, one per (atom, coordinate)."""
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
    x = np.asarray(x, float)
    if x.shape != (4,):
        raise ValidationError("position must be a 4-vector")
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


def local_correlation(measure: OperatorMeasure, x, basis: list) -> LocalCorrelation:
    """Correlation matrix ``-prec psi_i(x) | psi_j(x) succ`` with pencil spectrum.

    A numerically singular Gram matrix triggers a
    :class:`~kreinact.errors.BasisReductionWarning` and the pencil is
    solved on the span where the Gram form is nondegenerate.
    """
    if not basis:
        raise ValidationError("basis must contain at least one test function")
    x = np.asarray(x, float)
    if x.shape != (4,):
        raise ValidationError("position must be a 4-vector")
    sig = measure.space.signature
    d = measure.space.dim
    m = len(basis)
    # U[i, j] = u_i(p_j) and AU[i, j] = A_j u_i(p_j); the waves are the
    # phase-weighted sums of AU over the atoms, and the Gram matrix pairs U
    # with AU atom by atom.
    k = measure.n_atoms
    U = np.array([[u.vector(j, d) for j in range(k)] for u in basis], complex).reshape(m, k, d)
    AU = np.einsum("jab,ijb->ija", measure.operators, U)
    waves = np.einsum("j,ija->ia", np.exp(-1j * (measure.momenta @ x)), AU)
    F = -(waves.conj() * sig) @ waves.T
    F = 0.5 * (F + F.conj().T)
    G = (U.conj() * sig).reshape(m, -1) @ AU.reshape(m, -1).T
    G = 0.5 * (G + G.conj().T)

    gw, gv = np.linalg.eigh(G)
    keep = gw > _GRAM_RTOL * max(float(gw[-1]), 1e-300)
    if not keep.all():
        warnings.warn(
            f"Gram matrix is degenerate; reducing basis from {m} to {int(keep.sum())}",
            BasisReductionWarning,
            stacklevel=2,
        )
    if not keep.any():
        eigs = np.zeros(0)
    else:
        W = gv[:, keep] / np.sqrt(gw[keep])[None, :]
        reduced = W.conj().T @ F @ W
        eigs = np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))
    return LocalCorrelation(x=x, matrix=F, gram=G, pencil_eigenvalues=np.sort(eigs))


def empirical_cfs(measure: OperatorMeasure, grid, basis: list) -> list:
    """Sampled push-forward: ``[(weight, LocalCorrelation at xi), ...]``."""
    return [
        (float(w), local_correlation(measure, xi, basis))
        for xi, w in zip(grid.points, grid.weights)
    ]


def correlations_to_csv(samples: list, path) -> None:
    """CSV of (weight, x, pencil eigenvalues) per sampled point."""
    width = max((len(corr.pencil_eigenvalues) for _, corr in samples), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["weight", "x0", "x1", "x2", "x3"] + [f"eig{i}" for i in range(width)]
        )
        for w, corr in samples:
            eigs = list(corr.pencil_eigenvalues) + [np.nan] * (
                width - len(corr.pencil_eigenvalues)
            )
            writer.writerow(
                [repr(float(w))]
                + [repr(float(v)) for v in corr.x]
                + [repr(float(e)) for e in eigs]
            )
