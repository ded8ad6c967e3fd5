"""Kernel, closed chain, causal Lagrangian, action, and gradient kernel.

For a finitely supported measure the kernel is the trigonometric polynomial
``P(xi) = -sum_j exp(i p_j . xi) A_j`` (plain dual pairing).  The closed
chain ``A(xi) = P(xi) P(xi)^*`` feeds the Lagrangian

    L = (1/4n) sum_{i,j} (m_i - m_j)^2,    m_i = sqrt(|lambda_i|^2 + delta^2),

with smoothing parameter ``delta >= 0`` (``delta = 0`` is the exact moduli
Lagrangian).  The action integrates ``L`` over a symmetric position grid.
The gradient kernel ``Q(xi)`` represents first variations,

    d/dt L(xi)[A_j + t E_j] = 2 Re Tr(Q(-xi) dP(xi)),
    dP(xi) = sum_j exp(i p_j . xi) E_j,

for Krein-symmetric directions ``E_j``, so that the first variation of the
action is ``dS = 2 sum_j Tr(Qhat(p_j) E_j)`` with
``Qhat(p) = sum_xi w(xi) Q(xi) exp(-i p . xi)``.

The analytic gradient uses eigenvalue perturbation theory on the closed
chain: for simple eigenvalues, ``dL = Re Tr(G dA)`` with
``G = R diag(g_i conj(lambda_i)/m_i) R^{-1}`` (``g_i = dL/dm_i``), Krein
symmetrized to ``N = (G + G^*)/2``, giving ``Q(xi) = P_+(xi) N(-xi)`` with
``P_+ = -P``.  Points where the chain has (numerically) multiple eigenvalues
-- or vanishing moduli when ``delta = 0`` -- fall back to finite
differences (relative step ``1e-5``) with a kink check; a genuine kink
raises :class:`~kreinact.errors.NonsmoothPointError`.  The eigen-derivatives
are batched over the point set (one stacked ``eig`` and ``inv``); only the
points they reject take the finite-difference path.  One routine builds
the Krein-symmetrized field ``Q`` on a reflection-closed point set:
:class:`QHatEvaluator` calls it on its grid, :func:`gradient_kernel_Q` on
the pair ``(xi, -xi)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import NonsmoothPointError, NumericalError, ValidationError
from .homomeasure import OperatorMeasure
from .krein import SignatureSpace, krein_adjoint

__all__ = [
    "PositionGrid",
    "ClosedChainSpectrum",
    "kernel_P",
    "closed_chain",
    "lagrangian",
    "action",
    "action_profile",
    "profile_to_csv",
    "gradient_kernel_Q",
    "QHatEvaluator",
    "fourier_Q_hat",
]

_KINK_REL = 0.05
_COLLISION_REL = 1e-9
_FD_STEP = 1e-5


@dataclass(frozen=True)
class PositionGrid:
    """Symmetric quadrature grid on a position box ``[-R, R]^4``.

    ``reflection_index[i]`` is the index of ``-points[i]``; the construction
    in :meth:`from_box` makes the reflection exact in floating point.
    """

    points: np.ndarray
    weights: np.ndarray
    reflection_index: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, float))
        weights = np.asarray(self.weights, float).ravel()
        refl = np.asarray(self.reflection_index, int).ravel()
        if points.shape[1:] != (4,) or len(weights) != len(points) or len(refl) != len(points):
            raise ValidationError("grid points, weights, reflection index must align (4-vectors)")
        if np.any(weights <= 0):
            raise ValidationError("quadrature weights must be positive")
        if not np.array_equal(points[refl], -points):
            raise ValidationError("grid must be symmetric under xi -> -xi")
        if not np.array_equal(weights[refl], weights):
            raise ValidationError("weights must be symmetric under xi -> -xi")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "reflection_index", refl)

    @classmethod
    def from_box(cls, radius: float, shape) -> "PositionGrid":
        """Trapezoidal grid on ``[-radius, radius]^4`` with ``shape`` points per axis."""
        shape = tuple(int(k) for k in shape)
        if len(shape) != 4 or any(k < 1 for k in shape):
            raise ValidationError("grid shape must be four positive counts")
        if radius <= 0:
            raise ValidationError("position box radius must be positive")
        axes, axis_weights = [], []
        for k in shape:
            if k == 1:
                axes.append(np.array([0.0]))
                axis_weights.append(np.array([2.0 * radius]))
                continue
            h = 2.0 * radius / (k - 1)
            # (i - (k-1)/2) * h is exactly antisymmetric under i -> k-1-i.
            axes.append((np.arange(k) - (k - 1) / 2.0) * h)
            w = np.full(k, h)
            w[0] = w[-1] = h / 2.0
            axis_weights.append(w)
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        wmesh = np.meshgrid(*axis_weights, indexing="ij")
        weights = np.prod(np.stack([m.ravel() for m in wmesh], axis=1), axis=1)
        idx = np.arange(int(np.prod(shape))).reshape(shape)
        refl = idx[tuple(slice(None, None, -1) for _ in shape)].ravel()
        return cls(points=points, weights=weights, reflection_index=refl)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def volume(self) -> float:
        return float(self.weights.sum())

    def boundary_mask(self) -> np.ndarray:
        """Points with some coordinate at the boundary of the sampled box."""
        extent = np.abs(self.points).max(axis=0)
        active = extent > 0
        if not active.any():
            return np.ones(len(self.points), bool)
        return np.any(np.abs(self.points[:, active]) >= extent[active][None, :], axis=1)


@dataclass(frozen=True)
class ClosedChainSpectrum:
    """Eigenvalues (with algebraic multiplicity) and the chain operator."""

    lambdas: np.ndarray
    chain: np.ndarray


def _plus_kernel(measure: OperatorMeasure, points: np.ndarray) -> np.ndarray:
    """``P_+(xi) = sum_j exp(i p_j . xi) A_j`` for a batch of positions."""
    points = np.atleast_2d(np.asarray(points, float))
    if measure.n_atoms == 0:
        d = measure.space.dim
        return np.zeros((len(points), d, d), complex)
    phases = np.exp(1j * points @ measure.momenta.T)
    return np.einsum("xj,jab->xab", phases, measure.operators)


def _four_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, float)
    if x.shape != (4,):
        raise ValidationError(f"{name} must be a 4-vector")
    return x


def kernel_P(measure: OperatorMeasure, xi) -> np.ndarray:
    """Kernel ``P(xi) = -sum_j exp(i p_j . xi) A_j``."""
    xi = _four_vector(xi, "xi")
    return -_plus_kernel(measure, xi[None])[0]


def closed_chain(P: np.ndarray, space: SignatureSpace) -> ClosedChainSpectrum:
    """Closed chain ``A = P P^*`` with its dense eigenvalue multiset."""
    P = space.check_operator(P)
    chain = P @ krein_adjoint(P, space)
    lams = np.linalg.eigvals(chain)
    order = np.lexsort((lams.imag, lams.real))
    return ClosedChainSpectrum(lambdas=lams[order], chain=chain)


def _moduli(lambdas: np.ndarray, delta: float) -> np.ndarray:
    return np.sqrt(np.abs(lambdas) ** 2 + delta**2)


def _lagrangian_values(lambdas: np.ndarray, delta: float) -> np.ndarray:
    """Causal Lagrangian of each row of chain eigenvalues ``lambdas`` (``..., 2n``)."""
    if delta < 0:
        raise ValidationError("smoothing delta must be >= 0")
    m = _moduli(lambdas, delta)
    n = lambdas.shape[-1] // 2
    # Method reductions: np.sum's dispatch would dominate the finite-difference
    # path, which calls this once per 2n x 2n chain.
    return np.maximum((m**2).sum(-1) - m.sum(-1) ** 2 / (2 * n), 0.0)


def lagrangian(spectrum: ClosedChainSpectrum, smoothing_delta: float = 0.0) -> float:
    """Causal Lagrangian ``(1/4n) sum_{ij} (m_i - m_j)^2 >= 0``."""
    return float(_lagrangian_values(spectrum.lambdas, smoothing_delta))


def _chain_field(measure: OperatorMeasure, points: np.ndarray):
    """Batched kernels and chains over grid points: returns (P_plus, chains)."""
    Pp = _plus_kernel(measure, points)
    sig = measure.space.signature
    adj = sig[None, :, None] * Pp.conj().transpose(0, 2, 1) * sig[None, None, :]
    return Pp, Pp @ adj


def _lagrangian_field(measure: OperatorMeasure, grid: PositionGrid, smoothing_delta: float) -> np.ndarray:
    """Lagrangian at each grid point, from one batched chain eigensolve."""
    _, chains = _chain_field(measure, grid.points)
    return _lagrangian_values(np.linalg.eigvals(chains), smoothing_delta)


def action(measure: OperatorMeasure, grid: PositionGrid, smoothing_delta: float = 0.0) -> float:
    """Discretized homogeneous action ``sum_xi w(xi) L(xi)``."""
    return float(np.dot(grid.weights, _lagrangian_field(measure, grid, smoothing_delta)))


def action_profile(
    measure: OperatorMeasure, grid: PositionGrid, smoothing_delta: float = 0.0
) -> list:
    """Pointwise Lagrangian profile ``[(xi, L(xi)), ...]`` over the grid."""
    vals = _lagrangian_field(measure, grid, smoothing_delta)
    return [(xi.copy(), float(v)) for xi, v in zip(grid.points, vals)]


def profile_to_csv(profile, path) -> None:
    """Write an ``action_profile`` result as CSV columns xi0..xi3, lagrangian."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["xi0", "xi1", "xi2", "xi3", "lagrangian"])
        for xi, val in profile:
            writer.writerow([repr(float(x)) for x in xi] + [repr(float(val))])


# ---------------------------------------------------------------------------
# Gradient kernel
# ---------------------------------------------------------------------------

def _eig_gradient_factors(chains: np.ndarray, space: SignatureSpace, delta: float):
    """Krein-symmetrized factors N of dL = Re Tr(G dA) over a stack of chains.

    Returns ``(factors, ok)``; ``ok`` marks the chains whose factor is valid:
    simple eigenvalues, with ``delta = 0`` additionally all moduli bounded
    away from zero (else |.| is not differentiable), and an invertible
    eigenvector matrix.
    """
    d = space.dim
    scale = np.maximum(np.linalg.norm(chains, 2, axis=(1, 2)), 1e-300)
    lams, R = np.linalg.eig(chains)
    diff = np.abs(lams[:, :, None] - lams[:, None, :])
    diff[:, np.arange(d), np.arange(d)] = np.inf
    ok = diff.min(axis=(1, 2)) > _COLLISION_REL * scale
    m = _moduli(lams, delta)
    if delta == 0.0:
        ok &= m.min(axis=1) > tolerances.MODULUS_GAP * scale
    # An exactly singular R has a zero LU pivot: inv would raise for the whole
    # stack, slogdet reports it per matrix.  Rejected rows get harmless stand-ins.
    ok &= np.linalg.slogdet(R)[0] != 0
    R = np.where(ok[:, None, None], R, np.eye(d))
    g = 2.0 * m - m.sum(axis=1, keepdims=True) / (d // 2)
    c = g * lams.conj() / np.where(ok[:, None], m, 1.0)
    G = R @ (c[:, :, None] * np.linalg.inv(R))
    sig = space.signature
    G_adj = sig[None, :, None] * G.conj().transpose(0, 2, 1) * sig[None, None, :]
    return 0.5 * (G + G_adj), ok


def _perturbed_lagrangian(Pp: np.ndarray, D: np.ndarray, tau: float, space: SignatureSpace, delta: float) -> float:
    X = Pp + tau * D
    chain = X @ krein_adjoint(X, space)
    return float(_lagrangian_values(np.linalg.eigvals(chain), delta))


def _directional_derivative(Pp, D, space, delta, h, xi):
    """Richardson-extrapolated central difference of L along direction D.

    Raises NonsmoothPointError when one-sided derivatives disagree (kink).
    A kink claim is confirmed at a smaller step before raising: a genuine
    slope jump persists as the step shrinks, while smooth high-curvature
    points (and flat plateaus, where the chain has equal moduli and the
    Lagrangian vanishes identically) see the disagreement shrink with it.
    """
    f = lambda t: _perturbed_lagrangian(Pp, D, t, space, delta)
    f0 = f(0.0)
    # Values of L carry eigensolver noise ~ eps_mach * ||chain||; below the
    # corresponding derivative floor the direction is numerically flat.
    chain_scale = float(np.linalg.norm(Pp, 2)) ** 2
    deriv_floor = 1e-11 * max(chain_scale, 1.0) / h

    def one_sided(step):
        fwd = (f(step) - f0) / step
        bwd = (f0 - f(-step)) / step
        return fwd, bwd

    fwd, bwd = one_sided(h)
    if max(abs(fwd), abs(bwd)) <= deriv_floor:
        return 0.0
    gap = abs(fwd - bwd)
    scale = max(abs(fwd), abs(bwd))
    if gap > _KINK_REL * scale + deriv_floor:
        fwd2, bwd2 = one_sided(h / 4.0)
        gap2 = abs(fwd2 - bwd2)
        if gap2 > 0.5 * gap:
            raise NonsmoothPointError(
                "one-sided derivatives of the Lagrangian disagree (kink)", xi=xi
            )
    c1 = (f(h) - f(-h)) / (2 * h)
    c2 = (f(h / 2) - f(-h / 2)) / h
    return (4.0 * c2 - c1) / 3.0


def _fd_half_gradient(measure, xi, space, delta):
    """Matrix M with dL(xi) = 2 Re Tr(M dP_+(xi)); equals Q(-xi)."""
    Pp = _plus_kernel(measure, xi[None])[0]
    d = space.dim
    scale = max(float(np.linalg.norm(Pp, 2)), 1.0)
    step = _FD_STEP * scale
    M = np.zeros((d, d), complex)
    for b in range(d):
        for a in range(d):
            E = np.zeros((d, d), complex)
            E[b, a] = 1.0
            dre = _directional_derivative(Pp, E, space, delta, step, xi)
            dim_ = _directional_derivative(Pp, 1j * E, space, delta, step, xi)
            M[a, b] = 0.5 * (dre - 1j * dim_)
    return M


def _gradient_field(
    measure: OperatorMeasure,
    points: np.ndarray,
    reflection: np.ndarray,
    delta: float,
    mode: str,
) -> np.ndarray:
    """Krein-symmetrized gradient kernel ``Q`` at each of ``points``.

    ``points[reflection[i]]`` must be ``-points[i]``.  Vectorized
    eigen-derivatives are used where the chain spectra at both a point and
    its reflection allow it (``mode`` ``"auto"`` or ``"analytic"``), finite
    differences elsewhere (``"auto"``) or everywhere
    (``"finite_difference"``).
    """
    if delta < 0:
        raise ValidationError("smoothing delta must be >= 0")
    if mode not in ("auto", "analytic", "finite_difference"):
        raise ValidationError(f"unknown gradient mode {mode!r}")
    space = measure.space
    n_pts = len(points)
    d = space.dim
    Pp, chains = _chain_field(measure, points)

    if mode == "finite_difference":
        factors, ok = np.zeros_like(chains), np.zeros(n_pts, bool)
    else:
        factors, ok = _eig_gradient_factors(chains, space, delta)
    if mode == "analytic" and not ok.all():
        raise NonsmoothPointError(
            "chain spectrum too degenerate for the analytic gradient "
            "(eigenvalue collision or vanishing modulus)",
            xi=points[~ok][0],
        )

    q_field = np.zeros((n_pts, d, d), complex)
    both_ok = ok & ok[reflection]
    # Q(xi) = P_+(xi) N(-xi); the Krein adjoint of Q(-xi) is N(xi) P_+(xi).
    q_field[both_ok] = Pp[both_ok] @ factors[reflection[both_ok]]
    for i in np.nonzero(~both_ok)[0]:
        q_field[i] = _fd_half_gradient(measure, -points[i], space, delta)
    sig = space.signature
    adj = sig[None, :, None] * q_field[reflection].conj().transpose(0, 2, 1) * sig[None, None, :]
    return 0.5 * (q_field + adj)


def gradient_kernel_Q(
    measure: OperatorMeasure,
    xi,
    mode: str = "auto",
    smoothing_delta: float = 0.0,
) -> np.ndarray:
    """Gradient kernel ``Q(xi)`` of the (possibly smoothed) Lagrangian.

    ``mode`` is ``"analytic"``, ``"finite_difference"``, or ``"auto"``
    (analytic where the chain spectrum allows it, finite differences
    otherwise).  The result is symmetrized so ``Q(xi)^* = Q(-xi)`` holds
    exactly.  Genuinely nonsmooth points raise
    :class:`~kreinact.errors.NonsmoothPointError` carrying ``xi``.
    """
    xi = _four_vector(xi, "xi")
    pair = np.stack([xi, -xi])
    return _gradient_field(measure, pair, np.array([1, 0]), smoothing_delta, mode)[0]


class QHatEvaluator:
    """Precomputed gradient field on a grid with Fourier evaluation.

    Computes ``Q(xi)`` once per grid point (vectorized eigen-derivatives,
    falling back to finite differences pointwise where the spectrum is
    degenerate) and evaluates ``Qhat(p) = sum_xi w(xi) Q(xi) e^{-i p.xi}``
    on demand.  ``tail_magnitude`` reports ``max ||Q(xi)||_2`` over the
    boundary of the position box — a diagnostic for how well the truncated
    box captures the decay of the gradient kernel (integrability cannot be
    asserted on a finite box, only reported).
    """

    def __init__(
        self,
        measure: OperatorMeasure,
        grid: PositionGrid,
        smoothing_delta: float = 0.0,
        mode: str = "auto",
    ):
        self.measure = measure
        self.grid = grid
        self.smoothing_delta = float(smoothing_delta)
        self.q_field = _gradient_field(
            measure, grid.points, grid.reflection_index, smoothing_delta, mode
        )
        boundary = grid.boundary_mask()
        norms = np.linalg.norm(self.q_field, 2, axis=(1, 2))
        self.tail_magnitude = float(norms[boundary].max()) if boundary.any() else float(norms.max())

    def evaluate(self, p) -> np.ndarray:
        """``Qhat(p)``, Krein symmetric up to quadrature rounding."""
        return self.evaluate_many(_four_vector(p, "p")[None])[0]

    __call__ = evaluate

    def evaluate_many(self, ps: np.ndarray) -> np.ndarray:
        """``Qhat`` at each row of ``ps``, stacked along the first axis."""
        ps = np.atleast_2d(np.asarray(ps, float))
        # A stack of matrix-vector products rounds each momentum's phases the
        # same way whatever the batch size; a matrix product would not.
        phases = self.grid.weights * np.exp(-1j * self.grid.points @ ps[:, :, None])[:, :, 0]
        qhat = np.einsum("kx,xab->kab", phases, self.q_field)
        sig = self.measure.space.signature
        adj = sig[None, :, None] * qhat.conj().transpose(0, 2, 1) * sig[None, None, :]
        defect = np.linalg.norm(qhat - adj, 2, axis=(1, 2))
        scale = np.maximum(np.linalg.norm(qhat, 2, axis=(1, 2)), 1.0)
        if np.any(defect > 1e-8 * scale):
            raise NumericalError(
                f"Fourier gradient lost Krein symmetry (defect {defect.max():.2e})"
            )
        return 0.5 * (qhat + adj)


def fourier_Q_hat(
    measure: OperatorMeasure,
    grid: PositionGrid,
    p,
    smoothing_delta: float = 0.0,
    mode: str = "auto",
) -> np.ndarray:
    """One-shot ``Qhat(p)``; build a :class:`QHatEvaluator` for many ``p``."""
    p = _four_vector(p, "p")  # before the costly build
    evaluator = QHatEvaluator(measure, grid, smoothing_delta=smoothing_delta, mode=mode)
    return evaluator.evaluate_many(p[None])[0]
