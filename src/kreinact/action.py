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
chain: for a diagonalizable chain, ``dL = Re Tr(G dA)`` with
``G = R diag(g_i conj(lambda_i)/m_i) R^{-1}`` (``g_i = dL/dm_i``), Krein
symmetrized to ``N = (G + G^*)/2``, giving ``Q(xi) = P_+(xi) N(-xi)`` with
``P_+ = -P``.  Equal eigenvalues share their coefficient, so ``G`` is the sum
of coefficients times the clusters' Riesz projections, whatever basis ``R``
holds inside a cluster (Kato, *Perturbation Theory*, II 1.4).  At
``delta = 0`` the vanishing moduli form a zero cluster, where ``|.|`` is not
differentiable.  The cluster gets coefficient 0 where its Riesz projection
annihilates the kernel on both sides, so that it moves only at second order
(Kato, II 2.3; every chain of a face measure ``diag(B_j, 0)``), and where
every modulus vanishes.  Any other zero cluster is a kink, and a defective
chain (ill-conditioned ``R``) has no such derivative: both raise
:class:`~kreinact.errors.NonsmoothPointError`, which names the cause, at
the first point of the first such kernel class.  The eigen-derivatives are
batched over the point set (one stacked ``eig`` and ``inv``).
The chains at ``xi`` and ``-xi`` are ``X X^*`` and ``X^* X`` with
``X = P_+(xi)``, and ``N`` is a polynomial in its chain, so ``L(-xi) = L(xi)``
and ``Q(xi) = X N(-xi) = N(xi) X = Q(-xi)^*`` (Higham, *Functions of
Matrices*, Cor. 1.34).  Chains are solved once per reflection pair, at its
lexicographically smaller point, and once for all pairs with the same
kernel: ``P`` depends on ``xi`` only through the phases ``p_j . xi``, so
where all atoms have a zero coordinate along a position axis with more than
one point, the points along it share their chain.  Points are grouped by
bitwise equal phases, so the results are those of one solve per point to
the bit.  Both sums over phases, the kernels ``P_+`` and the Fourier sum
of ``Qhat``, are stacks of BLAS matrix-vector products (:func:`_phase_sum`),
one per row, so each row rounds as it would alone: ``evaluate(p)`` equals
its row of ``evaluate_many`` and a one-point field its row of a grid's to
the bit.  One 2-D matrix product would be faster still, but the rows of a
matrix product round differently from the same rows taken alone.  The
chain ``eig`` of the field, the chain ``eigvals`` of :func:`action` and
the ``exp`` of the kernel-phase table are each one call per stack, on the
calling thread: no module starts a thread, since on a two-core machine an
unpinned second thread mostly shares the caller's core and gains nothing.  The
public entries check ``delta`` and 4-vectors; the array
cores :func:`_phase_sum`, :func:`_moduli`, :func:`_lagrangian` (values and
slopes, also of the face chains), :func:`_gradient_field` and :func:`_fourier_qhat`,
which the minimizer's face descent calls and :class:`QHatEvaluator` wraps,
take them checked.

The package re-exports the function :func:`action` under this module's
name, so ``import kreinact.action as m`` binds the function, not the
module, and attributes set through ``m`` change nothing here.
``importlib.import_module("kreinact.action")`` returns the module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import NonsmoothPointError, ValidationError, _check_count, _check_real, _entries, _four_vector, _reals
from .homomeasure import OperatorMeasure
from .krein import SignatureSpace, _adjoint, _max_spectral_norm, _squared_frobenius

__all__ = [
    "PositionGrid",
    "ClosedChainSpectrum",
    "kernel_P",
    "closed_chain",
    "lagrangian",
    "action",
    "gradient_kernel_Q",
    "QHatEvaluator",
]

# Frobenius condition number of the eigenvector matrix above which a chain is defective.
_EIGENBASIS_COND = 1e6


@dataclass(frozen=True)
class PositionGrid:
    """Symmetric quadrature grid on a position box ``[-R, R]^4``.

    ``reflection_index[i]`` is the index of ``-points[i]``; the construction
    in :meth:`from_box` makes the reflection exact in floating point.
    ``representatives`` index the lexicographically smaller point of each
    pair ``{xi, -xi}``; point ``i`` is in the pair ``orbit[i]``, and
    ``folded_weights`` sum each pair.
    """

    points: np.ndarray
    weights: np.ndarray
    reflection_index: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(_reals(self.points, "grid points"))
        weights = _reals(self.weights, "grid weights").ravel()
        refl = np.asarray(self.reflection_index, int).ravel()
        if points.shape[1:] != (4,) or len(weights) != len(points) or len(refl) != len(points):
            raise ValidationError("grid points, weights, reflection index must align (4-vectors)")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise ValidationError("grid points and weights must be finite")
        if np.any(weights <= 0):
            raise ValidationError("quadrature weights must be positive")
        if not np.array_equal(points[refl], -points):
            raise ValidationError("grid must be symmetric under xi -> -xi")
        if not np.array_equal(weights[refl], weights):
            raise ValidationError("weights must be symmetric under xi -> -xi")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "reflection_index", refl)
        mirrored = ~_is_representative(points)
        reps = np.nonzero(~mirrored)[0]
        orbit = np.searchsorted(reps, np.where(mirrored, refl, np.arange(len(points))))
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "folded_weights", np.bincount(orbit, weights))
        object.__setattr__(self, "orbit", orbit)

    @classmethod
    def from_box(cls, radius: float, shape) -> "PositionGrid":
        """Trapezoidal grid on ``[-radius, radius]^4`` with ``shape`` points per axis, in
        row-major order, so the reflection of point ``i`` is ``n - 1 - i``; each weight is
        the product of its four axis weights, multiplied left to right."""
        message = f"grid shape must be four positive integer counts, got {shape!r}"
        shape = tuple(_check_count(k, 1, message) for k in _entries(shape, 4, message))
        radius = _check_real(radius, "position box radius", 0)
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
        idx = np.indices(shape).reshape(4, -1)
        points = np.stack([a[i] for a, i in zip(axes, idx)], axis=1)
        w0, w1, w2, w3 = axis_weights
        weights = w0[idx[0]] * w1[idx[1]] * w2[idx[2]] * w3[idx[3]]
        refl = np.arange(idx.shape[1] - 1, -1, -1)
        return cls(points=points, weights=weights, reflection_index=refl)

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


def _is_representative(points: np.ndarray) -> np.ndarray:
    """Rows ``xi`` lexicographically at most ``-xi``: one of each pair, and ``0``."""
    # The sign of the first nonzero coordinate outweighs the later ones: 8 > 4 + 2 + 1.
    return np.sign(points) @ np.array([8.0, 4.0, 2.0, 1.0]) <= 0


def _kernel_phases(momenta: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``e^{i xi . p_j}`` with one row per position ``xi`` and one column per atom ``p_j``."""
    # Real phases first: the complex product of imaginary points costs far more.
    return np.exp(1j * (points @ momenta.T))


def _phase_sum(phases: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum_j phases[r, j] stack[j]`` for each row ``r`` of a phase table: the kernels
    ``P_+(xi) = sum_j exp(i p_j . xi) A_j`` of a :func:`_kernel_phases` table, or
    half of ``Qhat`` from a :meth:`_SupportTables.fourier_phases` table and a field.
    One BLAS matrix-vector product per row, so each row rounds as it would alone."""
    d = stack.shape[-1]
    return (phases[:, None, :] @ stack.reshape(len(stack), d * d)).reshape(len(phases), d, d)


class _SupportTables:
    """Phase tables of fixed atom momenta on a fixed position grid.

    A minimization run moves the atom operators, never their momenta or the
    grid, so it builds these once for its face solves, and :func:`action`
    and :class:`QHatEvaluator` take them in for its result.
    ``points`` are the grid's representatives, one per reflection pair, with
    their ``folded_weights``.  The kernel at a point depends on it only
    through the row of :func:`_kernel_phases`.  Points whose rows are
    bitwise equal share one kernel class, so its chain is solved once: one
    pass over the rows numbers the classes by their first points
    ``class_firsts``, ``kernel_phases`` holds one row per class in that
    order, ``kernel_class[i]`` is point ``i``'s class and ``class_weights``
    sums the folded weights of each class, so :meth:`integral` takes one
    value per class.  Where all atoms have a zero coordinate along a
    position axis with more than one point, the points along it share a
    class; other exact coincidences of the phases merge points too.
    """

    def __init__(self, momenta: np.ndarray, grid: PositionGrid):
        self.points = grid.points[grid.representatives]
        self.folded_weights = grid.folded_weights
        phases = _kernel_phases(momenta, self.points)
        # Rows as raw bytes, so that equal means bitwise equal.  Without atoms all rows are empty.
        index = {}
        self.kernel_class = np.array([index.setdefault(row.tobytes(), len(index)) for row in phases], int)
        self.class_firsts = np.unique(self.kernel_class, return_index=True)[1]
        self.kernel_phases = phases[self.class_firsts]
        self.class_weights = np.bincount(self.kernel_class, self.folded_weights)
        # The origin's rows, whose field is Krein symmetrized; the one origin
        # point of a box grid is a slice, which indexes faster.
        origin = np.nonzero(~self.points.any(axis=1))[0]
        self.origin_rows = slice(origin[0], origin[0] + 1) if len(origin) == 1 else origin

    def integral(self, values: np.ndarray) -> float:
        """``sum_xi w(xi) f(xi)`` over the grid, from one value ``f`` per kernel class:
        one dot product with ``class_weights``."""
        return float(np.dot(self.class_weights, values))

    def fourier_phases(self, ps: np.ndarray) -> np.ndarray:
        """``(fw_r / 2) e^{-i p . xi_r}``, one row per momentum ``p`` of ``ps``."""
        # A stack of matrix-vector products rounds each momentum's phases the
        # same way whatever the batch size, as :func:`_phase_sum` then rounds
        # its Fourier sum; a matrix product would not.
        return 0.5 * self.folded_weights * np.exp(-1j * self.points @ ps[:, :, None])[:, :, 0]


def kernel_P(measure: OperatorMeasure, xi) -> np.ndarray:
    """Kernel ``P(xi) = -sum_j exp(i p_j . xi) A_j``."""
    xi = _four_vector(xi, "xi")
    return -_phase_sum(_kernel_phases(measure.momenta, xi[None]), measure.operators)[0]


def closed_chain(P: np.ndarray, space: SignatureSpace) -> ClosedChainSpectrum:
    """Closed chain ``A = P P^*`` with its dense eigenvalue multiset."""
    P = space.check_operator(P)
    chain = P @ _adjoint(P, space.signature)
    lams = np.linalg.eigvals(chain)
    order = np.lexsort((lams.imag, lams.real))
    return ClosedChainSpectrum(lambdas=lams[order], chain=chain)


def _check_delta(delta, name: str = "smoothing delta") -> float:
    return _check_real(delta, name, 0, strict=False)


def _moduli(lambdas: np.ndarray, delta: float) -> np.ndarray:
    return np.sqrt(np.abs(lambdas) ** 2 + delta**2)


def _lagrangian(m: np.ndarray, zeros: int = 0, delta: float = 0.0):
    """Causal Lagrangian of each row of chain :func:`_moduli` ``m`` and its slopes
    ``g_i = dL/dm_i = 2 m_i - (sum_j m_j) / n``, the 2n moduli being the row's and
    ``zeros`` more equal to ``delta``: the face chains ``diag(H, 0)`` pass the n moduli
    of ``H`` and ``zeros = n``.  The zeros enter the sums in closed form, over the
    rounded ``m_i``, so rounding cancels where the moduli nearly agree; ``zeros = 0``
    adds an exact ``0.0``."""
    n = (m.shape[-1] + zeros) // 2
    total = m.sum(axis=-1, keepdims=True) + zeros * delta
    values = np.maximum((m * m).sum(axis=-1) + zeros * delta**2 - total[..., 0] ** 2 / (2 * n), 0.0)
    return values, 2.0 * m - total / n


def lagrangian(spectrum: ClosedChainSpectrum, smoothing_delta: float = 0.0) -> float:
    """Causal Lagrangian ``(1/4n) sum_{ij} (m_i - m_j)^2 >= 0``."""
    return float(_lagrangian(_moduli(spectrum.lambdas, _check_delta(smoothing_delta)))[0])


def _chain_field(operators: np.ndarray, sig: np.ndarray, phases: np.ndarray):
    """Batched kernels and chains from a :func:`_kernel_phases` table: returns (P_plus, chains)."""
    Pp = _phase_sum(phases, operators)
    return Pp, Pp @ _adjoint(Pp, sig)


def _chain_solve(operators: np.ndarray, sig: np.ndarray, phases: np.ndarray, delta: float):
    """``(P_plus, chains, lams, R, m)``: kernels, chains, the stacked ``eig`` (one
    call) of a phase table, and the moduli of its eigenvalues."""
    Pp, chains = _chain_field(operators, sig, phases)
    lams, R = np.linalg.eig(chains)
    return Pp, chains, lams, R, _moduli(lams, delta)


def action(
    measure: OperatorMeasure, grid: PositionGrid, smoothing_delta: float = 0.0, *, _support=None
) -> float:
    """Discretized homogeneous action ``sum_xi w(xi) L(xi)``."""
    delta = _check_delta(smoothing_delta)
    support = _support or _SupportTables(measure.momenta, grid)
    _, chains = _chain_field(measure.operators, measure.space.signature, support.kernel_phases)
    return support.integral(_lagrangian(_moduli(np.linalg.eigvals(chains), delta))[0])


# ---------------------------------------------------------------------------
# Gradient kernel
# ---------------------------------------------------------------------------

def _eig_gradient_factors(Pp, chains, lams, R, m, space: SignatureSpace, delta: float):
    """Krein-symmetrized factors N of dL = Re Tr(G dA) from :func:`_chain_solve`'s
    kernels ``Pp``, chains, their ``eig`` pair ``(lams, R)`` and moduli ``m``.

    Returns ``(factors, ok, defective)``; ``ok`` marks the chains whose factor
    is the derivative.  A chain is rejected if its eigenvector matrix ``R`` is
    ill-conditioned (a defective chain, marked in ``defective``).  Equal
    eigenvalues are valid: they share ``g_i``.  With ``delta = 0`` the moduli
    at most ``MODULUS_GAP`` times the chain's norm form its zero cluster,
    where ``|.|`` is not differentiable.  The cluster gets coefficient 0 if
    every modulus vanishes (every slope is 0), or if its Riesz projection
    ``Pi_0 = R[:, z] R^{-1}[z, :]`` annihilates the kernel on both sides,
    ``Pi_0 P_+ = 0 = P_+^* Pi_0`` to ``MODULUS_GAP`` of ``||P_+||``: then the
    first-order splitting ``Pi_0 dA Pi_0`` of ``dA = dP P_+^* + P_+ dP^*``
    vanishes and the cluster moves only at second order (Kato, *Perturbation
    Theory*, II 2.3).  Otherwise the chain is rejected: a kink.
    """
    d = space.dim
    ok = np.ones(len(R), bool)
    try:
        R_inv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        # An exactly singular R has a zero LU pivot: inv raises for the whole
        # stack, slogdet reports it per matrix.  Rejected rows get harmless stand-ins.
        ok &= np.linalg.slogdet(R)[0] != 0
        R = np.where(ok[:, None, None], R, np.eye(d))
        R_inv = np.linalg.inv(R)
    ok &= _squared_frobenius(R) * _squared_frobenius(R_inv) < _EIGENBASIS_COND**2
    defective = ~ok
    zero = np.zeros(m.shape, bool)
    if delta == 0.0:
        zero = m <= tolerances.MODULUS_GAP * np.linalg.norm(chains, 2, axis=(1, 2))[:, None]
        mixed = np.nonzero(ok & zero.any(axis=1) & ~zero.all(axis=1))[0]
        if len(mixed):
            X = Pp[mixed]
            riesz = (R[mixed] * zero[mixed, None, :]) @ R_inv[mixed]
            bound = tolerances.MODULUS_GAP * np.linalg.norm(X, 2, axis=(1, 2))
            ok[mixed] = (np.linalg.norm(riesz @ X, 2, axis=(1, 2)) <= bound) & (
                np.linalg.norm(_adjoint(X, space.signature) @ riesz, 2, axis=(1, 2)) <= bound)
    c = np.divide(_lagrangian(m)[1] * lams.conj(), m, out=np.zeros(lams.shape, complex), where=~zero)
    G = R @ (c[:, :, None] * R_inv)
    return 0.5 * (G + _adjoint(G, space.signature)), ok, defective


def _gradient_field(operators: np.ndarray, space: SignatureSpace, support: _SupportTables, delta: float):
    """Gradient kernel ``Q = N P_+`` at each of ``support.points``, from one chain per kernel class.

    The factors are :func:`_eig_gradient_factors`'.  A chain they reject is a
    defective chain or a kink of the Lagrangian: the field raises
    :class:`~kreinact.errors.NonsmoothPointError`, naming which, at the first
    point of the first rejected class.
    """
    sig = space.signature
    solved = _chain_solve(operators, sig, support.kernel_phases, delta)
    factors, ok, defective = _eig_gradient_factors(*solved, space, delta)
    if not ok.all():
        first = np.argmin(ok)
        if defective[first]:
            message = "defective chain (ill-conditioned eigenbasis)"
        else:
            message = "zero cluster the kernel does not annihilate (kink)"
        if delta == 0:
            message += "; use a positive smoothing delta (smoothing_delta / --smoothing-delta)"
        raise NonsmoothPointError(message, xi=support.points[support.class_firsts[first]])
    q_field = (factors @ solved[0])[support.kernel_class]
    # Q(0) = Q(0)^*, which N P_+ meets only up to rounding.
    fixed = support.origin_rows
    q_field[fixed] = 0.5 * (q_field[fixed] + _adjoint(q_field[fixed], sig))
    return q_field


def gradient_kernel_Q(measure: OperatorMeasure, xi, smoothing_delta: float = 0.0) -> np.ndarray:
    """Gradient kernel ``Q(xi)`` of the (possibly smoothed) Lagrangian.

    The field on the pair grid ``{xi, -xi}``: its one row is ``Q`` at the
    representative, so ``Q(xi)^* = Q(-xi)`` holds exactly.  Genuinely
    nonsmooth points raise :class:`~kreinact.errors.NonsmoothPointError` carrying ``xi``.
    """
    xi = _four_vector(xi, "xi")
    grid = PositionGrid(np.stack([xi, -xi]), np.ones(2), [1, 0])
    try:
        q = _gradient_field(measure.operators, measure.space, _SupportTables(measure.momenta, grid),
                            _check_delta(smoothing_delta))[0]
    except NonsmoothPointError as err:
        raise NonsmoothPointError(str(err), xi=xi) from None
    return q if grid.representatives[0] == 0 else _adjoint(q, measure.space.signature)


class QHatEvaluator:
    """Precomputed gradient field on a grid with Fourier evaluation.

    ``q_field`` holds ``Q`` at ``grid.representatives``, one row per reflection
    pair, from one chain solve per distinct kernel.
    ``Qhat(p) = sum_xi w(xi) Q(xi) e^{-i p.xi}`` is ``K + K^*`` with
    ``K(p) = sum_r (fw_r / 2) Q(xi_r) e^{-i p.xi_r}`` over the representatives'
    folded weights, since the term of ``-xi`` is the Krein adjoint of that of
    ``xi``.  ``tail_magnitude`` reports ``max ||Q(xi)||_2`` over the boundary
    of the position box — a diagnostic for how well the truncated box captures
    the decay of the gradient kernel (integrability cannot be asserted on a
    finite box, only reported).  ``_support`` passes in the measure's
    :class:`_SupportTables` on ``grid``, else the evaluator builds its own.
    """

    def __init__(
        self,
        measure: OperatorMeasure,
        grid: PositionGrid,
        smoothing_delta: float = 0.0,
        *,
        _support=None,
    ):
        self.measure = measure
        self.grid = grid
        self.smoothing_delta = _check_delta(smoothing_delta)
        self._support = _support or _SupportTables(measure.momenta, grid)
        self.q_field = _gradient_field(measure.operators, measure.space, self._support, self.smoothing_delta)

    @functools.cached_property
    def tail_magnitude(self) -> float:
        return _tail_magnitude(self.q_field, self.grid)

    def evaluate(self, p) -> np.ndarray:
        """``Qhat(p)``, Krein symmetric to the bit."""
        phases = self._support.fourier_phases(_four_vector(p, "p")[None])
        return _fourier_qhat(phases, self.q_field, self.measure.space.signature)[0]

    __call__ = evaluate

    def evaluate_many(self, ps: np.ndarray) -> np.ndarray:
        """``Qhat`` at each row of ``ps``, stacked along the first axis."""
        ps = _four_vector(np.atleast_2d(ps), "momenta", ndim=2)
        return _fourier_qhat(self._support.fourier_phases(ps), self.q_field, self.measure.space.signature)


def _fourier_qhat(phases: np.ndarray, q_field: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``Qhat`` at the momenta of a :meth:`_SupportTables.fourier_phases` table, from ``Q`` on its points."""
    half = _phase_sum(phases, q_field)
    return half + _adjoint(half, sig)


def _tail_magnitude(q_field: np.ndarray, grid: PositionGrid) -> float:
    """``max ||Q(xi)||_2`` over the boundary of the position box, from the field at ``grid.representatives``."""
    # ||Q(-xi)||_2 = ||Q(xi)||_2 on the symmetric, never empty boundary
    # (all points on a degenerate box), so its representatives suffice.
    return _max_spectral_norm(q_field[grid.boundary_mask()[grid.representatives]])
