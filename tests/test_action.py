"""Tests for position grids, kernels, the spectral action, and its gradients."""

import concurrent.futures
import importlib
import multiprocessing
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_rng,
    oracle_gradient_field,
    random_measure_for,
    random_positive,
    random_symmetric,
    representative_field,
    unit_momentum_box,
)
from kreinact import (
    MinimizeConfig,
    MomentumBox,
    NonsmoothPointError,
    OperatorMeasure,
    PositionGrid,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    action,
    closed_chain,
    gradient_kernel_Q,
    kernel_P,
    krein_adjoint,
    lagrangian,
    minimize_action,
    random_measure,
    restore_constraints,
    scale,
    translate,
)
from kreinact.action import (
    _chain_field,
    _chain_solve,
    _eig_gradient_factors,
    _kernel_phases,
    _phase_sum,
    _row_blocks,
    _SupportTables,
)
from kreinact.minimize import _FixedSupport

# The package exports the function ``action`` under the submodule's name.
action_module = importlib.import_module("kreinact.action")


# ---------------------------------------------------------------------------
# PositionGrid
# ---------------------------------------------------------------------------

def test_grid_symmetric_under_reflection():
    grid = PositionGrid.from_box(2.0, (4, 3, 1, 2))
    refl = grid.reflection_index
    np.testing.assert_allclose(grid.points[refl], -grid.points, atol=1e-14)
    np.testing.assert_allclose(grid.weights[refl], grid.weights, atol=1e-14)
    assert np.all(grid.weights > 0)


@pytest.mark.parametrize("shape, pairs", [((4, 3, 1, 2), 12), ((7, 3, 3, 1), 32), ((1, 1, 1, 1), 1)])
def test_box_grid_representatives_are_the_first_of_each_pair(shape, pairs):
    grid = PositionGrid.from_box(2.0, shape)
    refl = grid.reflection_index
    np.testing.assert_array_equal(grid.representatives, np.nonzero(np.arange(grid.n_points) <= refl)[0])
    assert len(grid.representatives) == pairs
    np.testing.assert_array_equal(grid.representatives[grid.orbit[refl]], grid.representatives[grid.orbit])
    assert grid.folded_weights.sum() == pytest.approx(grid.volume, rel=1e-14)


def test_grid_weights_sum_to_volume():
    grid = PositionGrid.from_box(1.5, (5, 4, 1, 1))
    assert grid.weights.sum() == pytest.approx(grid.volume, rel=1e-12)


def test_grid_single_point_axes_at_origin():
    grid = PositionGrid.from_box(3.0, (5, 1, 1, 1))
    np.testing.assert_allclose(grid.points[:, 1:], 0.0, atol=0)


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (5, 1, 1, 1), (5, 5, 5, 9)])
def test_grid_boundary_mask_is_never_empty(shape):
    grid = PositionGrid.from_box(2.0, shape)
    mask = grid.boundary_mask()
    assert mask.any()
    # The extreme points of the box are always on its boundary.
    extreme = np.all(np.abs(grid.points) == np.abs(grid.points).max(axis=0), axis=1)
    assert mask[extreme].all()


def _misaligned(points, weights):
    return points, weights[:-1]


def _zero_weight(points, weights):
    weights[1] = 0.0
    return points, weights


def _moved_point(points, weights):
    points[0, 1] += 0.25
    return points, weights


def _doubled_weight(points, weights):
    weights[0] *= 2.0
    return points, weights


@pytest.mark.parametrize("corrupt, message", [
    (_misaligned, "must align"),
    (_zero_weight, "weights must be positive"),
    (_moved_point, "grid must be symmetric"),
    (_doubled_weight, "weights must be symmetric"),
])
def test_grid_rejects_inconsistent_points_and_weights(corrupt, message):
    grid = PositionGrid.from_box(1.0, (3, 2, 1, 1))
    points, weights = corrupt(grid.points.copy(), grid.weights.copy())
    with pytest.raises(ValidationError, match=message):
        PositionGrid(points, weights, grid.reflection_index)


def test_grid_rejects_a_shape_of_three_counts_and_a_radius_beyond_every_float():
    with pytest.raises(ValidationError, match="grid shape must be four positive integer counts"):
        PositionGrid.from_box(1.0, (3, 1, 1))
    with pytest.raises(ValidationError, match="position box radius is too large for a float"):
        PositionGrid.from_box(10**400, (3, 1, 1, 1))


def test_grid_rejects_bad_shape():
    with pytest.raises(ValidationError):
        PositionGrid.from_box(1.0, (0, 1, 1, 1))
    with pytest.raises(ValidationError):
        PositionGrid.from_box(-1.0, (3, 1, 1, 1))
    for radius in (np.nan, np.inf, -np.inf):
        for shape in ((1, 1, 1, 1), (3, 1, 1, 1)):
            with pytest.raises(ValidationError, match="radius"):
                PositionGrid.from_box(radius, shape)
    origin = [[0.0, 0.0, 0.0, 0.0]]
    for weight in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="finite"):
            PositionGrid(origin, [weight], [0])
    with pytest.raises(ValidationError, match="finite"):
        PositionGrid([[np.nan, 0.0, 0.0, 0.0]], [1.0], [0])


# ---------------------------------------------------------------------------
# Kernels and closed chain
# ---------------------------------------------------------------------------

def test_kernel_reflection_adjoint_property():
    # P(xi)^* = P(-xi) pointwise
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(0))
    rng = make_rng(1)
    for _ in range(5):
        xi = rng.standard_normal(4)
        P1 = kernel_P(meas, xi)
        P2 = kernel_P(meas, -xi)
        np.testing.assert_allclose(krein_adjoint(P1, sp), P2, atol=1e-12)


def test_kernel_at_origin_is_minus_total():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(2))
    np.testing.assert_allclose(kernel_P(meas, np.zeros(4)), -meas.total(), atol=1e-14)


def test_closed_chain_conjugation_closed_spectrum():
    # characteristic polynomial of the chain has real coefficients
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(3), n_atoms=3, shape=(3, 1, 1, 1))
    xi = np.array([0.6, 0.1, -0.2, 0.0])
    spectrum = closed_chain(kernel_P(meas, xi), sp)
    coeffs = np.poly(spectrum.lambdas)
    assert np.abs(coeffs.imag).max() < 1e-8 * max(1.0, np.abs(coeffs).max())


def test_closed_chain_single_atom_constant_in_xi():
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A = random_positive(sp, make_rng(4))
    meas = OperatorMeasure(sp, box, np.array([[0.5, 0, 0, 0]]), [A])
    s0 = closed_chain(kernel_P(meas, np.zeros(4)), sp)
    s1 = closed_chain(kernel_P(meas, np.array([1.3, 0, 0, 0])), sp)
    np.testing.assert_allclose(np.sort(s0.lambdas), np.sort(s1.lambdas), atol=1e-12)


def test_lagrangian_matches_pairwise_difference_form():
    # L = (1/4n) sum_ij (|l_i| - |l_j|)^2 equals the sum-of-squares form
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(5), n_atoms=2)
    xi = np.array([0.8, 0.0, 0.3, 0.0])
    spectrum = closed_chain(kernel_P(meas, xi), sp)
    m = np.abs(spectrum.lambdas)
    n2 = len(m)
    pairwise = sum((mi - mj) ** 2 for mi in m for mj in m) / (2 * n2)
    assert lagrangian(spectrum) == pytest.approx(pairwise, rel=1e-12)


def test_lagrangian_zero_for_equal_moduli():
    sp = SignatureSpace(1)
    spectrum = closed_chain(np.diag([1.0, -1.0]).astype(complex), sp)
    assert lagrangian(spectrum) == pytest.approx(0.0, abs=1e-14)


def test_lagrangian_smoothing_delta_regularizes():
    sp = SignatureSpace(1)
    spectrum = closed_chain(np.diag([1.0, 0.0]).astype(complex), sp)
    exact = lagrangian(spectrum, 0.0)
    smooth = lagrangian(spectrum, 0.3)
    # moduli (1, 0) -> L=1/2; with delta: (sqrt(1.09), 0.3) -> smaller spread
    assert exact == pytest.approx(0.5, rel=1e-12)
    assert smooth < exact


# ---------------------------------------------------------------------------
# Action and symmetries
# ---------------------------------------------------------------------------

def test_action_translation_invariance_exact():
    sp = SignatureSpace(1)
    box = MomentumBox((-2, -1, -1, -1), (2, 1, 1, 1), (2, 1, 1, 2))
    meas = random_measure_for(sp, make_rng(6), n_atoms=3, shape=(2, 1, 1, 2))
    grid = PositionGrid.from_box(2.0, (4, 1, 1, 2))
    base = action(meas, grid)
    moved = translate(meas, [0.25, -0.1, 0.3, 0.0])
    assert action(moved, grid) == pytest.approx(base, rel=1e-13)


@given(st.sampled_from([0.5, 2.0]), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_action_quartic_homogeneity(lam, seed):
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(seed))
    grid = PositionGrid.from_box(1.5, (3, 1, 1, 1))
    base = action(meas, grid)
    scaled = action(scale(meas, lam), grid)
    assert scaled == pytest.approx(lam ** 4 * base, rel=1e-11)


# ---------------------------------------------------------------------------
# Gradient kernel Q
# ---------------------------------------------------------------------------

def _directional_fd(meas, grid_xi, D, h, delta=0.0):
    """d/dt L(P(xi) + t D) via Richardson extrapolation (independent oracle)."""
    sp = meas.space

    def value(t):
        P = kernel_P(meas, grid_xi) + t * D
        return lagrangian(closed_chain(P, sp), delta)

    c1 = (value(h) - value(-h)) / (2 * h)
    c2 = (value(h / 2) - value(-h / 2)) / h
    return (4 * c2 - c1) / 3


def _real_spectrum_point(meas, sp):
    """A xi on axis 0 where the chain has real, well-separated eigenvalues."""
    for x0 in np.linspace(0.0, 3.0, 61):
        xi = np.array([x0, 0.0, 0.0, 0.0])
        lam = closed_chain(kernel_P(meas, xi), sp).lambdas
        scale = np.abs(lam).max()
        if scale == 0:
            continue
        if np.abs(lam.imag).max() < 1e-12 * scale:
            gaps = np.abs(np.subtract.outer(np.abs(lam), np.abs(lam)))
            if gaps.max() > 0.05 * scale:
                return xi
    raise AssertionError("no real-spectrum probe point found")


def test_gradient_kernel_matches_directional_fd():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))
    rng = make_rng(9)
    xi = _real_spectrum_point(meas, sp)
    # perturbing the physical kernel P by D perturbs the plus kernel by -D,
    # so dL = -2 Re Tr(Q(-xi) D)
    Qm = gradient_kernel_Q(meas, -xi)
    for _ in range(6):
        D = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        fd = _directional_fd(meas, xi, D, 1e-5)
        pred = -2.0 * np.trace(Qm @ D).real
        assert pred == pytest.approx(fd, rel=2e-6, abs=1e-8)


def test_gradient_zero_on_spacelike_plateau():
    # conjugate-pair chains have equal moduli: L vanishes identically and the
    # gradient kernel is zero, as is the finite-difference oracle's
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))
    for x0 in np.linspace(0.0, 3.0, 61):
        xi = np.array([x0, 0.0, 0.0, 0.0])
        lam = closed_chain(kernel_P(meas, xi), sp).lambdas
        if np.abs(lam.imag).max() > 1e-3 * np.abs(lam).max():
            break
    else:
        raise AssertionError("no conjugate-pair point found")
    Qa = gradient_kernel_Q(meas, xi)
    Qf = oracle_gradient_field(meas, xi)[0]
    chain_scale = np.abs(lam).max()
    assert np.linalg.norm(Qa, 2) <= 1e-10 * chain_scale
    assert np.linalg.norm(Qf, 2) <= 1e-4 * chain_scale


def test_gradient_modes_agree():
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(10), n_atoms=2)
    xi = np.array([0.5, -0.3, 0.2, 0.1])
    Qa = gradient_kernel_Q(meas, xi)
    Qf = oracle_gradient_field(meas, xi)[0]
    np.testing.assert_allclose(Qa, Qf, rtol=0, atol=1e-7 * max(1.0, np.linalg.norm(Qa, 2)))


def test_gradient_symmetry_relation():
    # Q(xi)^* = Q(-xi)
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(11))
    xi = np.array([0.9, 0.1, 0.0, 0.2])
    Q1 = gradient_kernel_Q(meas, xi)
    Q2 = gradient_kernel_Q(meas, -xi)
    np.testing.assert_allclose(krein_adjoint(Q1, sp), Q2, atol=1e-10 * max(1.0, np.linalg.norm(Q1, 2)))


def test_gradient_smoothed_matches_fd():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(12))
    xi = np.array([0.4, 0.0, 0.0, 0.0])
    delta = 0.05
    Qa = gradient_kernel_Q(meas, xi, smoothing_delta=delta)
    Qf = oracle_gradient_field(meas, xi, delta)[0]
    np.testing.assert_allclose(Qa, Qf, atol=1e-7 * max(1.0, np.linalg.norm(Qa, 2)))


def _causal_boundary_point(meas, sp):
    """A xi on axis 0 where the n=1 chain spectrum turns from a real pair to a
    conjugate one: the sign change of the chain's discriminant ``tr^2 - 4 det``,
    bisected to rounding, where the chain is defective.  (A test on the
    eigenvalues' imaginary parts stops where their rounding crosses its
    threshold, 1e-10 away, where the chain is smooth.)"""

    def conjugate(x0):
        chain = closed_chain(kernel_P(meas, np.array([x0, 0, 0, 0])), sp).chain
        return np.trace(chain).real ** 2 < 4.0 * np.linalg.det(chain).real

    xs = np.linspace(0.0, 3.0, 61)
    flags = [conjugate(x) for x in xs]
    try:
        k = next(i for i in range(len(xs) - 1) if flags[i] != flags[i + 1])
    except StopIteration:
        raise AssertionError("no causal-boundary crossing found on the scan line")
    lo, hi = xs[k], xs[k + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if conjugate(mid) == flags[k]:
            lo = mid
        else:
            hi = mid
    return np.array([0.5 * (lo + hi), 0.0, 0.0, 0.0])


def test_gradient_kink_raises_nonsmooth():
    # the boundary between real-pair and conjugate-pair chain spectra is a
    # genuine kink of the exact Lagrangian: L grows linearly on the real
    # side and vanishes on the conjugate side.  There the chain is defective,
    # and the finite-difference oracle confirms the kink.
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))
    xstar = _causal_boundary_point(meas, sp)
    grid = PositionGrid(np.stack([np.zeros(4), xstar, -xstar]), np.ones(3), [0, 2, 1])
    with pytest.raises(NonsmoothPointError):
        oracle_gradient_field(meas, xstar)
    with pytest.raises(NonsmoothPointError) as err:
        gradient_kernel_Q(meas, xstar)
    np.testing.assert_array_equal(err.value.xi, xstar)
    assert "use a positive smoothing delta (smoothing_delta / --smoothing-delta)" in str(err.value)
    with pytest.raises(NonsmoothPointError) as err:
        gradient_kernel_Q(meas, -xstar)
    np.testing.assert_array_equal(err.value.xi, -xstar)
    # On a grid whose first point is smooth, the error names the kink pair's
    # representative -xstar, the grid point whose chain is solved.
    gradient_kernel_Q(meas, np.zeros(4))
    with pytest.raises(NonsmoothPointError) as err:
        QHatEvaluator(meas, grid)
    np.testing.assert_array_equal(err.value.xi, -xstar)


def test_gradient_zero_for_nilpotent_atom():
    # a single nilpotent atom has identically vanishing closed chain, so the
    # gradient kernel is zero (flat plateau, not a kink): every modulus
    # vanishes, and so does the finite-difference oracle's estimate
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A1 = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    meas = OperatorMeasure(sp, box, np.array([[0.0, 0, 0, 0]]), [A1])
    for Q in (gradient_kernel_Q(meas, np.zeros(4)), oracle_gradient_field(meas, np.zeros(4))[0]):
        assert np.linalg.norm(Q, 2) <= 1e-6


def test_finite_difference_field_keeps_small_chain_derivatives():
    # Scaled by 0.005 the kernels are small and Q is of order 1e-4: a
    # derivative floor that does not shrink with the chain zeroes about
    # half of the oracle's finite-difference entries.
    sp = SignatureSpace(2)
    box = MomentumBox((-1.0, -0.5, -0.5, -0.5), (1.0, 0.5, 0.5, 0.5), (3, 2, 1, 1))
    meas = random_measure(sp, box, 6, make_rng(0))
    meas = meas.with_operators(0.005 * meas.operators)
    grid = PositionGrid.from_box(3.0, (3, 1, 1, 1))
    exact = QHatEvaluator(meas, grid, smoothing_delta=1e-2).q_field
    fd = oracle_gradient_field(meas, grid.points[grid.representatives], 1e-2)
    assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()


def _partly_degenerate_measure():
    """Two atoms whose chain is the identity where their phases agree.

    ``A_j = S H_j`` with ``H_1 + H_2 = 1``: where ``(p_2 - p_1) . xi`` is a
    multiple of 2 pi the chain equals the identity (a double eigenvalue).
    At the other points of the grid below the phases are opposite and the
    chain is ``(S D)^2`` with ``D = H_1 - H_2`` definite: a simple spectrum
    with distinct moduli, so ``Q`` does not vanish there.
    """
    sp = SignatureSpace(1)
    H1 = np.array([[0.9, 0.05], [0.05, 0.7]], dtype=complex)
    ops = [sp.signature[:, None] * H1, sp.signature[:, None] * (np.eye(2) - H1)]
    half = np.array([np.pi / 3, np.pi / 6, 0.0, 0.0])
    box = MomentumBox((-2.0,) * 4, (2.0,) * 4, (2, 2, 1, 1))
    grid = PositionGrid.from_box(3.0, (3, 3, 1, 1))
    return OperatorMeasure(sp, box, [-half, half], ops), grid


def _assert_field_is_the_pointwise_kernel(ev, delta):
    """Row ``orbit[i]`` of ``q_field`` is ``Q`` at point ``i``'s representative
    and its Krein adjoint at the partner, to the bit."""
    grid = ev.grid
    assert len(ev.q_field) == len(grid.representatives)
    for i, xi in enumerate(grid.points):
        q = ev.q_field[grid.orbit[i]]
        if grid.representatives[grid.orbit[i]] != i:
            q = krein_adjoint(q, ev.measure.space)
        np.testing.assert_array_equal(q, gradient_kernel_Q(ev.measure, xi, delta))


def test_batched_gradient_field_matches_pointwise_kernel_at_degenerate_chains():
    meas, grid = _partly_degenerate_measure()
    degenerate = []
    for xi in grid.points:
        spectrum = closed_chain(kernel_P(meas, xi), meas.space)
        gap = abs(spectrum.lambdas[1] - spectrum.lambdas[0])
        degenerate.append(gap <= 1e-9 * np.linalg.norm(spectrum.chain, 2))
    degenerate = np.array(degenerate)
    assert degenerate.any() and not degenerate.all()
    assert not degenerate[0]
    for delta in (0.0, 1e-2):
        # The identity chain is diagonalizable: its double eigenvalue shares
        # one coefficient, and no point is rejected.
        ev = QHatEvaluator(meas, grid, smoothing_delta=delta)
        _assert_field_is_the_pointwise_kernel(ev, delta)


def _defective_chain_measure():
    """One nilpotent atom, slightly perturbed: a numerically defective chain.

    ``A = [[1, -1], [1, -1]]`` squares to zero.  Adding ``1e-8 diag(1, 0)``
    keeps ``S A`` psd, and the chain ``A A^*`` becomes a Jordan block up to
    rounding, so its eigenvector matrix is nearly singular at every point.
    """
    sp = SignatureSpace(1)
    A = np.array([[1.0 + 1e-8, -1.0], [1.0, -1.0]], dtype=complex)
    meas = OperatorMeasure(sp, unit_momentum_box(), np.array([[0.5, 0.0, 0.0, 0.0]]), [A])
    return meas, PositionGrid.from_box(3.0, (3, 1, 1, 1))


def test_analytic_gradient_rejects_defective_chains():
    meas, grid = _defective_chain_measure()
    for xi in grid.points:
        _, R = np.linalg.eig(closed_chain(kernel_P(meas, xi), meas.space).chain)
        assert np.linalg.norm(R) * np.linalg.norm(np.linalg.inv(R)) > 1e7
    for delta in (0.0, 1e-2):
        with pytest.raises(NonsmoothPointError) as err:
            QHatEvaluator(meas, grid, smoothing_delta=delta)
        np.testing.assert_array_equal(err.value.xi, grid.points[0])


def _rank_two_measure():
    """n=2 atoms ``A_j = S W C_j W^*`` sharing a 2-dimensional range.

    Every chain has rank 2: two eigenvalues vanish and coincide, while the
    eigenvector matrix stays well conditioned.
    """
    sp = SignatureSpace(2)
    rng = make_rng(21)
    W = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    ops = []
    for _ in range(3):
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops.append(0.02 * sp.signature[:, None] * (W @ C @ C.conj().T @ W.conj().T))
    box = MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 3, 1, 1))
    meas = OperatorMeasure(sp, box, box.grid_points()[[0, 4, 7]], ops)
    return meas, PositionGrid.from_box(2.0, (3, 3, 1, 1))


def test_gradient_exact_at_coinciding_zero_eigenvalues():
    # At delta = 0 the two zero eigenvalues are a zero cluster whose Riesz
    # projection annihilates the kernel, so it moves only at second order.
    meas, grid = _rank_two_measure()
    rng = make_rng(22)
    for delta in (1e-2, 0.0):
        for xi in grid.points:
            P = kernel_P(meas, xi)
            spectrum = closed_chain(P, meas.space)
            lam = spectrum.lambdas[np.argsort(np.abs(spectrum.lambdas))]
            norm = np.linalg.norm(spectrum.chain, 2)
            assert abs(lam[1]) <= 1e-12 * norm and abs(lam[2]) >= 0.1 * norm
            Qm = gradient_kernel_Q(meas, -xi, smoothing_delta=delta)
            for _ in range(3):
                D = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                h = 1e-5 * np.linalg.norm(P, 2) / np.linalg.norm(D, 2)
                fd = _directional_fd(meas, xi, D, h, delta)
                assert -2.0 * np.trace(Qm @ D).real == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize(
    "call",
    [
        lambda meas, grid, delta: action(meas, grid, delta),
        lambda meas, grid, delta: lagrangian(closed_chain(kernel_P(meas, grid.points[0]), meas.space), delta),
        lambda meas, grid, delta: gradient_kernel_Q(meas, grid.points[0], smoothing_delta=delta),
        lambda meas, grid, delta: QHatEvaluator(meas, grid, smoothing_delta=delta),
    ],
    ids=["action", "lagrangian", "gradient_kernel_Q", "QHatEvaluator"],
)
def test_negative_smoothing_delta_rejected(call):
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(13))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    for delta in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError):
            call(meas, grid, delta)


# ---------------------------------------------------------------------------
# Fourier transform Q-hat
# ---------------------------------------------------------------------------

def test_qhat_symmetric_and_matches_quadrature():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(14))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    ev = QHatEvaluator(meas, grid)
    p = meas.momenta[0]
    got = ev.evaluate(p)
    # independent quadrature from pointwise analytic kernels
    acc = np.zeros((2, 2), dtype=complex)
    for w, xi in zip(grid.weights, grid.points):
        acc += w * gradient_kernel_Q(meas, xi) * np.exp(-1j * np.dot(p, xi))
    sym = 0.5 * (acc + krein_adjoint(acc, sp))
    np.testing.assert_allclose(got, sym, atol=1e-9 * max(1.0, np.linalg.norm(sym, 2)))
    # symmetry of the result
    np.testing.assert_allclose(got, krein_adjoint(got, sp), atol=1e-10)


def test_qhat_evaluate_many_consistent():
    rng = make_rng(15)
    for n, shape in ((1, (5, 1, 1, 1)), (2, (5, 3, 3, 1))):
        sp = SignatureSpace(n)
        meas = random_measure_for(sp, rng)
        grid = PositionGrid.from_box(2.0, shape)
        ev = QHatEvaluator(meas, grid)
        ps = np.vstack([meas.momenta, [[0.0, 0, 0, 0]], rng.uniform(-1, 1, (3, 4))])
        many = ev.evaluate_many(ps)
        d = sp.dim
        for i, p in enumerate(ps):
            np.testing.assert_array_equal(many[i], ev.evaluate(p))
            # The per-momentum quadrature loop, one matrix-vector product as
            # in the stack: equal to the bit.
            phases = 0.5 * grid.folded_weights * np.exp(-1j * grid.points[grid.representatives] @ p)
            half = (phases @ ev.q_field.reshape(len(ev.q_field), d * d)).reshape(d, d)
            np.testing.assert_array_equal(many[i], half + krein_adjoint(half, sp))


def _certify_sized_case():
    """A random 27-atom n=2 measure on a (5,5,5,9) grid of 1125 points, the certify benchmark's size."""
    rng = make_rng(38)
    meas = random_measure_for(SignatureSpace(2), rng, n_atoms=27, shape=(3, 3, 3, 1))
    return meas, PositionGrid.from_box(3.0, (5, 5, 5, 9)), rng


def test_kernel_rows_round_as_alone_at_certify_size():
    # One matrix-vector product per row: each kernel of the full table is
    # the single-row call to the bit, which one 2-D matrix product is not.
    meas, grid, _ = _certify_sized_case()
    table = _kernel_phases(meas.momenta, grid.points)
    full = _phase_sum(table, meas.operators)
    for i in range(len(table)):
        assert full[i].tobytes() == _phase_sum(table[i : i + 1], meas.operators)[0].tobytes(), i


def test_qhat_and_field_rows_round_as_alone_at_certify_size():
    # evaluate(p) is its row of evaluate_many, and the grid's field at a
    # point is gradient_kernel_Q there, to the bit.
    meas, grid, rng = _certify_sized_case()
    ev = QHatEvaluator(meas, grid, smoothing_delta=1e-2)
    ps = np.vstack([meas.momenta, rng.uniform(-1.0, 1.0, (27, 4))])
    many = ev.evaluate_many(ps)
    for i, p in enumerate(ps):
        np.testing.assert_array_equal(many[i], ev.evaluate(p))
    for i in range(0, len(grid.points), 5):
        q = ev.q_field[grid.orbit[i]]
        if grid.representatives[grid.orbit[i]] != i:
            q = krein_adjoint(q, meas.space)
        np.testing.assert_array_equal(q, gradient_kernel_Q(meas, grid.points[i], 1e-2))


def _certify_benchmark_case():
    """The certify benchmark's measure: fixture random --n 2 --atoms 27 --grid 3,3,3,1
    --seed 3, restored to (c, f) = (0.5, 1), on the 1125-point grid of radius 2.5,
    whose 563 representatives carry 563 distinct kernels."""
    box = MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 3, 3, 1))
    measure = random_measure(SignatureSpace(2), box, 27, np.random.default_rng(3))
    return restore_constraints(measure, "b", 0.5, 1.0), PositionGrid.from_box(2.5, (5, 5, 5, 9))


def _certify_chains():
    """The certify case, its support tables and the chains of its 563 kernel classes."""
    measure, grid = _certify_benchmark_case()
    support = _SupportTables(measure.momenta, grid)
    return measure, support, _chain_field(measure.operators, measure.space.signature, support.kernel_phases)[1]


def _certify_field(cores):
    """The certify case's field and its Qhat at the atoms, with ``cores`` available cores."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(action_module, "_cores", lambda: cores)
        measure, grid = _certify_benchmark_case()
        ev = QHatEvaluator(measure, grid, smoothing_delta=1e-2)
        return ev.q_field, ev.evaluate_many(measure.momenta)


def test_row_blocks_give_the_whole_stack_results_at_certify_size(monkeypatch):
    # Every row of eig, eigvals and exp is computed alone, so the blocks
    # joined in row order are the one whole-stack call to the bit.
    monkeypatch.setattr(action_module, "_cores", lambda: 2)
    measure, support, chains = _certify_chains()
    assert len(chains) == 563
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    # The chain solve reads np.linalg.eig at each call, so a wrapper sees every block.
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eig", counted)
        lams, R = _chain_solve(measure.operators, measure.space.signature, support.kernel_phases, 1e-2)[2:4]
    assert shapes == [(282, 4, 4), (281, 4, 4)]
    whole = np.linalg.eig(chains)
    assert lams.tobytes() == whole.eigenvalues.tobytes() and R.tobytes() == whole.eigenvectors.tobytes()
    assert _row_blocks(np.linalg.eigvals, chains).tobytes() == np.linalg.eigvals(chains).tobytes()
    exponents = 1j * (support.points @ measure.momenta.T)
    assert _kernel_phases(measure.momenta, support.points).tobytes() == np.exp(exponents).tobytes()
    for split, alone in zip(_certify_field(2), _certify_field(1)):
        assert split.tobytes() == alone.tobytes()


def _thread_count_after(call, monkeypatch):
    """Threads alive after ``call`` beyond those before, with no pool started yet."""
    monkeypatch.setattr(action_module, "_pool", None)
    before = threading.active_count()
    call()
    assert action_module._pool is None
    return threading.active_count() - before


def test_small_stacks_and_one_core_start_no_thread(monkeypatch):
    shared, grid = _shared_kernel_case()
    small = lambda: (action(shared, grid, 1e-2), QHatEvaluator(shared, grid, smoothing_delta=1e-2))
    assert _thread_count_after(small, monkeypatch) == 0
    assert _thread_count_after(lambda: _certify_field(1), monkeypatch) == 0


def test_an_error_in_one_block_is_the_whole_calls_once_every_block_is_done(monkeypatch):
    chains = _certify_chains()[2]
    chains[200] = np.nan  # in the second of three blocks: rows 188-375
    with pytest.raises(np.linalg.LinAlgError) as whole:
        np.linalg.eig(chains)
    finished = []

    def slow_unless_failing(a):
        try:
            if np.isfinite(a).all():
                time.sleep(0.05)
            return np.linalg.eig(a)
        finally:
            finished.append(len(a))

    monkeypatch.setattr(action_module, "_cores", lambda: 3)
    monkeypatch.setattr(action_module, "_pool", None)
    try:
        with pytest.raises(np.linalg.LinAlgError) as split:
            _row_blocks(slow_unless_failing, chains)
        assert sorted(finished) == [187, 188, 188]
    finally:
        action_module._pool.shutdown()
    assert str(split.value) == str(whole.value)


def test_callers_racing_to_the_first_split_share_one_pool(monkeypatch):
    # More calling threads than cores, switched as often as the interpreter
    # allows, and a pool slow to make: one pool is made, and every caller
    # gets the whole call's values.
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            time.sleep(0.01)
            super().__init__(*args, **kwargs)

    chains = _certify_chains()[2]
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(action_module, "_cores", lambda: 2)
    monkeypatch.setattr(action_module, "_pool", None)
    results = []
    start = threading.Barrier(8, timeout=60)

    def call():
        start.wait()
        results.append(_row_blocks(np.linalg.eigvals, chains).tobytes())

    callers = [threading.Thread(target=call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(caller.is_alive() for caller in callers)
    assert len(made) == 1
    assert results == [np.linalg.eigvals(chains).tobytes()] * 8


def _send_certify_field(connection):
    connection.send(_certify_field(2)[0])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_forked_child_starts_its_own_threads():
    # The parent's worker does not live on in a fork; a child handed the
    # parent's pool would wait on it forever.
    parent_field = _certify_field(2)[0]
    assert action_module._pool is not None
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_certify_field, args=(sender,))
    child.start()
    try:
        assert receiver.poll(60), "the forked child did not build the field within 60 s"
        assert receiver.recv().tobytes() == parent_field.tobytes()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_phase_sums_over_no_atoms_or_no_momenta_are_empty():
    # The stack is reshaped to (k, d*d) with d*d explicit: reshape(0, -1) raises.
    sp = SignatureSpace(2)
    grid = PositionGrid.from_box(2.0, (5, 3, 1, 1))
    empty = OperatorMeasure(sp, unit_momentum_box((3, 3, 3, 1)), np.zeros((0, 4)), np.zeros((0, 4, 4)))
    np.testing.assert_array_equal(_phase_sum(_kernel_phases(empty.momenta, grid.points), empty.operators),
                                  np.zeros((grid.n_points, 4, 4)))
    np.testing.assert_array_equal(kernel_P(empty, [0.5, 0.0, 0.0, 0.0]), np.zeros((4, 4)))
    ev = QHatEvaluator(empty, grid, smoothing_delta=1e-2)
    assert not ev.q_field.any() and action(empty, grid, 1e-2) == 0.0
    np.testing.assert_array_equal(ev.evaluate([0.5, 0.0, 0.0, 0.0]), np.zeros((4, 4)))
    meas = random_measure_for(sp, make_rng(39))
    assert QHatEvaluator(meas, grid).evaluate_many(np.zeros((0, 4))).shape == (0, 4, 4)


def test_qhat_is_krein_symmetric_and_the_full_grid_quadrature():
    # K + K^* over the reflection pairs is Qhat = sum_xi w(xi) Q(xi) e^{-i p.xi}
    # over every grid point, and Krein symmetric to the bit.
    rng = make_rng(15)
    for n, shape in ((1, (5, 1, 1, 1)), (2, (5, 3, 3, 1))):
        sp = SignatureSpace(n)
        meas = random_measure_for(sp, rng)
        grid = PositionGrid.from_box(2.0, shape)
        ev = QHatEvaluator(meas, grid, smoothing_delta=1e-2)
        field = np.array([gradient_kernel_Q(meas, xi, smoothing_delta=1e-2) for xi in grid.points])
        ps = np.vstack([[[0.0, 0, 0, 0]], meas.momenta, rng.uniform(-1, 1, (3, 4))])
        for p, qhat in zip(ps, ev.evaluate_many(ps)):
            np.testing.assert_array_equal(krein_adjoint(qhat, sp), qhat)
            full = np.einsum("x,xab->ab", grid.weights * np.exp(-1j * grid.points @ p), field)
            assert np.linalg.norm(qhat - full, 2) <= 1e-13 * np.linalg.norm(full, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda meas, ev: ev.evaluate_many(np.zeros((2, 3))),
        lambda meas, ev: ev.evaluate_many(np.array([[0.0, 0, 0, 0], [np.nan, 0, 0, 0]])),
        lambda meas, ev: ev.evaluate([np.inf, 0, 0, 0]),
        lambda meas, ev: gradient_kernel_Q(meas, [np.nan, 0, 0, 0]),
        lambda meas, ev: kernel_P(meas, [np.inf, 0, 0, 0]),
    ],
    ids=["misshapen_stack", "nan_in_stack", "inf_momentum", "nan_xi", "inf_xi"],
)
def test_non_finite_or_misshapen_four_vectors_rejected(call):
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(16))
    ev = QHatEvaluator(meas, PositionGrid.from_box(2.0, (3, 1, 1, 1)))
    with pytest.raises(ValidationError):
        call(meas, ev)


# Odd counts put the origin on each grid, where the chain is timelike; at
# scale 0.3 the smoothing term at delta = 1 is 1-23 % of 4 S.
_IDENTITY_GRIDS = ((5, 1, 1, 1), (3, 3, 1, 3), (5, 3, 3, 1))


def _identity_cases(seed):
    """Random n=1 and n=2 measures of 6 atoms on three position grids."""
    rng = make_rng(seed)
    for n in (1, 2):
        for shape in _IDENTITY_GRIDS:
            meas = random_measure_for(SignatureSpace(n), rng, n_atoms=6, shape=(3, 2, 1, 2), scale=0.3)
            yield meas, PositionGrid.from_box(2.0, shape)


def _delta_derivative(meas, grid, delta):
    """``dS/d delta = sum_xi w(xi) sum_i (2 m_i - sum m / n) delta / m_i`` from the chain eigenvalues."""
    n = meas.space.n
    total = 0.0
    for w, xi in zip(grid.weights, grid.points):
        m = np.sqrt(np.abs(closed_chain(kernel_P(meas, xi), meas.space).lambdas) ** 2 + delta**2)
        total += w * np.sum((2.0 * m - m.sum() / n) * delta / m)
    return total


@pytest.mark.parametrize("delta", [0.0, 1e-2, 1.0])
def test_qhat_pairing_meets_the_radial_identity(delta):
    # The Lagrangian is homogeneous of degree 2 in the chain and the chain of
    # degree 2 in the measure, up to the smoothing delta, so scaling the
    # atoms by t gives 2 sum_j Tr(Qhat(p_j) A_j) = 4 S - 2 delta dS/d delta:
    # an exact check of the field against the action, without a step size.
    for meas, grid in _identity_cases(33):
        qhats = QHatEvaluator(meas, grid, smoothing_delta=delta).evaluate_many(meas.momenta)
        pairing = 2.0 * np.einsum("jab,jba->", qhats, meas.operators).real
        radial = 4.0 * action(meas, grid, delta)
        if delta:
            radial -= 2.0 * delta * _delta_derivative(meas, grid, delta)
        assert abs(pairing - radial) <= 1e-12 * abs(radial), (meas.space.n, grid.n_points)


@pytest.mark.parametrize("delta", [0.0, 1e-2, 1.0])
def test_trace_mirror_keeps_the_action_and_mirrors_qhat(delta):
    # Pi swaps the signature blocks, so Pi S Pi = -S and A -> -Pi A Pi keeps
    # the atoms positive and flips the sign of their trace.  The chains are
    # conjugated by Pi, so the action is unchanged and Qhat -> -Pi Qhat Pi.
    rng = make_rng(34)
    for meas, grid in _identity_cases(35):
        n = meas.space.n
        swap = np.roll(np.eye(2 * n), n, axis=0)
        mirror = meas.with_operators(-swap @ meas.operators @ swap)
        assert np.trace(mirror.total()).real == pytest.approx(-np.trace(meas.total()).real, rel=1e-14)
        value = action(meas, grid, delta)
        assert abs(action(mirror, grid, delta) - value) <= 1e-12 * value
        ps = np.vstack([meas.momenta, rng.uniform(-1.0, 1.0, (3, 4))])
        qhats = QHatEvaluator(meas, grid, smoothing_delta=delta).evaluate_many(ps)
        mirrored = QHatEvaluator(mirror, grid, smoothing_delta=delta).evaluate_many(ps)
        for qhat, other in zip(qhats, mirrored):
            assert np.linalg.norm(other + swap @ qhat @ swap, 2) <= 1e-12 * np.linalg.norm(qhat, 2)


def test_tail_magnitude_is_largest_boundary_norm():
    meas = random_measure_for(SignatureSpace(2), make_rng(19))
    for shape in ((1, 1, 1, 1), (5, 3, 3, 1)):
        grid = PositionGrid.from_box(2.0, shape)
        ev = QHatEvaluator(meas, grid, smoothing_delta=1e-2)
        boundary = grid.points[grid.boundary_mask()]
        expected = max(
            np.linalg.svd(gradient_kernel_Q(meas, xi, smoothing_delta=1e-2), compute_uv=False)[0]
            for xi in boundary
        )
        assert ev.tail_magnitude == pytest.approx(expected, rel=1e-14)


def test_tail_magnitude_decomposes_only_the_rows_the_bound_leaves_open(monkeypatch):
    measure, grid = _certify_benchmark_case()
    ev = QHatEvaluator(measure, grid, smoothing_delta=1e-2)
    boundary = ev.q_field[grid.boundary_mask()[grid.representatives]]
    assert len(boundary) == 468
    decomposed = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        decomposed.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    tail = ev.tail_magnitude
    monkeypatch.undo()
    assert len(decomposed) == 1 and decomposed[0] <= 40
    assert tail == np.linalg.norm(boundary, 2, axis=(1, 2)).max()


def _solve_cases():
    rng = make_rng(23)
    yield random_measure_for(SignatureSpace(1), rng), PositionGrid.from_box(2.0, (5, 1, 1, 1))
    yield (random_measure_for(SignatureSpace(2), rng, n_atoms=4, shape=(3, 2, 1, 1)),
           PositionGrid.from_box(3.0, (7, 3, 3, 1)))
    yield _partly_degenerate_measure()  # identity chains: a double eigenvalue
    yield _rank_two_measure()  # two coinciding zero eigenvalues at every point


def test_line_search_solve_gives_the_action_and_the_field():
    # A minimizer trial takes the action from one eigh of the face chains
    # K K^H and, on acceptance, builds the field Q_11 = Phi K of each kernel
    # class from the same solve, gathered here at the grid's representatives.
    # Both are the full-space action and field of diag(B_j, 0) to rounding,
    # also at delta = 0, where both give the chains' zero cluster
    # coefficient 0 (7.3e-16 relative at most, measured on these cases).
    # Off the positive block the full-space field is exactly 0.0.
    rng = make_rng(36)
    for config in (MinimizeConfig(n=1, c=0.5, f=1.0),
                   MinimizeConfig(n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1))):
        n = config.n
        for delta in (0.0, 1e-2, 1.0):
            run = _FixedSupport(replace(config, smoothing_delta=delta))
            shape = (len(run.momenta), n, n)
            Cs = run.restore(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            value, B, solved = run.solve(Cs)
            meas = OperatorMeasure(run.space, run.box, run.momenta, run.embed(B))
            expected = action(meas, run.grid, delta)
            assert abs(value - expected) <= 1e-13 * expected, (n, delta)
            full = QHatEvaluator(meas, run.grid, smoothing_delta=delta).q_field
            assert not full[:, n:].any() and not full[:, :, n:].any(), (n, delta)
            face = representative_field(run, run.field(*solved))
            assert np.abs(full[:, :n, :n] - face).max() <= 1e-14 * np.abs(face).max(), (n, delta)


@pytest.mark.parametrize("delta", [0.0, 1e-2, 1.0])
def test_qhat_of_a_face_measure_vanishes_off_the_positive_block(delta):
    # Atoms diag(B_j, 0) keep the kernel and the chain in the positive
    # block, and the chain's zero block moves only at second order, so
    # Qhat is exactly 0.0 off that block, at the atoms and between them.
    rng = make_rng(37)
    for n, shape, grid_shape in ((1, (2, 1, 1, 1), (5, 1, 1, 1)), (2, (3, 2, 1, 1), (7, 3, 3, 1))):
        box = unit_momentum_box(shape)
        momenta = box.grid_points()
        C = rng.standard_normal((len(momenta), n, n)) + 1j * rng.standard_normal((len(momenta), n, n))
        operators = np.zeros((len(momenta), 2 * n, 2 * n), complex)
        operators[:, :n, :n] = C.conj().swapaxes(-1, -2) @ C
        measure = OperatorMeasure(SignatureSpace(n), box, momenta, operators)
        evaluator = QHatEvaluator(measure, PositionGrid.from_box(3.0, grid_shape), smoothing_delta=delta)
        qhats = evaluator.evaluate_many(np.vstack([momenta, rng.uniform(-1.0, 1.0, (5, 4))]))
        assert not qhats[:, n:].any() and not qhats[:, :, n:].any(), n
        assert qhats[:, :n, :n].any(), n


def test_run_tables_give_the_one_shot_results_to_the_bit():
    # A minimization run builds the support tables once and hands them to
    # the full-space action and field of its result; the one-shot calls
    # build their own.
    for meas, grid in _solve_cases():
        support = _SupportTables(meas.momenta, grid)
        for delta in (0.0, 1e-2):
            assert action(meas, grid, delta) == action(meas, grid, delta, _support=support)
            reused = QHatEvaluator(meas, grid, smoothing_delta=delta, _support=support)
            fresh = QHatEvaluator(meas, grid, smoothing_delta=delta)
            assert reused.q_field.tobytes() == fresh.q_field.tobytes()
            for ps in (meas.momenta, meas.momenta, meas.momenta + 0.25, meas.momenta):
                expected = np.stack([fresh.evaluate(p) for p in ps])
                assert fresh.evaluate_many(ps).tobytes() == expected.tobytes()
                assert reused.evaluate_many(ps).tobytes() == expected.tobytes()


def test_singular_eigenvector_matrix_rejects_only_its_row(monkeypatch):
    meas = random_measure_for(SignatureSpace(2), make_rng(28), n_atoms=4, shape=(3, 2, 1, 1))
    phases = _kernel_phases(meas.momenta, PositionGrid.from_box(3.0, (5, 3, 1, 1)).points)
    slogdet, screened = np.linalg.slogdet, []

    def counted(a):
        screened.append(len(a))
        return slogdet(a)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    for delta in (0.0, 1e-2):
        Pp, chains, lams, R, m = _chain_solve(meas.operators, meas.space.signature, phases, delta)
        singular = R.copy()
        singular[7][:, 1] = 0.0  # an exactly zero LU pivot: inv raises for the whole stack
        without = [np.delete(a, 7, axis=0) for a in (Pp, chains, lams, R, m)]
        screened.clear()
        clean, clean_ok = _eig_gradient_factors(Pp, chains, lams, R, m, meas.space, delta)
        assert clean_ok.all() and screened == []
        factors, ok = _eig_gradient_factors(Pp, chains, lams, singular, m, meas.space, delta)
        assert screened == [len(R)]
        assert not ok[7] and np.delete(ok, 7).all()
        expected = _eig_gradient_factors(*without, meas.space, delta)[0]
        assert np.delete(factors, 7, axis=0).tobytes() == expected.tobytes()
        assert np.delete(clean, 7, axis=0).tobytes() == expected.tobytes()


def test_gradient_factor_commutes_with_the_kernel_across_the_pair():
    # N(xi) P_+(xi) = P_+(xi) N(-xi): the chains at xi and -xi are X X^* and
    # X^* X with X = P_+(xi), and N is a polynomial in its chain.
    for meas, grid in _solve_cases():
        for delta in (0.0, 1e-2):
            sig = meas.space.signature
            solved = _chain_solve(meas.operators, sig, _kernel_phases(meas.momenta, grid.points), delta)
            reflected = _chain_solve(meas.operators, sig, _kernel_phases(meas.momenta, -grid.points), delta)
            Pp = solved[0]
            N, ok = _eig_gradient_factors(*solved, meas.space, delta)
            N_minus, ok_minus = _eig_gradient_factors(*reflected, meas.space, delta)
            both = ok & ok_minus
            scale = np.linalg.norm(N[both], 2, axis=(1, 2)) * np.linalg.norm(Pp[both], 2, axis=(1, 2))
            gap = np.linalg.norm(N[both] @ Pp[both] - Pp[both] @ N_minus[both], 2, axis=(1, 2))
            assert np.all(gap <= 1e-13 * scale)
            if delta > 0:
                assert both.all() and scale.max() > 0


def test_reordered_grid_gives_the_same_action_and_field():
    # Representatives are picked by the point, not by its index: after a
    # permutation the rule "i <= reflection_index[i]" picks other points.
    meas = random_measure_for(SignatureSpace(2), make_rng(25), n_atoms=4, shape=(3, 2, 1, 1))
    box = PositionGrid.from_box(3.0, (5, 3, 1, 1))
    perm = make_rng(26).permutation(box.n_points)
    grid = PositionGrid(box.points[perm], box.weights[perm], np.argsort(perm)[box.reflection_index[perm]])
    by_index = np.nonzero(np.arange(grid.n_points) <= grid.reflection_index)[0]
    assert not np.array_equal(grid.points[by_index], grid.points[grid.representatives])
    for delta in (0.0, 1e-2):
        expected = action(meas, box, delta)
        assert abs(action(meas, grid, delta) - expected) <= 1e-13 * abs(expected)
        ev = QHatEvaluator(meas, grid, smoothing_delta=delta)
        box_field = QHatEvaluator(meas, box, smoothing_delta=delta).q_field
        np.testing.assert_array_equal(ev.q_field, box_field[box.orbit[perm[grid.representatives]]])
        _assert_field_is_the_pointwise_kernel(ev, delta)
        oracle = oracle_gradient_field(meas, grid.points[grid.representatives], delta)
        assert np.abs(ev.q_field - oracle).max() <= 1e-8 * np.abs(ev.q_field).max()


def _shared_kernel_case():
    """The n=2 reference layout: momenta on the (3,2,1,1) box grid, positions (7,3,3,1).

    Every atom has a zero coordinate along position axis 2, which has three
    points, so the 32 representatives carry 11 distinct kernels.
    """
    meas = random_measure_for(SignatureSpace(2), make_rng(27), n_atoms=4, shape=(3, 2, 1, 1))
    return meas, PositionGrid.from_box(3.0, (7, 3, 3, 1))


def test_one_chain_eigensolve_per_distinct_kernel(monkeypatch):
    shared, grid = _shared_kernel_case()
    # Off the shared zero coordinate no two kernels coincide, so none may be merged.
    jitter = 0.01 * make_rng(29).uniform(-1.0, 1.0, shared.momenta.shape)
    jittered = OperatorMeasure(shared.space, shared.box, 0.98 * shared.momenta + jitter, shared.operators)
    calls = []

    def counting(name, fn):
        def counted(a):
            calls.append((name, np.shape(a)))
            return fn(a)
        return counted

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    for meas, kernels in ((shared, 11), (jittered, 32)):
        for call, expected in ((lambda: action(meas, grid, 1e-2), "eigvals"),
                               (lambda: QHatEvaluator(meas, grid, smoothing_delta=1e-2), "eig")):
            calls.clear()
            call()
            assert calls == [(expected, (kernels, 4, 4))]


def test_shared_kernels_share_their_gradient():
    # One row per kernel class: the points of a class off the origin's have
    # their class's row to the bit, and every point the oracle's kernel.
    meas, grid = _shared_kernel_case()
    support = _SupportTables(meas.momenta, grid)
    classes = support.kernel_class
    off_origin = classes != classes[support.origin_rows][0]
    assert len(support.class_firsts) == 11
    for delta in (0.0, 1e-2):
        ev = QHatEvaluator(meas, grid, smoothing_delta=delta)
        firsts = ev.q_field[support.class_firsts[classes]]
        assert ev.q_field[off_origin].tobytes() == firsts[off_origin].tobytes()
        oracle = oracle_gradient_field(meas, support.points, delta)
        assert np.abs(ev.q_field - oracle).max() <= 1e-8 * np.abs(ev.q_field).max()
        _assert_field_is_the_pointwise_kernel(ev, delta)


def _vanishing_modulus_measure():
    """Two atoms ``S H_j`` whose kernel is ``i S (H_1 - H_2)``, of rank one, where
    their phases are opposite: a vanishing chain eigenvalue at ``delta = 0``,
    whose Riesz projection annihilates the kernel on both sides.

    Both momenta have a zero coordinate along position axis 2, which has
    three points, so kernel classes hold several points.
    """
    sp = SignatureSpace(1)
    H1, H2 = np.diag([1.0, 0.5]).astype(complex), np.diag([0.0, 0.5]).astype(complex)
    ops = [sp.signature[:, None] * H1, sp.signature[:, None] * H2]
    half = np.array([np.pi / 6, np.pi / 6, 0.0, 0.0])
    box = MomentumBox((-2.0,) * 4, (2.0,) * 4, (2, 2, 1, 1))
    return OperatorMeasure(sp, box, [-half, half], ops), PositionGrid.from_box(3.0, (3, 3, 3, 1))


def _kink_cluster_measure():
    """The layout of :func:`_vanishing_modulus_measure` at n = 2, with ``D = H_1 - H_2``
    such that ``S D`` is a nilpotent Jordan block on ``(e_0, e_2)`` and
    ``diag(1, -1/2)`` on ``(e_1, e_3)``.

    Where the phases are opposite the chain is ``(S D)^2``, whose zero
    cluster (the block's square) is semisimple but not annihilated by the
    kernel ``-i S D``: the cluster moves at first order, a kink at
    ``delta = 0`` and smooth at ``delta > 0``.
    """
    sp = SignatureSpace(2)
    D = np.zeros((4, 4), complex)
    D[np.ix_([0, 2], [0, 2])] = 1.0
    D[1, 1], D[3, 3] = 1.0, 0.5
    H2 = 0.5 * np.eye(4, dtype=complex)
    ops = [sp.signature[:, None] * (D + H2), sp.signature[:, None] * H2]
    half = np.array([np.pi / 6, np.pi / 6, 0.0, 0.0])
    box = MomentumBox((-2.0,) * 4, (2.0,) * 4, (2, 2, 1, 1))
    return OperatorMeasure(sp, box, [-half, half], ops), PositionGrid.from_box(3.0, (3, 3, 3, 1))


def _is_kink(meas, xi):
    """The finite-difference oracle confirms a kink at ``xi``."""
    try:
        oracle_gradient_field(meas, xi)
    except NonsmoothPointError:
        return True
    return False


def test_analytic_gradient_names_the_first_rejected_point_of_a_shared_kernel():
    meas, grid = _kink_cluster_measure()
    reps = grid.points[grid.representatives]
    rejected = [_is_kink(meas, xi) for xi in reps]
    first = reps[np.argmax(rejected)]
    assert not rejected[0] and np.array_equal(first, [-3.0, 0.0, -3.0, 0.0])
    # Its kernel is also that of (0, -3, xi_2, 0), whose phases are the same.
    support = _SupportTables(meas.momenta, grid)
    assert np.sum(support.kernel_class == support.kernel_class[np.argmax(rejected)]) == 6
    with pytest.raises(NonsmoothPointError) as err:
        QHatEvaluator(meas, grid, smoothing_delta=0.0)
    np.testing.assert_array_equal(err.value.xi, first)
    QHatEvaluator(meas, grid, smoothing_delta=1e-2)


def _face_measure(n, seed):
    """Random atoms ``diag(B_j, 0)`` with ``B_j >= 0`` on every point of a momentum box grid."""
    rng = make_rng(seed)
    shape, grid_shape = ((2, 1, 1, 1), (5, 1, 1, 1)) if n == 1 else ((3, 2, 1, 1), (7, 3, 3, 1))
    box = unit_momentum_box(shape)
    momenta = box.grid_points()
    C = rng.standard_normal((len(momenta), n, n)) + 1j * rng.standard_normal((len(momenta), n, n))
    operators = np.zeros((len(momenta), 2 * n, 2 * n), complex)
    operators[:, :n, :n] = C.conj().swapaxes(-1, -2) @ C
    return OperatorMeasure(SignatureSpace(n), box, momenta, operators), PositionGrid.from_box(3.0, grid_shape)


@pytest.mark.parametrize("n", [1, 2])
def test_zero_clusters_take_the_closed_form(monkeypatch, n):
    # At delta = 0 every chain of a face measure has an n-fold zero
    # eigenvalue, whose Riesz projection annihilates the kernel on both
    # sides: the cluster moves only at second order and gets coefficient 0.
    # The field is the finite-difference oracle's, the radial identity
    # 2 sum_j Tr(Qhat(p_j) A_j) = 4 S of the degree-4 action holds, and no
    # eigvals call is made (finite differences make one per estimate).
    eigvals, calls = np.linalg.eigvals, []

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    cases = [_face_measure(n, seed) for seed in range(3)]
    if n == 1:
        cases.append(_vanishing_modulus_measure())
    for meas, grid in cases:
        points = grid.points[grid.representatives]
        moduli = np.stack([np.sort(np.abs(closed_chain(kernel_P(meas, xi), meas.space).lambdas)) for xi in points])
        clustered = moduli[:, 0] <= 1e-7 * moduli[:, -1]
        assert clustered.any()
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        ev = QHatEvaluator(meas, grid, smoothing_delta=0.0)
        monkeypatch.undo()
        assert calls == []
        oracle = oracle_gradient_field(meas, points[clustered])
        assert np.abs(ev.q_field[clustered] - oracle).max() <= 1e-8 * np.abs(ev.q_field).max()
        radial = 2.0 * np.einsum("jab,jba->", ev.evaluate_many(meas.momenta), meas.operators).real
        assert radial == pytest.approx(4.0 * action(meas, grid, 0.0), rel=1e-12)


def test_first_variation_identity_on_measure_atoms():
    # dS/dt along operator directions equals 2 sum_j Tr(Qhat(p_j) E_j)
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(17))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    ev = QHatEvaluator(meas, grid)
    rng = make_rng(18)
    for _ in range(4):
        Es = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
        # keep direction symmetric so perturbed measure stays on the cone chart
        h = 1e-6

        def perturbed(t):
            ops = [A + t * E for A, E in zip(meas.operators, Es)]
            m2 = meas.with_operators(np.asarray(ops), validate=False)
            return action(m2, grid)

        fd = (perturbed(h) - perturbed(-h)) / (2 * h)
        fd2 = (perturbed(h / 2) - perturbed(-h / 2)) / h
        fd = (4 * fd2 - fd) / 3
        pred = 2.0 * sum(
            np.trace(ev.evaluate(p) @ E).real for p, E in zip(meas.momenta, Es)
        )
        assert pred == pytest.approx(fd, rel=1e-6, abs=1e-8)


def _action_derivative(meas, grid, delta, Es):
    """dS/dt along ``A_j + t E_j``, summed grid point by grid point.

    Where a chain's eigenvalues are apart each moves by ``l^* dC r / l^* r``
    (left and right eigenvectors from ``scipy.linalg.eig``); where they
    coincide the point's Lagrangian is differenced instead.
    """
    sp = meas.space
    phases = np.exp(1j * grid.points @ meas.momenta.T)
    Ps = -np.einsum("xj,jab->xab", phases, meas.operators)
    dPs = -np.einsum("xj,jab->xab", phases, Es)
    total = 0.0
    for xi, w, P, dP in zip(grid.points, grid.weights, Ps, dPs):
        chain = P @ krein_adjoint(P, sp)
        lam, left, right = sla.eig(chain, left=True, right=True)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
        if gaps.min() > 1e-6 * np.linalg.norm(chain, 2):
            dchain = dP @ krein_adjoint(P, sp) + P @ krein_adjoint(dP, sp)
            dlam = np.einsum("ai,ab,bi->i", left.conj(), dchain, right) / np.einsum(
                "ai,ai->i", left.conj(), right
            )
            m = np.sqrt(np.abs(lam) ** 2 + delta**2)
            dm = (lam.conj() * dlam).real / m
            dL = 2.0 * np.sum(m * dm) - np.sum(m) * np.sum(dm) / sp.n
        else:
            h = 1e-5 * np.linalg.norm(P, 2) / np.linalg.norm(dP, 2)
            dL = _directional_fd(meas, xi, dP, h, delta)
        total += w * dL
    return total


@pytest.mark.parametrize("iterations", [150, 260])
def test_first_variation_identity_along_n2_reference_descent(iterations):
    # The n=2 reference descent drives the chains to rank 2: at iteration 150
    # a few still have eigenvalues apart, at 260 every chain has two
    # coinciding eigenvalues.  Acceptance 08's identity must hold at both.
    config = MinimizeConfig(
        n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
        position_radius=3.0, smoothing_delta=1e-2, max_iterations=iterations,
    )
    meas = minimize_action(config).measure
    grid = config.position_grid()
    qhats = QHatEvaluator(meas, grid, smoothing_delta=1e-2).evaluate_many(meas.momenta)
    rng = make_rng(260)
    for _ in range(10):
        Es = np.stack([random_symmetric(meas.space, rng) for _ in range(meas.n_atoms)])
        derivative = _action_derivative(meas, grid, 1e-2, Es)
        predicted = 2.0 * float(np.einsum("jab,jba->", qhats, Es).real)
        assert abs(predicted - derivative) <= 1e-5 * max(abs(predicted), abs(derivative))
