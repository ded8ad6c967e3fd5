"""Tests for position grids, kernels, the spectral action, and its gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_measure_for, random_positive, unit_momentum_box
from kreinact import (
    MomentumBox,
    NonsmoothPointError,
    NumericalError,
    OperatorMeasure,
    PositionGrid,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    action,
    action_profile,
    closed_chain,
    fourier_Q_hat,
    gradient_kernel_Q,
    kernel_P,
    krein_adjoint,
    lagrangian,
    profile_to_csv,
    scale,
    translate,
)


# ---------------------------------------------------------------------------
# PositionGrid
# ---------------------------------------------------------------------------

def test_grid_symmetric_under_reflection():
    grid = PositionGrid.from_box(2.0, (4, 3, 1, 2))
    refl = grid.reflection_index
    np.testing.assert_allclose(grid.points[refl], -grid.points, atol=1e-14)
    np.testing.assert_allclose(grid.weights[refl], grid.weights, atol=1e-14)
    assert np.all(grid.weights > 0)


def test_grid_weights_sum_to_volume():
    grid = PositionGrid.from_box(1.5, (5, 4, 1, 1))
    assert grid.weights.sum() == pytest.approx(grid.volume, rel=1e-12)


def test_grid_single_point_axes_at_origin():
    grid = PositionGrid.from_box(3.0, (5, 1, 1, 1))
    np.testing.assert_allclose(grid.points[:, 1:], 0.0, atol=0)


def test_grid_rejects_bad_shape():
    with pytest.raises(ValidationError):
        PositionGrid.from_box(1.0, (0, 1, 1, 1))
    with pytest.raises(ValidationError):
        PositionGrid.from_box(-1.0, (3, 1, 1, 1))


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


def test_action_profile_and_csv(tmp_path):
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(7))
    grid = PositionGrid.from_box(1.0, (3, 1, 1, 1))
    profile = action_profile(meas, grid)
    assert len(profile) == grid.n_points
    total = sum(w * L for w, L in zip(grid.weights, [row[1] for row in profile]))
    assert total == pytest.approx(action(meas, grid), rel=1e-12)
    path = tmp_path / "profile.csv"
    profile_to_csv(profile, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi0,xi1,xi2,xi3,lagrangian"
    assert len(lines) == 1 + grid.n_points
    # floats survive the repr round trip
    first = lines[1].split(",")
    assert float(first[4]) == profile[0][1]


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
    Qm = gradient_kernel_Q(meas, -xi, mode="analytic")
    for _ in range(6):
        D = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        fd = _directional_fd(meas, xi, D, 1e-5)
        pred = -2.0 * np.trace(Qm @ D).real
        assert pred == pytest.approx(fd, rel=2e-6, abs=1e-8)


def test_gradient_zero_on_spacelike_plateau():
    # conjugate-pair chains have equal moduli: L vanishes identically and the
    # gradient kernel is zero in both modes
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))
    for x0 in np.linspace(0.0, 3.0, 61):
        xi = np.array([x0, 0.0, 0.0, 0.0])
        lam = closed_chain(kernel_P(meas, xi), sp).lambdas
        if np.abs(lam.imag).max() > 1e-3 * np.abs(lam).max():
            break
    else:
        raise AssertionError("no conjugate-pair point found")
    Qa = gradient_kernel_Q(meas, xi, mode="analytic")
    Qf = gradient_kernel_Q(meas, xi, mode="finite_difference")
    chain_scale = np.abs(lam).max()
    assert np.linalg.norm(Qa, 2) <= 1e-10 * chain_scale
    assert np.linalg.norm(Qf, 2) <= 1e-4 * chain_scale


def test_gradient_modes_agree():
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(10), n_atoms=2)
    xi = np.array([0.5, -0.3, 0.2, 0.1])
    Qa = gradient_kernel_Q(meas, xi, mode="analytic")
    Qf = gradient_kernel_Q(meas, xi, mode="finite_difference")
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
    Qa = gradient_kernel_Q(meas, xi, mode="analytic", smoothing_delta=delta)
    Qf = gradient_kernel_Q(meas, xi, mode="finite_difference", smoothing_delta=delta)
    np.testing.assert_allclose(Qa, Qf, atol=1e-7 * max(1.0, np.linalg.norm(Qa, 2)))


def test_gradient_kink_raises_nonsmooth():
    # the boundary between real-pair and conjugate-pair chain spectra is a
    # genuine kink of the exact Lagrangian: L grows linearly on the real
    # side and vanishes on the conjugate side
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))

    def conjugate(x0):
        lam = closed_chain(kernel_P(meas, np.array([x0, 0, 0, 0])), sp).lambdas
        return np.abs(lam.imag).max() > 1e-12 * np.abs(lam).max()

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
    xstar = np.array([0.5 * (lo + hi), 0.0, 0.0, 0.0])
    with pytest.raises(NonsmoothPointError):
        gradient_kernel_Q(meas, xstar, mode="finite_difference")


def test_gradient_zero_for_nilpotent_atom():
    # a single nilpotent atom has identically vanishing closed chain, so the
    # gradient kernel is zero (flat plateau, not a kink)
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A1 = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    meas = OperatorMeasure(sp, box, np.array([[0.0, 0, 0, 0]]), [A1])
    Q = gradient_kernel_Q(meas, np.zeros(4), mode="finite_difference")
    assert np.linalg.norm(Q, 2) <= 1e-6


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
        ev = QHatEvaluator(meas, grid, smoothing_delta=delta)
        for i, xi in enumerate(grid.points):
            np.testing.assert_array_equal(
                ev.q_field[i], gradient_kernel_Q(meas, xi, smoothing_delta=delta)
            )
        with pytest.raises(NonsmoothPointError) as err:
            QHatEvaluator(meas, grid, smoothing_delta=delta, mode="analytic")
        np.testing.assert_array_equal(err.value.xi, grid.points[np.argmax(degenerate)])


def test_gradient_invalid_mode():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(13))
    with pytest.raises(ValidationError):
        gradient_kernel_Q(meas, np.zeros(4), mode="magic")


@pytest.mark.parametrize(
    "call",
    [
        lambda meas, grid: action(meas, grid, -0.1),
        lambda meas, grid: action_profile(meas, grid, -0.1),
        lambda meas, grid: lagrangian(closed_chain(kernel_P(meas, grid.points[0]), meas.space), -0.1),
        lambda meas, grid: gradient_kernel_Q(meas, grid.points[0], smoothing_delta=-0.1),
        lambda meas, grid: QHatEvaluator(meas, grid, smoothing_delta=-0.1),
    ],
    ids=["action", "action_profile", "lagrangian", "gradient_kernel_Q", "QHatEvaluator"],
)
def test_negative_smoothing_delta_rejected(call):
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(13))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    with pytest.raises(ValidationError):
        call(meas, grid)


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
        acc += w * gradient_kernel_Q(meas, xi, mode="analytic") * np.exp(-1j * np.dot(p, xi))
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
        for i, p in enumerate(ps):
            np.testing.assert_allclose(many[i], ev.evaluate(p), atol=1e-13)
            # The per-momentum quadrature loop, same arithmetic: equal to the bit.
            phases = grid.weights * np.exp(-1j * grid.points @ p)
            qhat = np.einsum("x,xab->ab", phases, ev.q_field)
            np.testing.assert_array_equal(many[i], 0.5 * (qhat + krein_adjoint(qhat, sp)))


def test_qhat_symmetry_check_raises_at_one_broken_momentum():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(15))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    ev = QHatEvaluator(meas, grid)
    ps = np.array([[0.0, 0, 0, 0], [0.3, 0, 0, 0], [0.7, 0, 0, 0]])
    # Weights c(xi) whose Fourier sum vanishes at every momentum but the last.
    rows = grid.weights * np.exp(-1j * ps @ grid.points.T)
    c = np.linalg.svd(rows[:-1])[2][-1].conj()
    c *= 10.0 * max(1.0, np.linalg.norm(ev.evaluate(ps[-1]), 2)) / abs(rows[-1] @ c)
    E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # not Krein symmetric
    ev.q_field = ev.q_field + c[:, None, None] * E
    for p in ps[:-1]:
        ev.evaluate(p)
    with pytest.raises(NumericalError, match="Krein symmetry"):
        ev.evaluate(ps[-1])
    with pytest.raises(NumericalError, match="Krein symmetry"):
        ev.evaluate_many(ps)
    ev.evaluate_many(ps[:-1])


def test_fourier_qhat_wrapper():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(16))
    grid = PositionGrid.from_box(2.0, (5, 1, 1, 1))
    p = meas.momenta[1]
    ev = QHatEvaluator(meas, grid)
    np.testing.assert_allclose(fourier_Q_hat(meas, grid, p), ev.evaluate(p), atol=1e-13)


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
