"""Tests for the first-order verification layer.

The stationary fixture used throughout is a constant gradient field: when
``Qhat(p) = q`` for every ``p``, the measure-level first-order conditions
reduce to the pointwise problem, whose closed-form minimizer and
multipliers are known exactly (see test_pointwise).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_rng,
    oracle_gap_bisection,
    random_measure_for,
    random_positive,
    random_symmetric,
    unit_momentum_box,
)
from kreinact import (
    ELReport,
    InfeasibleProblemError,
    MomentumBox,
    OperatorMeasure,
    PositionGrid,
    PushforwardMeasure,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    action,
    check_first_order,
    el_residuals,
    lagrange_parameters,
    load_measure,
    load_operator,
    load_report,
    positive_spectrum,
    pushforward,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    restore_constraints,
    save_measure,
    save_operator,
    save_report,
    support_gap,
)
from kreinact.elverify import _gaps, _hermitian_spectra, _probes
from kreinact.tolerances import PSD

SP1 = SignatureSpace(1)
ROTATION_Q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
# Closed-form minimizer of Tr(qA) at targets (a, b) = (0.3, 1.0); see
# test_pointwise for the derivation.
STATIONARY_A = 0.5 * np.array(
    [[1.3, 0.9539392014169457], [-0.9539392014169457, 0.3 - 1.0]], dtype=complex
)
STATIONARY_ALPHA = 0.3144854510165755
STATIONARY_BETA = -1.0482848367219182


def constant_field(q: np.ndarray, k: int) -> np.ndarray:
    """``Qhat = q`` stacked over ``k`` momenta."""
    return np.repeat(q[None], k, 0)


def stationary_fixture():
    """Two-atom measure whose atoms minimize the constant field pointwise.

    Its momentum box has four grid points.
    """
    box = unit_momentum_box((2, 1, 1, 2))
    pts = box.grid_points()
    measure = OperatorMeasure(SP1, box, pts[:2], [STATIONARY_A, STATIONARY_A])
    return measure, box


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------

def test_pushforward_pairs_atoms_with_field_values():
    rng = make_rng(0)
    measure = random_measure_for(SP1, rng)

    def field(p):
        return (1.0 + p[0] ** 2) * np.eye(2, dtype=complex) + p[3] * np.diag([1.0, -1.0])

    mu = pushforward(measure, np.array([field(p) for p in measure.momenta]))
    assert mu.qs.shape == (measure.n_atoms, 2, 2)
    for j, p in enumerate(mu.momenta):
        np.testing.assert_array_equal(mu.qs[j], field(p))
    np.testing.assert_array_equal(mu.operators, measure.operators)
    np.testing.assert_allclose(mu.total(), measure.operators.sum(axis=0), atol=0)
    expected = sum(np.trace(q @ A).real for q, A in zip(mu.qs, mu.operators))
    assert mu.trace_pairing() == pytest.approx(expected, rel=1e-14)


def test_pushforward_and_el_residuals_reject_misshapen_qhat_stacks():
    measure, box = stationary_fixture()
    probes = box.grid_points()
    for qs in (constant_field(ROTATION_Q, 3), ROTATION_Q, np.ones((2, 4, 4), complex)):
        with pytest.raises(ValidationError, match="pushforward"):
            pushforward(measure, qs)
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    for qs in (constant_field(ROTATION_Q, 3), np.ones((4, 4, 4), complex)):
        with pytest.raises(ValidationError, match="probe_qs"):
            el_residuals(mu, 0.0, 0.0, probes, qs, case_tag="a")


def test_pushforward_of_nothing_is_zero():
    mu = PushforwardMeasure(
        space=SP1,
        momenta=np.zeros((0, 4)),
        qs=np.zeros((0, 2, 2), complex),
        operators=np.zeros((0, 2, 2), complex),
    )
    np.testing.assert_array_equal(mu.total(), np.zeros((2, 2)))
    assert mu.trace_pairing() == 0.0


def test_trace_pairing_is_twice_the_action():
    # The action is quartic in the measure, so pairing the gradient field
    # against the measure itself must give 2 * (4/2) * S = 2S exactly.
    grid = PositionGrid.from_box(3.0, (5, 1, 1, 1))
    for seed in (0, 1, 2):
        measure = random_measure_for(SP1, make_rng(seed))
        value = action(measure, grid)
        mu = pushforward(measure, QHatEvaluator(measure, grid).evaluate_many(measure.momenta))
        assert mu.trace_pairing() == pytest.approx(2.0 * value, rel=1e-12)


# ---------------------------------------------------------------------------
# Multiplier extraction
# ---------------------------------------------------------------------------

def test_lagrange_parameters_recover_pointwise_multipliers():
    measure, _ = stationary_fixture()
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    # Two identical atoms at targets (0.3, 1.0) give totals (0.6, 2.0).
    alpha, beta, tag = lagrange_parameters(mu, c=0.6, f=2.0)
    assert tag == "b"
    assert alpha == pytest.approx(STATIONARY_ALPHA, abs=1e-12)
    assert beta == pytest.approx(STATIONARY_BETA, abs=1e-12)


def test_lagrange_parameters_case_b_moment_orthogonality():
    rng = make_rng(9)
    for n in (1, 2):
        sp = SignatureSpace(n)
        c, f = 0.7, 1.9
        measure = restore_constraints(random_measure_for(sp, rng, n_atoms=3), "b", c, f)
        qs = [random_symmetric(sp, rng) for _ in range(3)]
        mu = pushforward(measure, np.array(qs))
        alpha, beta, tag = lagrange_parameters(mu, c, f)
        assert tag == "b"
        sig = sp.signature
        shifted_pairing = 0.0
        shifted_anti = 0.0
        for q, A in zip(mu.qs, mu.operators):
            T = q - alpha * np.eye(sp.dim) - beta * np.diag(sig)
            shifted_pairing += float(np.trace(T @ A).real)
            anti = 0.5 * (T * sig[None, :] + sig[:, None] * T)
            shifted_anti += float(np.trace(anti @ A).real)
        assert abs(shifted_pairing) < 1e-10
        assert abs(shifted_anti) < 1e-10


def test_lagrange_parameters_case_a_zero_beta():
    measure, _ = stationary_fixture()
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    alpha, beta, tag = lagrange_parameters(mu, c=0.6, f=3.0)  # signed trace 2.0 < 3.0
    assert tag == "a"
    assert beta == 0.0
    assert alpha == pytest.approx(mu.trace_pairing() / 0.6, rel=1e-14)


@pytest.mark.parametrize("n_atoms", [1, 7, 9, 27])
@pytest.mark.parametrize("n", [1, 2])
def test_stacked_pairings_match_the_per_atom_loop_to_the_bit(n, n_atoms):
    # From eight terms on np.sum adds pairwise; the stacked pairings must
    # still add in atom order, as the loop below does.
    sp = SignatureSpace(n)
    sig = sp.signature
    rng = make_rng(100 * n + n_atoms)
    measure = random_measure_for(sp, rng, n_atoms=n_atoms, shape=(3, 3, 3, 1))
    qs = np.array([random_symmetric(sp, rng) for _ in range(n_atoms)])
    c = 0.7
    # Signed trace 1.9: on the bound f = 1.9 (case "b"), below f = 3.8 (case "a").
    mu = pushforward(restore_constraints(measure, "b", c, 1.9), qs)
    I1 = 0.0
    I2 = 0.0
    for q, A in zip(mu.qs, mu.operators):
        I1 += float(np.trace(q @ A).real)
        anti = 0.5 * (q * sig[None, :] + sig[:, None] * q)
        I2 += float(np.trace(anti @ A).real)
    assert mu.trace_pairing() == I1
    for case, f in (("a", 3.8), ("b", 1.9)):
        alpha, beta, tag = lagrange_parameters(mu, c, f)
        assert tag == case
        if case == "a":
            assert (alpha, beta) == (I1 / c, 0.0)
        else:
            denom = f * f - c * c
            assert (alpha, beta) == ((f * I2 - c * I1) / denom, (f * I1 - c * I2) / denom)


def test_lagrange_parameters_rejects_bad_targets():
    measure, _ = stationary_fixture()
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    with pytest.raises(InfeasibleProblemError):
        lagrange_parameters(mu, c=0.6, f=1.5)  # signed trace 2.0 exceeds f
    with pytest.raises(ValidationError):
        lagrange_parameters(mu, c=2.0, f=1.0)
    with pytest.raises(ValidationError):
        lagrange_parameters(mu, c=0.0, f=1.0)


def test_lagrange_parameters_rejects_a_trace_off_c():
    measure, _ = stationary_fixture()
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    # The trace 0.6 passes within the signed-trace check's band CONSTRAINT * f.
    for c in (0.6 - 1e-9, 0.6 + 1e-9):
        assert lagrange_parameters(mu, c=c, f=2.0)[2] == "b"
    for c in (0.5, 0.6 + 1e-7):
        with pytest.raises(InfeasibleProblemError, match=f"trace 0.6.* c = {c}"):
            lagrange_parameters(mu, c=c, f=2.0)
    empty = pushforward(OperatorMeasure(SP1, unit_momentum_box(), np.zeros((0, 4)), np.zeros((0, 2, 2))),
                        np.zeros((0, 2, 2)))
    with pytest.raises(InfeasibleProblemError, match="trace 0.0"):
        lagrange_parameters(empty, c=0.5, f=1.0)


# ---------------------------------------------------------------------------
# Support gap
# ---------------------------------------------------------------------------

def test_gap_closed_forms():
    S = SP1.signature_matrix
    assert support_gap(3.0 * S, 0.0, 0.0, SP1) == pytest.approx(3.0, rel=1e-12)
    assert support_gap(S @ np.diag([2.0, 5.0]).astype(complex), 0.0, 0.0, SP1) == pytest.approx(
        2.0, rel=1e-12
    )
    # Indefinite Hermitian representative: no symmetric spectral interval.
    assert support_gap(ROTATION_Q, 0.0, 0.0, SP1) == 0.0
    # Neutral rank-one: psd representative with kernel.
    v = np.array([1.0, 1.0], complex)
    T = SP1.signature[:, None] * np.outer(v, v.conj())
    assert support_gap(T, 0.0, 0.0, SP1) == pytest.approx(0.0, abs=1e-12)


def test_gap_matches_bisection_oracle():
    for n in (1, 2):
        sp = SignatureSpace(n)
        for seed in range(4):
            rng = make_rng(40 + seed)
            T = random_positive(sp, rng)
            lib = support_gap(T, 0.0, 0.0, sp)
            ref = oracle_gap_bisection(T, sp)
            assert lib == pytest.approx(ref, rel=5e-9, abs=1e-12)
            assert lib > 0.0


def test_support_gap_shifts_the_field():
    S = SP1.signature_matrix
    qhat = 3.0 * S
    assert support_gap(qhat, 0.0, 0.0, SP1) == pytest.approx(3.0, rel=1e-12)
    assert support_gap(qhat, 0.0, 3.0, SP1) == pytest.approx(0.0, abs=1e-12)
    # Shifting by alpha breaks the signature symmetry of the spectrum.
    assert support_gap(qhat, 1.0, 0.0, SP1) == pytest.approx(2.0, rel=1e-12)


def test_support_gap_rejects_a_non_symmetric_operator():
    # S q is not Hermitian; the gap of its Hermitian part would answer another question.
    with pytest.raises(ValidationError, match="support_gap Qhat must be Krein symmetric"):
        support_gap(np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex), 0.0, 0.0, SP1)


# ---------------------------------------------------------------------------
# Residual report and its summary
# ---------------------------------------------------------------------------

def test_el_residuals_stationary_fixture_passes():
    measure, box = stationary_fixture()
    report = el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        STATIONARY_ALPHA,
        STATIONARY_BETA,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
    )
    assert report.case_tag == "b"
    assert report.qhat_scale == pytest.approx(1.0, rel=1e-12)
    assert report.probe_margins.min() > -1e-12
    assert report.atom_residual_left.max() < 1e-12
    assert report.atom_residual_right.max() < 1e-12
    assert report.atom_gaps.max() < 1e-12
    checks = check_first_order(report, 1e-8)
    assert checks["all"]
    assert all(checks.values())


def test_el_residuals_detect_wrong_multipliers():
    measure, box = stationary_fixture()
    report = el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        STATIONARY_ALPHA + 2e-3,
        STATIONARY_BETA,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
    )
    checks = check_first_order(report, 1e-6)
    assert not checks["support_residuals"]
    assert not checks["all"]
    assert report.atom_residual_left.min() > 1e-4


def test_check_first_order_absolute_semantics():
    report = ELReport(
        alpha=0.1,
        beta=-1.0,
        case_tag="b",
        probe_points=np.zeros((2, 4)),
        probe_margins=np.array([-5e-7, 1e-3]),
        probe_gaps=np.array([2e-3, 8e-7]),
        atom_points=np.zeros((1, 4)),
        atom_residual_left=np.array([3e-7]),
        atom_residual_right=np.array([2e-7]),
        atom_gaps=np.array([4e-7]),
        atom_norms=np.array([1.0e3]),  # norms are recorded but do not rescale
        qhat_scale=1.0e3,
        tail_magnitude=None,
    )
    loose = check_first_order(report, 1e-6)
    assert loose["all"] and all(loose.values())
    tight = check_first_order(report, 1e-7)
    assert not tight["psd_margin"]
    assert not tight["support_residuals"]
    assert not tight["support_gap"]
    assert not tight["all"]


def test_check_first_order_gap_attainment():
    report = ELReport(
        alpha=0.0,
        beta=-1.0,
        case_tag="a",
        probe_points=np.zeros((1, 4)),
        probe_margins=np.array([0.0]),
        probe_gaps=np.array([0.0]),
        atom_points=np.zeros((1, 4)),
        atom_residual_left=np.array([0.0]),
        atom_residual_right=np.array([0.0]),
        atom_gaps=np.array([2e-6]),
        atom_norms=np.array([1.0]),
        qhat_scale=1.0,
    )
    checks = check_first_order(report, 1e-6)
    assert not checks["support_gap"]
    assert not checks["gap_attained_on_support"]
    assert not checks["all"]


def test_beta_sign_check():
    measure, box = stationary_fixture()
    report = el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        0.0,
        0.5,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
    )
    assert not check_first_order(report, 1e6)["beta_sign"]  # sign, not size
    good = el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        0.0,
        -0.5,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
    )
    assert check_first_order(good)["beta_sign"]


# The report as computed before its spectra were shared: one eigh per stack,
# the gap congruence on every row and every matrix norm decomposed.  The
# report must equal it to the bit.

def _gaps_reference(w, V, space):
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1e-300)
    root = (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.conj().transpose(0, 2, 1)
    Y = root @ (space.signature[None, :, None] * root)
    y = np.linalg.eigvalsh(0.5 * (Y + Y.conj().transpose(0, 2, 1)))
    return np.where(w[:, 0] < -PSD * scale, 0.0, np.abs(y).min(axis=1))


def _report_reference(mu, alpha, beta, probe_qs):
    space = mu.space

    def spectra(qs):
        T = qs - (alpha * np.eye(space.dim) + beta * space.signature_matrix)
        that = space.signature[None, :, None] * T
        w, V = np.linalg.eigh(0.5 * (that + that.conj().transpose(0, 2, 1)))
        return T, w, _gaps_reference(w, V, space)

    T, _, atom_gaps = spectra(mu.qs)
    _, w_probe, probe_gaps = spectra(probe_qs)
    A = mu.operators
    return {
        "probe_margins": w_probe[:, 0],
        "probe_gaps": probe_gaps,
        "atom_residual_left": np.linalg.norm(T @ A, 2, axis=(1, 2)),
        "atom_residual_right": np.linalg.norm(A @ T, 2, axis=(1, 2)),
        "atom_gaps": atom_gaps,
        "qhat_scale": np.linalg.norm(np.concatenate([probe_qs, mu.qs]), 2, axis=(1, 2)).max(initial=0.0),
    }


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_gaps_equal_the_full_computation(n, seed):
    # Positive operators pass the psd test (with a gap at full rank, none at
    # rank one), symmetric ones mostly fail it and zero sits on its edge.
    space = SignatureSpace(n)
    rng = make_rng(seed)
    makers = [lambda: random_positive(space, rng), lambda: random_positive(space, rng, rank=1),
              lambda: random_symmetric(space, rng), lambda: np.zeros((space.dim, space.dim), complex)]
    kinds = rng.integers(len(makers), size=rng.integers(0, 9))
    T = np.array([makers[kind]() for kind in kinds], complex).reshape(-1, space.dim, space.dim)
    w, V = _hermitian_spectra(T, space)
    np.testing.assert_array_equal(_gaps(w, V, space), _gaps_reference(w, V, space))


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_support_gap_of_a_positive_row_is_its_smallest_absolute_eigenvalue(n, seed):
    # The report's gaps and positive_spectrum form one square root and one
    # congruence R S R in krein, so at zero multipliers they agree to the bit.
    space = SignatureSpace(n)
    rng = make_rng(seed)
    measure = random_measure_for(space, rng, n_atoms=3)
    T = np.array([random_positive(space, rng) for _ in range(3)])
    report = el_residuals(pushforward(measure, T), 0.0, 0.0, measure.momenta, T, "a")
    expected = [np.abs(positive_spectrum(A, space)).min() for A in T]
    assert report.atom_gaps.tolist() == expected
    assert report.probe_gaps.tolist() == expected


@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_report_read_from_shared_rows_equals_the_full_computation(n, seed):
    # Probes as verify builds them (the box grid and the atoms), and as the
    # minimizer does (the atoms alone); with the atoms' rows given by index
    # and without.
    space = SignatureSpace(n)
    rng = make_rng(seed)
    measure = random_measure_for(space, rng, n_atoms=3, shape=(3, 1, 1, 2))
    grid_points = measure.box.grid_points()
    probes, inverse = np.unique(np.vstack([grid_points, measure.momenta]), axis=0, return_inverse=True)
    evaluator = QHatEvaluator(measure, PositionGrid.from_box(2.0, (3, 1, 1, 1)), smoothing_delta=1e-2)
    qhats = evaluator.evaluate_many(probes)
    atom_rows = inverse[len(grid_points):]
    mu = pushforward(measure, qhats[atom_rows])
    # S T = S (Qhat - alpha) - beta, so this beta puts about half the probes past the psd test.
    alpha = float(rng.standard_normal())
    lowest = np.linalg.eigvalsh(space.signature[:, None] * (qhats - alpha * np.eye(space.dim)))[:, 0]
    beta = float(np.median(lowest))
    atoms = np.arange(measure.n_atoms)
    cases = [
        (el_residuals(mu, alpha, beta, probes, qhats, "b", _atom_rows=atom_rows), qhats),
        (el_residuals(mu, alpha, beta, probes, qhats, "b"), qhats),
        (el_residuals(mu, alpha, beta, measure.momenta, mu.qs, "b", _atom_rows=atoms), mu.qs),
        (el_residuals(mu, alpha, beta, measure.momenta, mu.qs.copy(), "b"), mu.qs),
    ]
    for report, probe_qs in cases:
        for name, expected in _report_reference(mu, alpha, beta, probe_qs).items():
            np.testing.assert_array_equal(getattr(report, name), expected, err_msg=name)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_probes_are_the_unique_rows_of_the_grid_and_the_atoms(seed):
    # Atoms off the grid, on grid points and repeated: the probe rule keeps each
    # row once, ascending, as np.unique does, and indexes the atoms among them.
    rng = make_rng(seed)
    lower, upper = rng.uniform(-2.0, 0.0, 4), rng.uniform(0.5, 2.0, 4)
    box = MomentumBox(lower, upper, rng.integers(1, 4, 4))
    grid = box.grid_points()
    inside = lower + rng.uniform(0.0, 1.0, (int(rng.integers(1, 5)), 4)) * (upper - lower)
    atoms = np.vstack([inside, grid[rng.integers(0, len(grid), int(rng.integers(0, 4)))]])
    atoms = atoms[rng.integers(0, len(atoms), len(atoms) + int(rng.integers(0, 3)))]
    probes, atom_rows = _probes(box, atoms)
    expected, inverse = np.unique(np.vstack([grid, atoms]), axis=0, return_inverse=True)
    np.testing.assert_array_equal(probes, expected)
    np.testing.assert_array_equal(atom_rows, inverse.ravel()[len(grid):])


def test_probes_on_a_box_grid_are_that_grid():
    box = MomentumBox((-1.0, -0.5, -0.5, -0.5), (1.0, 0.5, 0.5, 0.5), (3, 2, 1, 2))
    grid = box.grid_points()
    probes, atom_rows = _probes(box, grid)
    assert probes.tobytes() == grid.tobytes()
    np.testing.assert_array_equal(atom_rows, np.arange(len(grid)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _sample_report(tail=None) -> ELReport:
    measure, box = stationary_fixture()
    return el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        STATIONARY_ALPHA,
        STATIONARY_BETA,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
        tail_magnitude=tail,
    )


def test_report_json_round_trip_is_exact(tmp_path):
    for tail in (None, 0.125):
        report = _sample_report(tail)
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.alpha == report.alpha
        assert loaded.beta == report.beta
        assert loaded.case_tag == report.case_tag
        assert loaded.qhat_scale == report.qhat_scale
        assert loaded.tail_magnitude == report.tail_magnitude
        np.testing.assert_array_equal(loaded.probe_points, report.probe_points)
        np.testing.assert_array_equal(loaded.probe_margins, report.probe_margins)
        np.testing.assert_array_equal(loaded.probe_gaps, report.probe_gaps)
        np.testing.assert_array_equal(loaded.atom_points, report.atom_points)
        np.testing.assert_array_equal(loaded.atom_residual_left, report.atom_residual_left)
        np.testing.assert_array_equal(loaded.atom_residual_right, report.atom_residual_right)
        np.testing.assert_array_equal(loaded.atom_gaps, report.atom_gaps)
        np.testing.assert_array_equal(loaded.atom_norms, report.atom_norms)


def test_report_without_probes_or_atoms_round_trips(tmp_path):
    empty = np.zeros(0)
    report = ELReport(
        alpha=0.25, beta=-0.5, case_tag="a", probe_points=np.zeros((0, 4)), probe_margins=empty,
        probe_gaps=empty, atom_points=np.zeros((0, 4)), atom_residual_left=empty,
        atom_residual_right=empty, atom_gaps=empty, atom_norms=empty, qhat_scale=1.5,
    )
    path = tmp_path / "report.json"
    save_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["probes"] == [] and doc["atoms"] == []
    for data in (doc, {k: v for k, v in doc.items() if k not in ("probes", "atoms")}):
        loaded = report_from_dict(data)
        assert loaded.probe_points.shape == loaded.atom_points.shape == (0, 4)
        assert loaded.probe_margins.shape == loaded.atom_norms.shape == (0,)
        assert report_to_dict(loaded) == doc
    assert report_to_dict(load_report(path)) == doc


def test_atom_entry_without_norm_loads_as_norm_one():
    # Reports written before atom norms were recorded have no "norm".
    doc = report_to_dict(_sample_report())
    for atom in doc["atoms"]:
        del atom["norm"]
    loaded = report_from_dict(doc)
    np.testing.assert_array_equal(loaded.atom_norms, np.ones(len(doc["atoms"])))
    np.testing.assert_array_equal(loaded.atom_gaps, _sample_report().atom_gaps)


def test_report_dict_has_format_tag_and_rejects_others():
    report = _sample_report()
    data = report_to_dict(report)
    assert data["format"] == "kreinact-elreport"
    assert data["version"] == 1
    with pytest.raises(ValidationError):
        report_from_dict({**data, "format": "something-else"})
    with pytest.raises(ValidationError):
        report_from_dict({**data, "version": 99})


@pytest.mark.parametrize("field, value, message", [
    ("format", "kreinact-other", r"not a kreinact-\w+ document: format='kreinact-other'"),
    ("version", 2, "unsupported {} format version 2"),
])
@pytest.mark.parametrize("kind", ["measure", "operator", "report"])
def test_documents_reject_a_wrong_format_or_version(tmp_path, kind, field, value, message):
    path = tmp_path / f"{kind}.json"
    measure, _ = stationary_fixture()
    save, load = {
        "measure": (lambda: save_measure(measure, path), load_measure),
        "operator": (lambda: save_operator(ROTATION_Q, SP1, path), load_operator),
        "report": (lambda: save_report(_sample_report(), path), load_report),
    }[kind]
    save()
    load(path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    with pytest.raises(ValidationError, match=message.format(kind)):
        load(path)


def test_load_report_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_report(path)


def test_report_csv_output(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.csv"
    report_to_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p0,p1,p2,p3,gap,psd_margin"
    assert len(lines) == 1 + len(report.probe_points)
    first = lines[1].split(",")
    np.testing.assert_array_equal(
        np.array([float(x) for x in first[:4]]), report.probe_points[0]
    )
    assert float(first[4]) == report.probe_gaps[0]
    assert float(first[5]) == report.probe_margins[0]
