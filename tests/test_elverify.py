"""Tests for the first-order verification layer.

The stationary fixture used throughout is a constant gradient field: when
``Qhat(p) = q`` for every ``p``, the measure-level first-order conditions
reduce to the pointwise problem, whose closed-form minimizer and
multipliers are known exactly (see test_pointwise).
"""

import json

import numpy as np
import pytest

from conftest import (
    make_rng,
    oracle_gap_bisection,
    random_measure_for,
    random_positive,
    random_symmetric,
    richardson_derivative,
    unit_momentum_box,
)
from kreinact import (
    ELReport,
    InfeasibleProblemError,
    OperatorMeasure,
    PositionGrid,
    PushforwardMeasure,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    action,
    beta_sign_check,
    check_first_order,
    el_residuals,
    gap_of_operator,
    kappa_coefficients,
    lagrange_parameters,
    load_report,
    pushforward,
    report_from_dict,
    report_to_csv,
    report_to_dict,
    restore_constraints,
    save_report,
    support_gap,
)

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
# Constraint-restoring block-scaling rates
# ---------------------------------------------------------------------------

def _scaled_traces(total, direction, rates, space, t):
    k1, k2 = rates
    dvec = np.concatenate(
        [(1.0 + t * k1) * np.ones(space.n), (1.0 + t * k2) * np.ones(space.n)]
    )
    M = dvec[:, None] * (total + t * direction) * dvec[None, :]
    return (
        float(np.trace(M).real),
        float(np.trace(space.signature[:, None] * M).real),
    )


def _measure_with_positive_trace(sp: SignatureSpace, start_seed: int) -> OperatorMeasure:
    for seed in range(start_seed, start_seed + 50):
        measure = random_measure_for(sp, make_rng(seed))
        if float(np.trace(measure.operators.sum(axis=0)).real) > 0.1:
            return measure
    raise AssertionError("no random measure with positive trace found")


def test_kappa_case_a_cancels_trace_rate():
    rng = make_rng(5)
    for n in (1, 2):
        sp = SignatureSpace(n)
        measure = restore_constraints(_measure_with_positive_trace(sp, 5), "a", 0.8, 2.0)
        total = measure.operators.sum(axis=0)
        direction = random_symmetric(sp, rng)
        k1, k2 = kappa_coefficients("a", direction, sp, 0.8, 2.0)
        assert k1 == k2
        rate = richardson_derivative(
            lambda t: _scaled_traces(total, direction, (k1, k2), sp, t)[0], 0.0, 1e-4
        )
        assert abs(rate) < 1e-8


def test_kappa_case_b_cancels_both_rates():
    rng = make_rng(6)
    for n in (1, 2):
        sp = SignatureSpace(n)
        c, f = 0.8, 2.0
        measure = restore_constraints(random_measure_for(sp, rng), "b", c, f)
        total = measure.operators.sum(axis=0)
        direction = random_symmetric(sp, rng)
        rates = kappa_coefficients("b", direction, sp, c, f)
        d_trace = richardson_derivative(
            lambda t: _scaled_traces(total, direction, rates, sp, t)[0], 0.0, 1e-4
        )
        d_signed = richardson_derivative(
            lambda t: _scaled_traces(total, direction, rates, sp, t)[1], 0.0, 1e-4
        )
        assert abs(d_trace) < 1e-8
        assert abs(d_signed) < 1e-8


def test_kappa_validation():
    direction = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError):
        kappa_coefficients("a", direction, SP1, 0.0, 2.0)
    with pytest.raises(ValidationError):
        kappa_coefficients("b", direction, SP1, 2.0, 2.0)
    with pytest.raises(ValidationError):
        kappa_coefficients("c", direction, SP1, 1.0, 2.0)


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


def test_lagrange_parameters_rejects_bad_targets():
    measure, _ = stationary_fixture()
    mu = pushforward(measure, constant_field(ROTATION_Q, 2))
    with pytest.raises(InfeasibleProblemError):
        lagrange_parameters(mu, c=0.6, f=1.5)  # signed trace 2.0 exceeds f
    with pytest.raises(ValidationError):
        lagrange_parameters(mu, c=2.0, f=1.0)
    with pytest.raises(ValidationError):
        lagrange_parameters(mu, c=0.0, f=1.0)


# ---------------------------------------------------------------------------
# Support gap
# ---------------------------------------------------------------------------

def test_gap_closed_forms():
    S = SP1.signature_matrix
    assert gap_of_operator(3.0 * S, SP1) == pytest.approx(3.0, rel=1e-12)
    assert gap_of_operator(S @ np.diag([2.0, 5.0]).astype(complex), SP1) == pytest.approx(
        2.0, rel=1e-12
    )
    # Indefinite Hermitian representative: no symmetric spectral interval.
    assert gap_of_operator(ROTATION_Q, SP1) == 0.0
    # Neutral rank-one: psd representative with kernel.
    v = np.array([1.0, 1.0], complex)
    T = SP1.signature[:, None] * np.outer(v, v.conj())
    assert gap_of_operator(T, SP1) == pytest.approx(0.0, abs=1e-12)


def test_gap_matches_bisection_oracle():
    for n in (1, 2):
        sp = SignatureSpace(n)
        for seed in range(4):
            rng = make_rng(40 + seed)
            T = random_positive(sp, rng)
            lib = gap_of_operator(T, sp)
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
    assert not beta_sign_check(report)
    assert not check_first_order(report, 1e6)["beta_sign"]  # sign, not size
    good = el_residuals(
        pushforward(measure, constant_field(ROTATION_Q, 2)),
        0.0,
        -0.5,
        box.grid_points(),
        constant_field(ROTATION_Q, 4),
        case_tag="b",
    )
    assert beta_sign_check(good)


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


def test_report_dict_has_format_tag_and_rejects_others():
    report = _sample_report()
    data = report_to_dict(report)
    assert data["format"] == "kreinact-elreport"
    assert data["version"] == 1
    with pytest.raises(ValidationError):
        report_from_dict({**data, "format": "something-else"})
    with pytest.raises(ValidationError):
        report_from_dict({**data, "version": 99})


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
