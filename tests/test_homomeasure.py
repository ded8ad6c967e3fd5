"""Tests for momentum boxes, operator measures, fixtures, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_measure_for, random_positive, unit_momentum_box
from kreinact import (
    MomentumBox,
    OperatorMeasure,
    SignatureSpace,
    ValidationError,
    apply_linear,
    constraint_values,
    decompose,
    dirac_sea_fixture,
    feynman_slash,
    gamma_matrices,
    is_positive,
    load_measure,
    load_operator,
    massless_fixture,
    measure_from_dict,
    measure_to_dict,
    random_measure,
    save_measure,
    save_operator,
    scale,
    transform,
    translate,
    variation_measure,
)


# ---------------------------------------------------------------------------
# MomentumBox
# ---------------------------------------------------------------------------

def test_box_grid_points_inside_and_count():
    box = MomentumBox((-1, -2, 0, -0.5), (1, 2, 1, 0.5), (3, 2, 2, 1))
    pts = box.grid_points()
    assert pts.shape == (3 * 2 * 2 * 1, 4)
    for p in pts:
        assert box.contains(p)


def test_box_single_point_axis_uses_midpoint():
    box = MomentumBox((-1, -1, -1, -1), (1, 1, 1, 1), (2, 1, 1, 1))
    pts = box.grid_points()
    np.testing.assert_allclose(pts[:, 1:], 0.0, atol=0)
    np.testing.assert_allclose(sorted(pts[:, 0]), [-1.0, 1.0])


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        MomentumBox((1, 0, 0, 0), (-1, 1, 1, 1), (2, 1, 1, 1))
    nan, inf = float("nan"), float("inf")
    for lower, upper in (((nan, 0, 0, 0), (1, 1, 1, 1)), ((0, 0, 0, 0), (1, nan, 1, 1)),
                         ((-inf, 0, 0, 0), (1, 1, 1, 1)), ((0, 0, 0, 0), (1, 1, 1, inf))):
        with pytest.raises(ValidationError, match="finite"):
            MomentumBox(lower, upper, (2, 1, 1, 1))


# ---------------------------------------------------------------------------
# OperatorMeasure
# ---------------------------------------------------------------------------

def test_measure_total_and_positivity():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(0), n_atoms=3, shape=(3, 1, 1, 1))
    total = meas.total()
    np.testing.assert_allclose(total, sum(meas.operators), atol=0)
    assert is_positive(total, sp)


def test_measure_rejects_momentum_outside_box():
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A = random_positive(sp, make_rng(1))
    with pytest.raises(ValidationError):
        OperatorMeasure(sp, box, np.array([[5.0, 0, 0, 0]]), [A])


def test_measure_rejects_non_positive_atom():
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    bad = np.diag([1.0, 1.0]).astype(complex)  # S*bad = diag(1,-1) not psd
    with pytest.raises(ValidationError):
        OperatorMeasure(sp, box, np.array([[0.0, 0, 0, 0]]), [bad])


def test_measure_rejects_duplicate_momenta():
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A = random_positive(sp, make_rng(2))
    pts = np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]])
    with pytest.raises(ValidationError):
        OperatorMeasure(sp, box, pts, [A, A])


# ---------------------------------------------------------------------------
# Constraint values
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_constraint_values_dim_sum_vs_mod_dim(seed):
    # Sum of |eigenvalues| never exceeds Tr(S nu); trace matches direct sum
    sp = SignatureSpace(int(make_rng(seed).integers(1, 3)))
    meas = random_measure_for(sp, make_rng(seed + 1), n_atoms=3, shape=(3, 1, 1, 1))
    cv = constraint_values(meas)
    total = meas.total()
    assert cv.trace == pytest.approx(float(np.trace(total).real), rel=1e-12)
    sig = sp.signature
    direct_mod = float(np.trace(sig[:, None] * total).real)
    assert cv.mod_dim == pytest.approx(direct_mod, rel=1e-12)
    assert cv.dim_sum <= cv.mod_dim * (1 + 1e-9) + 1e-12


def test_constraint_values_dim_sum_extrapolation_accuracy():
    # the congruence spectrum matches the dense general solver's |eigenvalue| sum
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(9), n_atoms=2)
    total = meas.total()
    lam = np.linalg.eigvals(total)
    expected = float(np.sum(np.abs(lam.real)))
    cv = constraint_values(meas)
    assert cv.dim_sum == pytest.approx(expected, rel=1e-6)


def test_constraint_values_dim_sum_of_massless_atom_vanishes():
    # a nilpotent total (Jordan block at zero) has modulus sum exactly 0
    cv = constraint_values(massless_fixture([[0.3, -0.4, 1.2]]))
    assert cv.dim_sum <= 1e-6


# ---------------------------------------------------------------------------
# Variation measure and decomposition
# ---------------------------------------------------------------------------

def test_variation_measure_two_atoms_matches_partition_enumeration():
    # finite enumeration of all partitions of two atoms: the atomwise sum wins
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(4), n_atoms=2)
    var = variation_measure(meas)
    atomwise = sum(w for _, w in var)
    A1, A2 = meas.operators
    spectral = lambda A: float(np.linalg.norm(sp.signature[:, None] * A, 2))
    partitions = [spectral(A1 + A2), spectral(A1) + spectral(A2)]
    assert atomwise == pytest.approx(max(partitions), rel=1e-12)


def test_variation_measure_single_and_zero():
    sp = SignatureSpace(1)
    box = unit_momentum_box()
    A = random_positive(sp, make_rng(5))
    meas = OperatorMeasure(sp, box, np.array([[0.0, 0, 0, 0]]), [A])
    var = variation_measure(meas)
    assert len(var) == 1
    assert var[0][1] == pytest.approx(np.linalg.norm(sp.signature[:, None] * A, 2))
    zero = OperatorMeasure(sp, box, np.array([[0.0, 0, 0, 0]]), [np.zeros((2, 2))])
    assert variation_measure(zero)[0][1] == pytest.approx(0.0, abs=1e-300)


def test_decompose_reconstructs_and_is_norm_independent():
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(6), n_atoms=2)
    parts = decompose(meas)
    for j in range(meas.n_atoms):
        np.testing.assert_allclose(
            parts.particle.operators[j] + parts.neutral.operators[j] + parts.sea.operators[j],
            meas.operators[j],
            atol=1e-10 * np.linalg.norm(meas.operators[j], 2),
        )


def test_decompose_zero_atom_splits_into_zeros():
    sp = SignatureSpace(1)
    A = random_positive(sp, make_rng(8))
    pts = np.array([[0.0, 0, 0, 0], [0.5, 0, 0, 0]])
    meas = OperatorMeasure(sp, unit_momentum_box(), pts, [np.zeros((2, 2)), A])
    parts = decompose(meas)
    for component in (parts.particle, parts.neutral, parts.sea):
        assert component.n_atoms == 2
        assert np.array_equal(component.operators[0], np.zeros((2, 2)))
    np.testing.assert_allclose(
        parts.particle.operators[1] + parts.neutral.operators[1] + parts.sea.operators[1],
        A,
        atol=1e-10 * np.linalg.norm(A, 2),
    )


def test_decompose_dirac_sea_is_pure_sea():
    meas = dirac_sea_fixture(1.0, [(-np.sqrt(1 + 0.25), 0.5, 0.0, 0.0)])
    parts = decompose(meas)
    assert np.linalg.norm(parts.particle.operators[0]) == pytest.approx(0.0, abs=1e-10)
    assert np.linalg.norm(parts.neutral.operators[0]) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(parts.sea.operators[0], meas.operators[0], atol=1e-10)


def test_decompose_massless_is_pure_neutral():
    meas = massless_fixture([(0.3, 0.4, 0.0)])
    parts = decompose(meas)
    assert np.linalg.norm(parts.particle.operators[0]) == pytest.approx(0.0, abs=1e-10)
    assert np.linalg.norm(parts.sea.operators[0]) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(parts.neutral.operators[0], meas.operators[0], atol=1e-10)


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def test_translate_shifts_momenta_only():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(7))
    shift = np.array([0.3, -0.1, 0.2, 0.05])
    moved = translate(meas, shift)
    np.testing.assert_allclose(moved.momenta, meas.momenta + shift, atol=1e-15)
    for A, B in zip(meas.operators, moved.operators):
        np.testing.assert_allclose(A, B, atol=0)


def test_apply_linear_maps_momenta():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(8))
    B = np.diag([2.0, 0.5, 1.0, 1.0])
    mapped = apply_linear(meas, B)
    np.testing.assert_allclose(mapped.momenta, meas.momenta @ B.T, atol=1e-14)


def test_scale_multiplies_operators():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(9))
    lam = 0.7
    scaled = scale(meas, lam)
    for A, B in zip(meas.operators, scaled.operators):
        np.testing.assert_allclose(lam * A, B, atol=0)
    np.testing.assert_allclose(scaled.momenta, meas.momenta, atol=0)


def test_transform_dispatch():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(10))
    t1 = transform(meas, "translate", [0.1, 0, 0, 0])
    np.testing.assert_allclose(t1.momenta, meas.momenta + np.array([0.1, 0, 0, 0]))
    with pytest.raises(ValidationError):
        transform(meas, "rotate", 1.0)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def test_gamma_matrices_clifford_relations():
    g = gamma_matrices()
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            np.testing.assert_allclose(anti, 2 * eta[mu, nu] * np.eye(4), atol=1e-14)


def test_feynman_slash_squares_to_minkowski_norm():
    rng = make_rng(11)
    p = rng.standard_normal(4)
    slash = feynman_slash(p)
    p2 = p[0] ** 2 - np.dot(p[1:], p[1:])
    np.testing.assert_allclose(slash @ slash, p2 * np.eye(4), atol=1e-12)


def test_dirac_sea_atoms_positive_with_negative_spectrum():
    m = 1.3
    ks = [(0.2, 0.0, 0.1), (0.0, 0.5, 0.0)]
    pts = [(-np.sqrt(m * m + np.dot(k, k)), *k) for k in ks]
    meas = dirac_sea_fixture(m, pts)
    sp = meas.space
    assert sp.n == 2
    for _, A in meas.atoms():
        assert is_positive(A, sp)
        lam = np.linalg.eigvals(A)
        # sea atoms: nonzero eigenvalues all negative (rank 2, eigenvalue -2m)
        nonzero = lam[np.abs(lam) > 1e-9]
        assert np.all(nonzero.real < 0)
        np.testing.assert_allclose(nonzero.real, -2 * m, atol=1e-9)


def test_dirac_sea_rejects_off_shell_points():
    with pytest.raises(ValidationError):
        dirac_sea_fixture(1.0, [(-2.0, 0.0, 0.0, 0.0)])  # p^2 = 4 != 1
    with pytest.raises(ValidationError):
        dirac_sea_fixture(1.0, [(1.0, 0.0, 0.0, 0.0)])  # upper shell


def test_massless_atoms_are_nilpotent():
    meas = massless_fixture([(0.4, 0.0, 0.3)])
    A = meas.operators[0]
    np.testing.assert_allclose(A @ A, np.zeros_like(A), atol=1e-12)
    assert is_positive(A, meas.space)


def test_random_measure_magnitude_and_validity():
    sp = SignatureSpace(2)
    box = unit_momentum_box((2, 2, 1, 1))
    meas = random_measure(sp, box, 3, make_rng(12), magnitude=2.0)
    assert meas.n_atoms == 3
    for _, A in meas.atoms():
        assert is_positive(A, sp)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_measure_round_trip_bit_exact(tmp_path):
    sp = SignatureSpace(2)
    meas = random_measure_for(sp, make_rng(13), n_atoms=3, shape=(3, 1, 1, 1))
    path = tmp_path / "m.json"
    save_measure(meas, path)
    back = load_measure(path)
    assert back.space.n == sp.n
    np.testing.assert_array_equal(back.momenta, meas.momenta)
    for A, B in zip(meas.operators, back.operators):
        np.testing.assert_array_equal(A, B)
    np.testing.assert_array_equal(back.box.lower, meas.box.lower)
    np.testing.assert_array_equal(back.box.upper, meas.box.upper)


def test_measure_dict_has_format_and_version():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(14))
    doc = measure_to_dict(meas)
    assert doc["format"] == "kreinact-measure"
    assert doc["version"] == 1
    again = measure_from_dict(doc)
    np.testing.assert_array_equal(again.momenta, meas.momenta)


def test_measure_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValidationError):
        load_measure(path)


def test_operator_round_trip_bit_exact(tmp_path):
    sp = SignatureSpace(1)
    A = random_positive(sp, make_rng(15))
    path = tmp_path / "op.json"
    save_operator(A, sp, path)
    B, sp2 = load_operator(path)
    assert sp2.n == sp.n
    np.testing.assert_array_equal(A, B)
