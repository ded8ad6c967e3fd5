"""Tests for momentum boxes, operator measures, fixtures, and serialization."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_measure_for, random_positive, unit_momentum_box, unprivileged
from kreinact import tolerances
from kreinact import (
    MomentumBox,
    OperatorMeasure,
    PositionGrid,
    SignatureSpace,
    ValidationError,
    constraint_values,
    decompose,
    dirac_sea_fixture,
    feynman_slash,
    gamma_matrices,
    is_positive,
    is_symmetric,
    load_measure,
    load_operator,
    massless_fixture,
    measure_from_dict,
    measure_to_dict,
    random_measure,
    save_measure,
    save_operator,
    scale,
    translate,
    variation_measure,
)
from kreinact.homomeasure import _write_text
from kreinact.krein import _positive_rows


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


@pytest.mark.parametrize("lower, upper, shape, message", [
    ((-1, -1, -1), (1, 1, 1, 1), (2, 1, 1, 1), "4-dimensional"),
    ((-1, -1, -1, -1), (1, 1, 1, 1), (2, 1, 1), "4-dimensional"),
    ((-1, -1, -1, -1), (1, 1, 1, 1), (2, 0, 1, 1), "grid shape entries must be >= 1"),
])
def test_box_rejects_bad_dimensions_and_shapes(lower, upper, shape, message):
    with pytest.raises(ValidationError, match=message):
        MomentumBox(lower, upper, shape)


# ---------------------------------------------------------------------------
# OperatorMeasure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("momenta, operators, message", [
    (np.zeros((2, 4)), np.zeros((3, 2, 2)), "number of momenta and operators must agree"),
    (np.zeros((2, 3)), np.zeros((2, 2, 2)), "atom momenta must be 4-vectors"),
    (np.zeros((2, 4)), np.zeros((2, 4, 4)), r"operators must have shape \(2, 2\)"),
])
def test_measure_rejects_misshapen_atoms(momenta, operators, message):
    with pytest.raises(ValidationError, match=message):
        OperatorMeasure(SignatureSpace(1), unit_momentum_box(), momenta, operators)


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


def _per_atom_verdict(box, momenta, ops, sp):
    """What validating atom by atom reports first: containment, then positivity."""
    for j, p in enumerate(momenta):
        if not box.contains(p):
            return f"atom {j} at"
    for j, A in enumerate(ops):
        if not np.isfinite(A).all():
            return "non-finite entries"
        if not is_positive(A, sp):
            return f"atom {j} carries a non-positive operator"
    return None


@pytest.mark.parametrize("outside, non_positive, nan", [
    pytest.param((), 13, None, id="non-positive-13"),
    pytest.param((9, 20), None, None, id="outside-9"),
    pytest.param((9,), 3, 5, id="outside-before-operators"),
    pytest.param((), 13, 20, id="non-positive-before-nan"),
    pytest.param((), 20, 13, id="nan-before-non-positive"),
])
def test_stacked_validation_names_the_first_offending_atom(outside, non_positive, nan):
    sp = SignatureSpace(2)
    box = MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 3, 3, 1))
    momenta = box.grid_points()
    rng = make_rng(40)
    ops = np.array([random_positive(sp, rng) for _ in momenta])
    momenta[list(outside), 0] = 1.5
    if non_positive is not None:
        ops[non_positive] = np.eye(4)  # S = diag(1, 1, -1, -1) is not psd
    if nan is not None:
        ops[nan][0, 1] = np.nan
    expected = _per_atom_verdict(box, momenta, ops, sp)
    assert expected is not None
    with pytest.raises(ValidationError, match=expected):
        OperatorMeasure(sp, box, momenta, ops)


def test_stacked_positivity_agrees_with_is_positive_near_the_tolerances():
    # Smallest eigenvalue of S A and symmetry defect each at a multiple of
    # the relative tolerance, on both sides of it.
    sp = SignatureSpace(2)
    rng = make_rng(41)
    stack = []
    for t in (0.0, 0.5, 0.99, 1.0, 1.01, 2.0):
        for s in (0.0, 0.5, 0.99, 1.01, 2.0):
            V = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            H = (V * np.array([2.0, 1.0, 0.5, -2.0 * t * tolerances.PSD])) @ V.conj().T
            K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            K = K - K.conj().T
            K *= s * tolerances.HERMITICITY * 2.0 / np.linalg.norm(K, 2)
            stack.append(sp.signature[:, None] * (H + 0.5 * K))
    stack = np.array(stack + [random_positive(sp, rng) for _ in range(20)])
    stacked = _positive_rows(stack, sp.signature)
    assert stacked.tolist() == [is_positive(A, sp) for A in stack]
    assert stacked.tolist() == [_old_is_positive(A, sp) for A in stack]
    assert stacked.any() and not stacked.all()


def _old_is_positive(A, sp):
    """The per-atom rule: symmetry test, then the smallest eigenvalue, both relative."""
    if not is_symmetric(A, sp):
        return False
    H = sp.signature[:, None] * A
    w_min = np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0]
    return bool(w_min >= -tolerances.PSD * max(float(np.linalg.norm(A, 2)), 1.0))


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


def test_scale_multiplies_operators():
    sp = SignatureSpace(1)
    meas = random_measure_for(sp, make_rng(9))
    lam = 0.7
    scaled = scale(meas, lam)
    for A, B in zip(meas.operators, scaled.operators):
        np.testing.assert_allclose(lam * A, B, atol=0)
    np.testing.assert_allclose(scaled.momenta, meas.momenta, atol=0)


def test_translate_and_scale_reject_bad_arguments():
    meas = random_measure_for(SignatureSpace(1), make_rng(7))
    for shift, shape in (([0.1, 0.2, 0.3], (3,)), ([[0.1, 0.2, 0.3, 0.4]], (1, 4))):
        message = f"translation shift must be a 4-vector, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            translate(meas, shift)
    for factor in (0.0, -0.5):
        message = f"scale factor must be finite and positive, got {factor}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            scale(meas, factor)


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


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_dirac_sea_rejects_a_mass_that_is_not_finite_and_positive(mass):
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        dirac_sea_fixture(mass, [(-1.0, 0.0, 0.0, 0.0)])


def test_dirac_sea_rejects_off_shell_points():
    with pytest.raises(ValidationError):
        dirac_sea_fixture(1.0, [(-2.0, 0.0, 0.0, 0.0)])  # p^2 = 4 != 1
    with pytest.raises(ValidationError):
        dirac_sea_fixture(1.0, [(1.0, 0.0, 0.0, 0.0)])  # upper shell


def test_shell_fixtures_reject_momenta_of_the_wrong_kind():
    with pytest.raises(ValidationError, match="shell points must be 4-vectors"):
        dirac_sea_fixture(1.0, [(0.2, 0.0, 0.1)])
    with pytest.raises(ValidationError, match="wave vectors must be spatial 3-vectors"):
        massless_fixture([(-0.5, 0.4, 0.0, 0.3)])
    with pytest.raises(ValidationError, match="wave vectors must be nonzero"):
        massless_fixture([(0.4, 0.0, 0.3), (0.0, 0.0, 0.0)])


def test_massless_atoms_are_nilpotent():
    meas = massless_fixture([(0.4, 0.0, 0.3)])
    A = meas.operators[0]
    np.testing.assert_allclose(A @ A, np.zeros_like(A), atol=1e-12)
    assert is_positive(A, meas.space)


def test_random_measure_magnitude_and_validity():
    sp = SignatureSpace(2)
    box = unit_momentum_box((2, 2, 1, 1))
    meas = random_measure(sp, box, 3, make_rng(12))
    assert meas.n_atoms == 3
    for _, A in meas.atoms():
        assert is_positive(A, sp)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 27])
@pytest.mark.parametrize("seed", [0, 1, 4])
def test_random_measure_keeps_the_per_atom_draw_order(n, k, seed):
    # The fixture files `kreinact fixture random` writes depend on this stream order.
    sp, box = SignatureSpace(n), unit_momentum_box((2, 2, 1, 1))
    rng = make_rng(seed)
    momenta = np.asarray(box.lower) + (np.asarray(box.upper) - np.asarray(box.lower)) * rng.random((k, 4))
    ops = []
    for _ in range(k):
        M = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal((sp.dim, sp.dim))
        M *= np.sqrt(1.0 / sp.dim)
        ops.append(sp.signature[:, None] * (M.conj().T @ M))
    meas = random_measure(sp, box, k, make_rng(seed))
    np.testing.assert_array_equal(meas.momenta, momenta)
    np.testing.assert_array_equal(meas.operators, np.asarray(ops, complex).reshape(k, sp.dim, sp.dim))


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


def _count_reproduction_dict() -> dict:
    box = MomentumBox((-1,) * 4, (1,) * 4, (2, 1, 1, 1))
    return measure_to_dict(random_measure(SignatureSpace(1), box, 2, make_rng(0)))


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "1", 0])
def test_counts_must_be_integers_not_bools(tmp_path, bad):
    # One rule for every count: an integral number, not a bool, at or above
    # its floor. Measure and operator files used to truncate n = 1.9 to 1
    # and grid_shape [2.5, 1, 1, True] to (2, 1, 1, 1).
    with pytest.raises(ValidationError, match="spin dimension"):
        SignatureSpace(bad)
    shape = (bad, 1, 1, 1)
    with pytest.raises(ValidationError, match="grid shape entries must be >= 1"):
        MomentumBox((-1,) * 4, (1,) * 4, shape)
    with pytest.raises(ValidationError, match="grid shape"):
        PositionGrid.from_box(1.0, shape)
    doc = _count_reproduction_dict()
    doc["n"] = bad
    with pytest.raises(ValidationError, match="spin dimension"):
        measure_from_dict(doc)
    doc = _count_reproduction_dict()
    doc["box"]["grid_shape"] = [2, 1, 1, bad]
    with pytest.raises(ValidationError, match="grid shape"):
        measure_from_dict(doc)
    path = tmp_path / "op.json"
    save_operator(np.eye(2), SignatureSpace(1), path)
    doc = json.loads(path.read_text())
    doc["n"] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="spin dimension"):
        load_operator(path)


def test_count_rule_keeps_numpy_integers():
    assert SignatureSpace(np.int64(2)).n == 2
    assert type(SignatureSpace(np.int64(2)).n) is int
    box = MomentumBox((-1,) * 4, (1,) * 4, np.array([3, 1, 2, 1]))
    assert box.grid_shape == (3, 1, 2, 1)
    assert all(type(k) is int for k in box.grid_shape)
    assert len(PositionGrid.from_box(1.0, np.array([3, 1, 1, 1])).points) == 3


def test_operator_round_trip_bit_exact(tmp_path):
    sp = SignatureSpace(1)
    A = random_positive(sp, make_rng(15))
    path = tmp_path / "op.json"
    save_operator(A, sp, path)
    B, sp2 = load_operator(path)
    assert sp2.n == sp.n
    np.testing.assert_array_equal(A, B)


# ---------------------------------------------------------------------------
# The byte writer: in place, then cut to length
# ---------------------------------------------------------------------------

def test_writer_overwrites_a_longer_file_with_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "run.csv"
    path.write_bytes(b"9" * 4096 + b"\n")
    _write_text(path, "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"
    _write_text(path, "")
    assert path.read_bytes() == b""


def test_writer_creates_a_file_with_the_mode_open_gives_it(tmp_path):
    _write_text(tmp_path / "new.json", "{}\n")
    with open(tmp_path / "reference.json", "w") as fh:
        fh.write("{}\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert os.stat(tmp_path / "new.json").st_mode == os.stat(tmp_path / "reference.json").st_mode


def test_writer_follows_a_symlink_and_keeps_it(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"old and longer\n")
    link.symlink_to(target.name)
    _write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == b"new\n"


def test_writer_keeps_the_inode_a_hard_link_shares(tmp_path):
    path, other = tmp_path / "report.json", tmp_path / "other-name.json"
    path.write_bytes(b"old and longer\n")
    os.link(path, other)
    inode = os.stat(path).st_ino
    _write_text(path, "new\n")
    assert os.stat(path).st_ino == inode
    assert other.read_bytes() == b"new\n"


def test_writer_keeps_the_permission_error_of_a_read_only_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "read-only.json"
    path.write_bytes(b"old\n")
    path.chmod(0o444)
    with unprivileged(tmp_path):
        assert path.name in os.listdir(".")  # the file, not the directory, refuses
        with pytest.raises(PermissionError) as err:
            _write_text(path.name, "new\n")
    assert err.value.filename == path.name
    assert path.read_bytes() == b"old\n"


def test_writer_keeps_the_error_of_a_missing_parent_directory(tmp_path):
    path = tmp_path / "missing" / "report.json"
    with pytest.raises(FileNotFoundError) as err:
        _write_text(path, "new\n")
    assert err.value.filename == str(path)
    assert not path.parent.exists()
