"""Tests for the wave/local-correlation construction on top of measures."""

import numpy as np
import pytest

from conftest import make_rng, random_measure_for, unit_momentum_box
from kreinact import (
    BasisReductionWarning,
    OperatorMeasure,
    PositionGrid,
    SignatureSpace,
    TestFunction,
    ValidationError,
    correlations_to_csv,
    empirical_cfs,
    hilbert_inner,
    local_correlation,
    massless_fixture,
    physical_wave,
    standard_basis,
)

SP1 = SignatureSpace(1)


def combine(basis, coefficients) -> TestFunction:
    """Linear combination of test functions (pointwise on atom indices)."""
    values: dict = {}
    for c, u in zip(coefficients, basis):
        for j, vec in u.values.items():
            values[j] = values.get(j, 0.0) + c * vec
    return TestFunction(values=values)


# ---------------------------------------------------------------------------
# Test functions, induced inner product, waves
# ---------------------------------------------------------------------------

def test_standard_basis_enumerates_atoms_and_coordinates():
    measure = random_measure_for(SP1, make_rng(0), n_atoms=2)
    basis = standard_basis(measure)
    assert len(basis) == measure.n_atoms * SP1.dim
    assert len(standard_basis(measure, limit=3)) == 3
    # Each basis element is supported on a single atom.
    assert all(len(u.values) == 1 for u in basis)


@pytest.mark.parametrize("limit", [0, -5])
def test_standard_basis_rejects_a_limit_below_one(limit):
    measure = random_measure_for(SP1, make_rng(0), n_atoms=2)
    with pytest.raises(ValidationError, match="at least 1"):
        standard_basis(measure, limit=limit)


def test_hilbert_inner_matches_atom_blocks():
    measure = random_measure_for(SP1, make_rng(1), n_atoms=2)
    basis = standard_basis(measure)
    d = SP1.dim
    sig = SP1.signature
    for j, A in enumerate(measure.operators):
        block = sig[:, None] * A
        for i in range(d):
            for k in range(d):
                val = hilbert_inner(basis[j * d + i], basis[j * d + k], measure)
                assert val == pytest.approx(block[i, k], abs=1e-13)
    # Disjoint atom supports are orthogonal.
    assert hilbert_inner(basis[0], basis[d], measure) == 0.0


def test_gram_matrix_is_hermitian_psd():
    for n in (1, 2):
        sp = SignatureSpace(n)
        measure = random_measure_for(sp, make_rng(2), n_atoms=2)
        basis = standard_basis(measure)
        m = len(basis)
        G = np.array(
            [[hilbert_inner(u, v, measure) for v in basis] for u in basis]
        )
        np.testing.assert_allclose(G, G.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
        assert w[0] > -1e-12 * max(w[-1], 1.0)


def test_physical_wave_formula_and_validation():
    measure = random_measure_for(SP1, make_rng(3), n_atoms=2)
    rng = make_rng(4)
    u = TestFunction(
        values={j: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                for j in range(measure.n_atoms)}
    )
    x = np.array([0.3, -0.1, 0.0, 0.7])
    expected = sum(
        np.exp(-1j * float(p @ x)) * (A @ u.values[j])
        for j, (p, A) in enumerate(measure.atoms())
    )
    np.testing.assert_allclose(physical_wave(u, measure, x), expected, atol=1e-13)
    with pytest.raises(ValidationError):
        physical_wave(u, measure, np.zeros(3))
    with pytest.raises(ValidationError):
        u_bad = TestFunction(values={0: np.ones(5)})
        physical_wave(u_bad, measure, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_waves_and_correlations_reject_non_finite_positions(bad):
    # Without the check, an infinite coordinate gave a NaN wave and a NaN
    # one made the correlation eigensolve fail inside numpy.
    measure = massless_fixture([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    basis = standard_basis(measure)
    x = [bad, 0.0, 0.0, 0.0]
    with pytest.raises(ValidationError, match="finite"):
        physical_wave(basis[0], measure, x)
    with pytest.raises(ValidationError, match="finite"):
        local_correlation(measure, x, basis)


# ---------------------------------------------------------------------------
# Local correlation operators
# ---------------------------------------------------------------------------

def test_correlation_matrix_matches_wave_pairings():
    # physical_wave and hilbert_inner, atom by atom, are the reference for
    # the stacked products of local_correlation.
    x = np.array([0.2, 0.0, 0.0, -0.4])
    for n in (1, 2):
        sp = SignatureSpace(n)
        measure = random_measure_for(sp, make_rng(5), n_atoms=2)
        basis = standard_basis(measure)
        corr = local_correlation(measure, x, basis)
        waves = [physical_wave(u, measure, x) for u in basis]
        sig = sp.signature
        direct = np.array([[-np.vdot(wi, sig * wj) for wj in waves] for wi in waves])
        np.testing.assert_allclose(corr.matrix, 0.5 * (direct + direct.conj().T), atol=1e-12)
        np.testing.assert_allclose(corr.matrix, corr.matrix.conj().T, atol=0)
        gram = np.array([[hilbert_inner(u, v, measure) for v in basis] for u in basis])
        np.testing.assert_allclose(corr.gram, 0.5 * (gram + gram.conj().T), atol=1e-12)
        np.testing.assert_allclose(corr.gram, corr.gram.conj().T, atol=0)
        np.testing.assert_array_equal(corr.x, x)


def test_signature_bound_on_pencil_eigenvalues():
    # The local operators inherit the (n, n) signature: at most n positive
    # and at most n negative pencil eigenvalues, in any basis size.
    for n in (1, 2):
        sp = SignatureSpace(n)
        for seed in range(4):
            measure = random_measure_for(sp, make_rng(20 + seed), n_atoms=2)
            basis = standard_basis(measure)
            for x in (np.zeros(4), np.array([0.7, 0.1, -0.3, 1.9])):
                eigs = local_correlation(measure, x, basis).pencil_eigenvalues
                scale = max(float(np.abs(eigs).max(initial=0.0)), 1.0)
                assert int((eigs > 1e-9 * scale).sum()) <= n
                assert int((eigs < -1e-9 * scale).sum()) <= n


def test_pencil_eigenvalues_are_basis_independent():
    measure = random_measure_for(SP1, make_rng(6), n_atoms=2)
    basis = standard_basis(measure)
    rng = make_rng(7)
    mixing = rng.standard_normal((len(basis), len(basis))) + 1j * rng.standard_normal(
        (len(basis), len(basis))
    )
    mixed = [combine(basis, row) for row in mixing]
    x = np.array([0.5, 0.0, 0.0, 0.25])
    eigs_a = local_correlation(measure, x, basis).pencil_eigenvalues
    eigs_b = local_correlation(measure, x, mixed).pencil_eigenvalues
    np.testing.assert_allclose(eigs_a, eigs_b, rtol=1e-9, atol=1e-9)


def test_pencil_eigenvalues_position_independent_for_homogeneous_measures():
    measure = random_measure_for(SP1, make_rng(8), n_atoms=2)
    basis = standard_basis(measure)
    reference = local_correlation(measure, np.zeros(4), basis).pencil_eigenvalues
    for x in ([1.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.9, 2.4]):
        eigs = local_correlation(measure, np.asarray(x), basis).pencil_eigenvalues
        np.testing.assert_allclose(eigs, reference, rtol=1e-9, atol=1e-9)


def test_empirical_cfs_equals_pointwise_local_correlation():
    # empirical_cfs builds the basis arrays once for the whole grid; each
    # sample must be the local_correlation of its own point.
    sp = SignatureSpace(2)
    measure = random_measure_for(sp, make_rng(12), n_atoms=3)
    basis = standard_basis(measure)
    grid = PositionGrid.from_box(1.5, (3, 2, 1, 2))
    samples = empirical_cfs(measure, grid, basis)
    assert len(samples) == len(grid.points)
    for (w, corr), xi, wi in zip(samples, grid.points, grid.weights):
        ref = local_correlation(measure, xi, basis)
        assert w == float(wi)
        np.testing.assert_array_equal(corr.x, ref.x)
        np.testing.assert_array_equal(corr.matrix, ref.matrix)
        np.testing.assert_array_equal(corr.gram, ref.gram)
        np.testing.assert_array_equal(corr.pencil_eigenvalues, ref.pencil_eigenvalues)


def test_degenerate_gram_triggers_basis_reduction():
    box = unit_momentum_box((2, 1, 1, 1))
    pts = box.grid_points()
    rng = make_rng(9)
    M = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    A = SP1.signature[:, None] * (M.conj().T @ M)  # rank one
    measure = OperatorMeasure(SP1, box, pts[:1], [A])
    w, V = np.linalg.eigh(0.5 * ((SP1.signature[:, None] * A)
                                 + (SP1.signature[:, None] * A).conj().T))
    kernel_vec = V[:, 0]  # eigenvalue ~ 0
    range_vec = V[:, 1]
    basis = [TestFunction(values={0: kernel_vec}), TestFunction(values={0: range_vec})]
    with pytest.warns(BasisReductionWarning):
        corr = local_correlation(measure, np.zeros(4), basis)
    assert len(corr.pencil_eigenvalues) == 1
    assert corr.matrix.shape == (2, 2)


def test_local_correlation_requires_nonempty_basis():
    measure = random_measure_for(SP1, make_rng(10))
    with pytest.raises(ValidationError):
        local_correlation(measure, np.zeros(4), [])


# ---------------------------------------------------------------------------
# Sampled push-forward and CSV output
# ---------------------------------------------------------------------------

def test_empirical_cfs_samples_the_grid(tmp_path):
    measure = random_measure_for(SP1, make_rng(11), n_atoms=2)
    basis = standard_basis(measure, limit=4)
    grid = PositionGrid.from_box(1.0, (3, 1, 1, 1))
    samples = empirical_cfs(measure, grid, basis)
    assert len(samples) == len(grid.points)
    assert sum(w for w, _ in samples) == pytest.approx(float(grid.weights.sum()))
    for (w, corr), xi in zip(samples, grid.points):
        np.testing.assert_array_equal(corr.x, xi)

    path = tmp_path / "correlations.csv"
    correlations_to_csv(samples, path)
    lines = path.read_text().strip().splitlines()
    width = len(samples[0][1].pencil_eigenvalues)
    assert lines[0] == "weight,x0,x1,x2,x3," + ",".join(f"eig{i}" for i in range(width))
    assert len(lines) == 1 + len(samples)
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == samples[0][0]
    np.testing.assert_array_equal(np.array(first[1:5]), samples[0][1].x)
    np.testing.assert_array_equal(np.array(first[5:]), samples[0][1].pencil_eigenvalues)
