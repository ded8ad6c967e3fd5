"""Tests for pointwise trace minimization over the positive operator cone.

The 2x2 rotation coefficient q = [[0, 1], [-1, 0]] has a fully closed-form
solution (derived by hand from the spectral structure of S q - alpha S and
frozen below), which pins down every sign convention.  The signature
coefficient q = S exercises the degenerate plateau and both boundary rays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force, make_rng, random_positive, random_symmetric
from kreinact import (
    AlphaValue,
    InfeasibleProblemError,
    MomentumBox,
    MultiplierFamily,
    NonUniqueMultipliersError,
    PointwiseProblem,
    PositionGrid,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    a_of_alpha,
    beta_of_alpha,
    lagrange_from_point,
    random_measure,
    restore_constraints,
    solve,
)
from kreinact import pointwise

SP1 = SignatureSpace(1)


def rotation_coefficient() -> np.ndarray:
    return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def closed_form_rotation(a: float, b: float):
    """Minimizer data for the rotation coefficient at interior targets.

    S q - alpha S - beta is psd with a kernel vector exactly when
    beta = -b/r and alpha = a/r with r = sqrt(b^2 - a^2); the minimizer is
    the rank-one positive operator below and the optimal value is -r.
    """
    r = np.sqrt(b * b - a * a)
    A = 0.5 * np.array([[a + b, r], [-r, a - b]], dtype=complex)
    return A, a / r, -b / r, -r


def feasible_candidate(space: SignatureSpace, rng, a: float, b: float) -> np.ndarray:
    """Random positive operator meeting both trace targets exactly."""
    d, n = space.dim, space.n
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for group, target in ((slice(0, n), 0.5 * (b + a)), (slice(n, d), 0.5 * (b - a))):
        cur = float(np.sum(np.abs(M[:, group]) ** 2))
        M[:, group] *= np.sqrt(target / cur)
    return space.signature[:, None] * (M.conj().T @ M)


# ---------------------------------------------------------------------------
# Closed-form solutions
# ---------------------------------------------------------------------------

def test_rotation_coefficient_matches_closed_form():
    q = rotation_coefficient()
    for a, b in [(0.3, 1.0), (-0.8, 2.0), (0.0, 1.0), (0.6, 0.7)]:
        sol = solve(PointwiseProblem(space=SP1, q=q, a=a, b=b))
        A, alpha, beta, objective = closed_form_rotation(a, b)
        assert sol.tag == "interior"
        np.testing.assert_allclose(sol.A, A, atol=1e-10)
        assert sol.alpha == pytest.approx(alpha, abs=1e-10)
        assert sol.beta == pytest.approx(beta, abs=1e-10)
        assert sol.objective == pytest.approx(objective, abs=1e-10)


def test_rotation_coefficient_frozen_values():
    # Guards the sign conventions against silent regressions.
    sol = solve(PointwiseProblem(space=SP1, q=rotation_coefficient(), a=0.3, b=1.0))
    assert sol.alpha == pytest.approx(0.3144854510165755, abs=1e-10)
    assert sol.beta == pytest.approx(-1.0482848367219182, abs=1e-10)
    assert sol.objective == pytest.approx(-0.9539392014169457, abs=1e-10)
    np.testing.assert_allclose(
        sol.A,
        [[0.65, 0.47696960070847285], [-0.47696960070847285, -0.35]],
        atol=1e-10,
    )


def test_rotation_multipliers_certify_stationarity():
    q = rotation_coefficient()
    sol = solve(PointwiseProblem(space=SP1, q=q, a=0.3, b=1.0))
    S = SP1.signature_matrix
    annihilation = sol.A @ (q - sol.alpha * np.eye(2) - sol.beta * S)
    assert np.abs(annihilation).max() < 1e-10
    shifted = S @ q - sol.alpha * S - sol.beta * np.eye(2)
    assert np.linalg.eigvalsh(0.5 * (shifted + shifted.conj().T))[0] > -1e-10


def test_signature_coefficient_scalar_maps():
    # For q = S the multiplier maps are piecewise linear with a jump at 0:
    # a(alpha) = sign(alpha), beta(alpha) = 1 - |alpha|.
    S = np.diag([1.0, -1.0]).astype(complex)
    for alpha in (-0.7, -0.25, 0.25, 0.7):
        av = a_of_alpha(S, SP1, alpha)
        assert not av.degenerate
        assert av.a == pytest.approx(np.sign(alpha), abs=1e-12)
        assert beta_of_alpha(S, SP1, alpha) == pytest.approx(1.0 - abs(alpha), abs=1e-12)
    av0 = a_of_alpha(S, SP1, 0.0)
    assert av0.degenerate
    assert av0.a_min == pytest.approx(-1.0, abs=1e-12)
    assert av0.a_max == pytest.approx(1.0, abs=1e-12)
    assert beta_of_alpha(S, SP1, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_scalar_maps_reject_non_finite_alpha(alpha):
    S = np.diag([1.0, -1.0]).astype(complex)
    for scalar_map in (a_of_alpha, beta_of_alpha):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            scalar_map(S, SP1, alpha)


def test_signature_coefficient_interior_uses_plateau_mixing():
    S = np.diag([1.0, -1.0]).astype(complex)
    prob = PointwiseProblem(space=SP1, q=S, a=0.4, b=1.0)
    sol = solve(prob)
    assert sol.tag == "interior"
    assert np.real(np.trace(sol.A)) == pytest.approx(0.4, abs=1e-12)
    assert np.real(np.trace(S @ sol.A)) == pytest.approx(1.0, abs=1e-12)
    # Tr(S A) is the objective itself here, so every feasible point is optimal.
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    H = (sol.A * SP1.signature[None, :])
    assert np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0] > -1e-12


STEEP_EPS = 1e-4


def steep_coefficient(eps: float = STEEP_EPS) -> np.ndarray:
    """``q = S qhat`` with ``qhat = diag(1, -1) + eps sigma_x``.

    ``qhat - alpha S`` has eigenvalues ``-+sqrt((alpha - 1)^2 + eps^2)``, so
    ``a(alpha) = (alpha - 1) / sqrt((alpha - 1)^2 + eps^2)`` rises with slope
    ``1/eps`` at ``alpha = 1``: a 1e-13 band in ``a`` is below one float
    spacing of ``alpha`` there.
    """
    qhat = np.diag([1.0, -1.0]) + eps * np.array([[0.0, 1.0], [1.0, 0.0]])
    return (SP1.signature[:, None] * qhat).astype(complex)


def test_steep_map_matches_closed_form():
    # Inverting a(alpha) = t gives alpha* = 1 + t eps / sqrt(1 - t^2) and
    # beta* = -eps / sqrt(1 - t^2); the bracket collapses onto adjacent
    # floats for most targets and the solver mixes the vectors at its ends.
    q = steep_coefficient()
    for t in np.arange(-19, 20) * 0.05:
        t = float(t)
        sol = solve(PointwiseProblem(space=SP1, q=q, a=t, b=1.0))
        root = np.sqrt(1.0 - t * t)
        assert sol.tag == "interior"
        assert sol.alpha == pytest.approx(1.0 + t * STEEP_EPS / root, abs=1e-15)
        assert sol.beta == pytest.approx(-STEEP_EPS / root, abs=1e-15)
        assert np.real(np.trace(sol.A)) == pytest.approx(t, abs=1e-12)
        assert np.real(np.trace(SP1.signature[:, None] * sol.A)) == pytest.approx(1.0, abs=1e-12)
        assert sol.objective == pytest.approx(t * sol.alpha + sol.beta, abs=1e-12)
        alpha, beta = lagrange_from_point(q, sol.A, SP1, strict=True)
        assert alpha == pytest.approx(sol.alpha, abs=1e-9)
        assert beta == pytest.approx(sol.beta, abs=1e-9)


def count_alpha_evaluations(monkeypatch) -> list:
    """Patch ``pointwise._shifted`` (one per eigensolve of ``qhat - alpha S``)
    to count its calls into the returned one-element list."""
    real_shifted = pointwise._shifted
    count = [0]

    def counted(qhat, space, alpha):
        count[0] += 1
        return real_shifted(qhat, space, alpha)

    monkeypatch.setattr(pointwise, "_shifted", counted)
    return count


def test_interior_solve_takes_few_alpha_evaluations(monkeypatch):
    # Newton steps with the exact slope, started at the crossing of the
    # decoupled blocks, reach the 1e-13 band in 3-11 eigensolves here;
    # bisection from the Gershgorin bracket took 40-53.  The bracket ends are
    # solved only when a step needs them: a solve takes 5.80 (n=1) and 5.78
    # (n=2) on average, and 7.78 when both ends were solved before the first
    # step.
    # The lower bound keeps a counter that misses the eigensolves from passing.
    count = count_alpha_evaluations(monkeypatch)
    for n in (1, 2):
        sp = SignatureSpace(n)
        total = 0
        for seed in range(50):
            rng = make_rng(1000 + seed)
            q = random_symmetric(sp, rng)
            b = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(-0.95, 0.95))
            count[0] = 0
            sol = solve(PointwiseProblem(space=sp, q=q, a=t * b, b=b))
            assert sol.tag == "interior"
            assert np.real(np.trace(sol.A)) == pytest.approx(t * b, abs=1e-10 * max(b, 1.0))
            assert 3 <= count[0] <= 14, (n, seed, count[0])
            total += count[0]
        assert total / 50 <= 6.0, (n, total / 50)


def test_far_target_solves_double_the_bracket_and_stay_stationary(monkeypatch):
    # At t = -+0.99 the multiplier mostly lies beyond the Gershgorin radius,
    # so the bracket search that a step asks for doubles an end (69 searches
    # in these 80 solves, each of which doubles, measured); every solution is
    # still stationary.
    bracket_end, searches = pointwise._bracket_end, []

    def recorded(qhat, space, alpha, reached):
        end = bracket_end(qhat, space, alpha, reached)
        searches.append((alpha, end[0]))
        return end

    monkeypatch.setattr(pointwise, "_bracket_end", recorded)
    for n in (1, 2):
        sp = SignatureSpace(n)
        for seed in range(20):
            q = random_symmetric(sp, make_rng(4000 + seed))
            for t in (-0.99, 0.99):
                sol = solve(PointwiseProblem(space=sp, q=q, a=t, b=1.0))
                assert sol.tag == "interior"
                alpha, beta = lagrange_from_point(q, sol.A, sp, strict=True)
                scale = max(float(np.linalg.norm(q, 2)), 1.0)
                assert abs(alpha - sol.alpha) <= 1e-9 * scale, (n, seed, t)
                assert abs(beta - sol.beta) <= 1e-9 * scale, (n, seed, t)
    assert sum(end != start for start, end in searches) >= 40


def test_steep_map_solve_stops_at_a_collapsed_bracket(monkeypatch):
    # Without the adjacent-float stop every collapsing solve runs the full
    # _BISECT_MAX steps.
    count = count_alpha_evaluations(monkeypatch)
    q = steep_coefficient()
    for t in np.arange(-19, 20) * 0.05:
        count[0] = 0
        solve(PointwiseProblem(space=SP1, q=q, a=float(t), b=1.0))
        assert count[0] <= 70, (t, count[0])


def block_crossing(q: np.ndarray, space: SignatureSpace) -> float:
    """Where the lowest eigenvalues of the decoupled blocks of ``qhat - alpha S`` cross."""
    qhat = space.signature[:, None] * q
    n = space.n
    return 0.5 * (np.linalg.eigvalsh(qhat[:n, :n])[0] - np.linalg.eigvalsh(qhat[n:, n:])[0])


def record_clusters(monkeypatch) -> list:
    """Patch ``pointwise._lowest_cluster`` to record ``(alpha, s)`` of each call."""
    real_cluster = pointwise._lowest_cluster
    calls = []

    def recorded(qhat, space, alpha):
        cluster = real_cluster(qhat, space, alpha)
        calls.append((alpha, cluster[1]))
        return cluster

    monkeypatch.setattr(pointwise, "_lowest_cluster", recorded)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certify_fixture_solves_in_few_eigensolves(monkeypatch, seed):
    # The 27 atoms of a random n=2 measure against their own Qhat, as the
    # benchmark's certify workload builds them; the solver started at the
    # bracket midpoint took 11.8-13.2 eigensolves per solve on these seeds.
    count = count_alpha_evaluations(monkeypatch)
    box = MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 3, 3, 1))
    measure = random_measure(SignatureSpace(2), box, 27, make_rng(seed))
    measure = restore_constraints(measure, "b", 0.5, 1.0)
    grid = PositionGrid.from_box(2.5, (5, 5, 5, 9))
    qhats = QHatEvaluator(measure, grid, smoothing_delta=1e-2).evaluate_many(measure.momenta)
    sig = measure.space.signature
    for q, A in zip(qhats, measure.operators):
        a, b = float(np.trace(A).real), float(np.trace(sig[:, None] * A).real)
        sol = solve(PointwiseProblem(space=measure.space, q=q, a=a, b=b))
        assert sol.tag == "interior"
        scale = max(float(np.linalg.norm(q, 2)), 1.0)
        alpha, beta = lagrange_from_point(q, sol.A, measure.space, strict=True)
        assert abs(alpha - sol.alpha) <= 1e-9 * scale
        assert abs(beta - sol.beta) <= 1e-9 * scale
    assert 3.0 <= count[0] / len(qhats) <= 10.0, count[0] / len(qhats)


@pytest.mark.parametrize("atom", [4, 11])
def test_a_jump_with_flat_sides_takes_the_level_crossing_step(monkeypatch, atom):
    # On certify seed 3, a(alpha) of these atoms jumps across t within about
    # 2e-3 of alpha, between flat sides of slope 1e-4 to 0.8.  Newton from a
    # flat side lands up to 1.8 away, and bisecting back from there takes
    # 16-18 eigensolves; the level crossing of the lowest eigenvalue with
    # the next one of the other sign of S lands within 5e-4 of the root.
    count = count_alpha_evaluations(monkeypatch)
    box = MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 3, 3, 1))
    measure = restore_constraints(random_measure(SignatureSpace(2), box, 27, make_rng(3)), "b", 0.5, 1.0)
    grid = PositionGrid.from_box(2.5, (5, 5, 5, 9))
    q = QHatEvaluator(measure, grid, smoothing_delta=1e-2).evaluate_many(measure.momenta)[atom]
    A, sig = measure.operators[atom], measure.space.signature
    a, b = float(np.trace(A).real), float(np.trace(sig[:, None] * A).real)
    sol = solve(PointwiseProblem(space=measure.space, q=q, a=a, b=b))
    assert sol.tag == "interior"
    assert count[0] <= 10
    scale = max(float(np.linalg.norm(q, 2)), 1.0)
    alpha, beta = lagrange_from_point(q, sol.A, measure.space, strict=True)
    assert abs(alpha - sol.alpha) <= 1e-9 * scale
    assert abs(beta - sol.beta) <= 1e-9 * scale


def test_block_diagonal_start_mixes_the_plateau_at_the_jump(monkeypatch):
    # With qhat_{+-} = 0 the lowest eigenvalue of qhat - alpha S moves from
    # one block to the other exactly at the crossing, where a(alpha) jumps
    # from -1 to 1: the first interior step finds a degenerate lowest space
    # there and mixes it, in the one eigensolve of the solve.
    count = count_alpha_evaluations(monkeypatch)
    for n in (1, 2):
        sp = SignatureSpace(n)
        rng = make_rng(40 + n)
        for t in (-0.8, 0.0, 0.45):
            G = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
            qhat = 0.5 * (G + G.conj().T)
            qhat[:n, n:] = qhat[n:, :n] = 0.0
            q = sp.signature[:, None] * qhat
            crossing = block_crossing(q, sp)
            b = 1.5
            count[0] = 0
            sol = solve(PointwiseProblem(space=sp, q=q, a=t * b, b=b))
            assert sol.tag == "interior"
            assert count[0] == 1
            assert sol.alpha == pytest.approx(crossing, abs=1e-12)
            assert np.real(np.trace(sol.A)) == pytest.approx(t * b, abs=1e-12)
            assert np.real(np.trace(sp.signature[:, None] * sol.A)) == pytest.approx(b, abs=1e-12)
            assert sol.objective == pytest.approx(t * b * sol.alpha + b * sol.beta, abs=1e-12)


def test_tiny_coupling_start_mixes_the_plateau_within_the_coupling(monkeypatch):
    # eps = 1e-12: the crossing alpha = 1 sits on the jump of a(alpha), and
    # the eigenvalues -+eps there lie within _DEGENERACY_REL of each other,
    # so the first interior step mixes them, in the one eigensolve of the
    # solve.  The closed form of
    # test_steep_map_matches_closed_form moves alpha* and beta* off
    # (1, -eps) by at most eps t / sqrt(1 - t^2) <= 3.05 eps.
    eps = 1e-12
    count = count_alpha_evaluations(monkeypatch)
    q = steep_coefficient(eps)
    for t in np.arange(-19, 20) * 0.05:
        t = float(t)
        count[0] = 0
        sol = solve(PointwiseProblem(space=SP1, q=q, a=t, b=1.0))
        root = np.sqrt(1.0 - t * t)
        assert sol.tag == "interior"
        assert count[0] == 1
        assert sol.alpha == pytest.approx(1.0 + t * eps / root, abs=4 * eps)
        assert sol.beta == pytest.approx(-eps / root, abs=4 * eps)
        assert np.real(np.trace(sol.A)) == pytest.approx(t, abs=1e-12)
        assert np.real(np.trace(SP1.signature[:, None] * sol.A)) == pytest.approx(1.0, abs=1e-12)


def test_a_doubled_spectrum_takes_midpoints_to_the_alpha_of_its_single_copy(monkeypatch):
    # kron(qhat, I_2) is two copies of an n=1 problem: every eigenvalue of
    # qhat - alpha S is double, so each lowest cluster is degenerate, has no
    # slope, and the step is the midpoint of the bracket (37 of them here),
    # where the n=1 copy takes Newton steps.
    qhat = np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
    single = solve(PointwiseProblem(space=SP1, q=SP1.signature[:, None] * qhat, a=0.98, b=1.0))
    assert single.alpha == pytest.approx(7.4645567342, abs=1e-9)
    calls = record_clusters(monkeypatch)
    mixed_density, mixed = pointwise._mixed_density, []

    def recorded(*args):
        mixed.append(mixed_density(*args))
        return mixed[-1]

    monkeypatch.setattr(pointwise, "_mixed_density", recorded)
    sp = SignatureSpace(2)
    q = sp.signature[:, None] * np.kron(qhat, np.eye(2))
    doubled = solve(PointwiseProblem(space=sp, q=q, a=0.98, b=1.0))
    assert all(len(s) == 2 for _, s in calls)
    midpoints = sum(H is None for H in mixed)
    assert midpoints >= 1 and mixed[-1] is not None
    assert doubled.tag == "interior"
    assert doubled.alpha == pytest.approx(single.alpha, rel=1e-9)


def test_far_targets_keep_every_step_inside_the_bracket(monkeypatch):
    # At t = -+0.95 the multiplier lies 0.3-9 away from the crossing the
    # solver starts from.  Replaying the recorded evaluations: the first step
    # is the crossing; an end's bracket search starts at -+radius, the
    # Gershgorin bound plus 1, doubles and ends at a(lo) <= t or t <= a(hi);
    # every other step lands strictly inside the bracket known at that step,
    # whose ends are the evaluations before it, or -+radius where none is.
    calls = record_clusters(monkeypatch)
    searched_ends = 0
    for n in (1, 2):
        sp = SignatureSpace(n)
        for seed in range(8):
            q = random_symmetric(sp, make_rng(3000 + seed))
            crossing = block_crossing(q, sp)
            radius = float(np.abs(sp.signature[:, None] * q).sum(axis=1).max()) + 1.0
            for t in (-0.95, 0.95):
                calls.clear()
                sol = solve(PointwiseProblem(space=sp, q=q, a=t, b=1.0))
                assert sol.tag == "interior"
                assert abs(sol.alpha - crossing) > 0.3
                assert calls[0][0] == pytest.approx(crossing, abs=1e-12)
                ends = {-1: -radius, 1: radius}
                unsearched = {-1, 1}
                k = 0
                while k < len(calls):
                    alpha, s = calls[k]
                    side = next((e for e in unsearched if alpha == ends[e]), None)
                    if side is not None:
                        # The bracket search of one end: doubling until a(end) reaches t.
                        while (s[0] > t) if side < 0 else (s[-1] < t):
                            k += 1
                            assert calls[k][0] == 2.0 * alpha
                            alpha, s = calls[k]
                        ends[side] = alpha
                        unsearched.discard(side)
                        searched_ends += 1
                    else:
                        assert ends[-1] < alpha < ends[1], (n, seed, t, ends, alpha)
                        if s[-1] < t - 1e-13:
                            ends[-1] = alpha
                        elif s[0] > t + 1e-13:
                            ends[1] = alpha
                    k += 1
                assert ends[-1] <= sol.alpha <= ends[1]
                assert np.real(np.trace(sol.A)) == pytest.approx(t, abs=1e-12)
    # Measured: 8 bracket-end searches in these 32 solves.
    assert searched_ends >= 4, searched_ends


# ---------------------------------------------------------------------------
# Scalar-map structure
# ---------------------------------------------------------------------------

def test_beta_of_alpha_concave_and_one_lipschitz():
    rng = make_rng(7)
    for n in (1, 2):
        sp = SignatureSpace(n)
        q = random_symmetric(sp, rng)
        alphas = rng.uniform(-4.0, 4.0, size=12)
        betas = {a: beta_of_alpha(q, sp, a) for a in alphas}
        for a1 in alphas:
            for a2 in alphas:
                # Minimum of linear functions of alpha with slopes in [-1, 1].
                mid = beta_of_alpha(q, sp, 0.5 * (a1 + a2))
                assert mid >= 0.5 * (betas[a1] + betas[a2]) - 1e-12
                assert abs(betas[a1] - betas[a2]) <= abs(a1 - a2) + 1e-12


def test_a_of_alpha_nondecreasing_with_saturating_tails():
    rng = make_rng(11)
    for n in (1, 2):
        sp = SignatureSpace(n)
        for _ in range(5):
            q = random_symmetric(sp, rng)
            radius = float(np.abs(q).sum(axis=1).max()) + 1.0
            alphas = np.linspace(-4 * radius, 4 * radius, 41)
            values = [a_of_alpha(q, sp, a) for a in alphas]
            for prev, nxt in zip(values, values[1:]):
                assert prev.a_max <= nxt.a_min + 1e-7
            assert values[0].a == pytest.approx(-1.0, abs=1e-2)
            assert values[-1].a == pytest.approx(1.0, abs=1e-2)


# ---------------------------------------------------------------------------
# Agreement with the independent direct-search oracle
# ---------------------------------------------------------------------------

def test_solve_matches_direct_search():
    for n, seeds in ((1, range(8)), (2, range(4))):
        sp = SignatureSpace(n)
        for seed in seeds:
            rng = make_rng(100 + seed)
            q = random_symmetric(sp, rng)
            b = float(rng.uniform(0.5, 2.0))
            a = float(rng.uniform(-0.95, 0.95)) * b
            prob = PointwiseProblem(space=sp, q=q, a=a, b=b)
            sol = solve(prob)
            reference = brute_force(prob, samples=300, refinements=5, seed=seed)
            scale = max(abs(sol.objective), 1.0)
            assert abs(sol.objective - reference) <= 1e-8 * scale


def test_solve_not_above_any_feasible_point():
    rng = make_rng(21)
    for n in (1, 2):
        sp = SignatureSpace(n)
        q = random_symmetric(sp, rng)
        b, a = 1.5, -0.6
        sol = solve(PointwiseProblem(space=sp, q=q, a=a, b=b))
        for _ in range(40):
            A = feasible_candidate(sp, rng, a, b)
            value = float(np.real(np.trace(q @ A)))
            assert sol.objective <= value + 1e-9 * max(1.0, abs(value))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.floats(-0.95, 0.95), b=st.floats(0.2, 3.0))
def test_interior_solution_properties(seed, t, b):
    rng = make_rng(seed)
    sp = SignatureSpace(1)
    q = random_symmetric(sp, rng)
    a = t * b
    sol = solve(PointwiseProblem(space=sp, q=q, a=a, b=b))
    assert sol.tag == "interior"
    assert sol.multipliers_valid
    assert np.real(np.trace(sol.A)) == pytest.approx(a, abs=1e-10 * max(b, 1.0))
    trace_signed = np.real(np.trace(sp.signature[:, None] * sol.A))
    assert trace_signed == pytest.approx(b, abs=1e-10 * max(b, 1.0))
    assert sol.beta == pytest.approx(beta_of_alpha(q, sp, sol.alpha), abs=1e-9)
    # Duality: the optimal value equals a*alpha + b*beta.
    scale = max(abs(sol.objective), 1.0)
    assert sol.objective == pytest.approx(a * sol.alpha + b * sol.beta, abs=1e-8 * scale)


# ---------------------------------------------------------------------------
# Boundary targets |a| = b
# ---------------------------------------------------------------------------

def test_boundary_without_multipliers():
    sol = solve(PointwiseProblem(space=SP1, q=rotation_coefficient(), a=1.0, b=1.0))
    assert sol.tag == "boundary-particle-no-multipliers"
    assert not sol.multipliers_valid
    assert sol.family is None
    np.testing.assert_allclose(sol.A, np.diag([1.0, 0.0]), atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_boundary_sea_multiplier_family():
    S = np.diag([1.0, -1.0]).astype(complex)
    sol = solve(PointwiseProblem(space=SP1, q=S, a=-2.0, b=2.0))
    assert sol.tag == "boundary-sea"
    assert sol.multipliers_valid
    family = sol.family
    assert family is not None
    assert family.slope == -1
    assert family.offset == pytest.approx(1.0, abs=1e-9)
    assert np.isneginf(family.alpha_min)
    assert family.alpha_max == pytest.approx(0.0, abs=1e-8)
    assert family.beta(-0.5) == pytest.approx(0.5, abs=1e-9)
    assert family.contains(-0.5, 0.5)
    assert not family.contains(1.0, 0.0)
    assert sol.alpha == pytest.approx(family.canonical_alpha)
    assert sol.beta == pytest.approx(family.canonical_beta)


def test_boundary_particle_multiplier_family():
    S = np.diag([1.0, -1.0]).astype(complex)
    sol = solve(PointwiseProblem(space=SP1, q=S, a=1.0, b=1.0))
    assert sol.tag == "boundary-particle"
    family = sol.family
    assert family.slope == +1
    assert np.isposinf(family.alpha_max)
    assert family.alpha_min == pytest.approx(0.0, abs=1e-8)
    assert family.beta(2.0) == pytest.approx(-1.0, abs=1e-9)
    assert family.contains(0.0, 1.0)


def test_boundary_ray_bisection_stops_at_adjacent_floats(monkeypatch):
    # Once the bracket of the ray endpoint holds two adjacent floats, every
    # further halving repeats a point.
    real_bisect = pointwise._bisect
    calls = []

    def spy(feasible, inner, outer):
        count = [0]

        def counted(alpha):
            count[0] += 1
            return feasible(alpha)

        result = real_bisect(counted, inner, outer)
        calls.append((feasible, inner, outer, count[0], result))
        return result

    monkeypatch.setattr(pointwise, "_bisect", spy)
    sol = solve(PointwiseProblem(space=SP1, q=np.diag([1.0, -2.0]), a=1.0, b=1.0))
    [(feasible, inner, outer, count, result)] = calls
    for _ in range(200):  # the full-length bisection, as the reference
        mid = 0.5 * (inner + outer)
        if feasible(mid):
            inner = mid
        else:
            outer = mid
    assert result == inner
    assert sol.family.alpha_min == result
    assert count <= 60


# ---------------------------------------------------------------------------
# Multiplier recovery from a candidate minimizer
# ---------------------------------------------------------------------------

def test_lagrange_from_point_recovers_interior_multipliers():
    q = rotation_coefficient()
    sol = solve(PointwiseProblem(space=SP1, q=q, a=0.3, b=1.0))
    alpha, beta = lagrange_from_point(q, sol.A, SP1, strict=True)
    assert alpha == pytest.approx(sol.alpha, abs=1e-9)
    assert beta == pytest.approx(sol.beta, abs=1e-9)
    family = lagrange_from_point(q, sol.A, SP1, strict=False)
    assert isinstance(family, MultiplierFamily)
    assert family.slope == 0
    assert family.alpha_min == family.alpha_max == alpha


def test_lagrange_from_point_boundary_family():
    S = np.diag([1.0, -1.0]).astype(complex)
    sol = solve(PointwiseProblem(space=SP1, q=S, a=1.0, b=1.0))
    with pytest.raises(NonUniqueMultipliersError) as excinfo:
        lagrange_from_point(S, sol.A, SP1, strict=True)
    carried = excinfo.value.family
    assert carried is not None and carried.slope == +1
    family = lagrange_from_point(S, sol.A, SP1, strict=False)
    assert family.slope == +1
    assert family.canonical_beta == pytest.approx(sol.family.canonical_beta, abs=1e-9)


def test_lagrange_from_point_rejects_boundary_without_multipliers():
    with pytest.raises(ValidationError):
        lagrange_from_point(rotation_coefficient(), np.diag([1.0, 0.0]), SP1)


def test_lagrange_from_point_rejects_a_non_stationary_boundary_point():
    # Tr A = Tr(S A) = 1 puts A on the particle boundary, where the ray of
    # q = S diag(1, 3, 5, 7) has canonical pair (0, 1); but A sits on the
    # eigenvalue 3, not 1, so ||A (q - alpha - beta S)||_2 = 2.
    space = SignatureSpace(2)
    q = space.signature[:, None] * np.diag([1.0, 3.0, 5.0, 7.0]).astype(complex)
    A = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    for strict in (True, False):
        with pytest.raises(ValidationError, match="not stationary"):
            lagrange_from_point(q, A, space, strict=strict)


@pytest.mark.parametrize("n", [1, 2])
def test_lagrange_from_point_accepts_every_block_decoupled_boundary_solution(n):
    # With qhat block diagonal, every boundary solution carries a ray.  The
    # boundary check reads the annihilation residual only: the positivity
    # margin of qhat - alpha S - beta at the bisected ray end falls just
    # below -PSD * scale on some of these stationary points.
    space = SignatureSpace(n)
    d = space.dim
    rng = make_rng(11)
    for _ in range(50):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        qhat = M + M.conj().T
        qhat[:n, n:] = qhat[n:, :n] = 0.0
        q = space.signature[:, None] * qhat
        b = float(rng.uniform(0.1, 3.0))
        for t in (1, -1):
            sol = solve(PointwiseProblem(space=space, q=q, a=t * b, b=b))
            assert sol.family is not None
            with pytest.raises(NonUniqueMultipliersError) as excinfo:
                lagrange_from_point(q, sol.A, space, strict=True)
            assert excinfo.value.family == sol.family
            assert lagrange_from_point(q, sol.A, space, strict=False) == sol.family


# Targets |a| next to b, as (b, |a|) pairs: |a| = b - 5e-13 at small b, and
# 1 - |a/b| from 1.05e-12 to 1e-11 at larger b.
_ABSOLUTE_OFFSET = [(b, b - 5e-13) for b in (1e-3, 1e-2)]
_RELATIVE_OFFSET = [(b, (1.0 - gap) * b) for b in (0.01, 0.3) for gap in np.geomspace(1.05e-12, 1e-11, 10)]


@pytest.mark.parametrize(
    "n, targets",
    [pytest.param(n, _ABSOLUTE_OFFSET, id=f"{n}") for n in (1, 2)]
    + [pytest.param(n, _RELATIVE_OFFSET, id=f"{n}-relative") for n in (1, 2)],
)
def test_lagrange_from_point_recovers_solve_multipliers_next_to_the_boundary(n, targets):
    # Every 1 - |a/b| here lies outside the boundary band, which scales with
    # b, so solve returns interior solutions; lagrange_from_point applies the
    # same rule and must certify them.  |alpha| runs to ~1e5 at the absolute
    # offset and to ~1e6 at the relative one, where the least-squares beta
    # loses digits: the certifier reports the lowest eigenvalue, as solve does.
    space = SignatureSpace(n)
    for seed in range(10):
        q = random_symmetric(space, make_rng(700 + seed))
        for b, size in targets:
            for a in (size, -size):
                sol = solve(PointwiseProblem(space=space, q=q, a=a, b=b))
                assert sol.tag == "interior" and sol.multipliers_valid
                alpha, beta = lagrange_from_point(q, sol.A, space, strict=True)
                assert alpha == pytest.approx(sol.alpha, rel=1e-9)
                assert beta == pytest.approx(sol.beta, rel=1e-9)


def test_lagrange_from_point_certifies_weakly_coupled_solutions():
    # With qhat_{+-} scaled by 1e-9 the two lowest eigenvalues of qhat - alpha S
    # lie within one cluster width of each other, so solve mixes both
    # eigenvectors into A.  lagrange_from_point certifies the mixture, whose
    # residual is within the cluster width, and reports the lowest eigenvalue
    # as beta.
    rng = make_rng(20261019)
    for n in (1, 2):
        space = SignatureSpace(n)
        d = space.dim
        for _ in range(20):
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            qhat = 0.5 * (M + M.conj().T)
            qhat[:n, n:] *= 1e-9
            qhat[n:, :n] *= 1e-9
            q = space.signature[:, None] * qhat
            for t in (-0.9, -0.45, 0.0, 0.45, 0.9):
                sol = solve(PointwiseProblem(space=space, q=q, a=t, b=1.0))
                assert sol.tag == "interior"
                alpha, beta = lagrange_from_point(q, sol.A, space, strict=True)
                assert alpha == pytest.approx(sol.alpha, rel=1e-9)
                assert beta == pytest.approx(sol.beta, rel=1e-12)


def mixture_across_a_gap(gap: float):
    """``(q, A)`` with ``A`` an even mix of the two lowest eigenvectors of
    ``qhat - 0.7 S``, whose spectrum ``(-2, -2 + gap, 0.5, 1.5)`` has norm 2
    and so cluster width ``_DEGENERACY_REL * 2``."""
    space = SignatureSpace(2)
    rng = make_rng(41)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    qhat = (U * np.array([-2.0, -2.0 + gap, 0.5, 1.5])) @ U.conj().T + 0.7 * space.signature_matrix
    H = 0.5 * (U[:, :2] @ U[:, :2].conj().T)
    return space.signature[:, None] * qhat, H * space.signature[None, :], space


def test_lagrange_from_point_certifies_a_mixture_inside_the_cluster():
    width = 2.0 * pointwise._DEGENERACY_REL
    q, A, space = mixture_across_a_gap(0.5 * width)
    alpha, beta = lagrange_from_point(q, A, space, strict=True)
    assert alpha == pytest.approx(0.7, abs=1e-8)
    assert beta == pytest.approx(-2.0, abs=1e-8)
    # Outside the cluster the annihilation residual decides alone.  At 5
    # widths it is 3.9e-8 of max(|Qhat|, 1) |A|, below the 1.3e-7 to 6.1e-7
    # of the atoms of certified n=2 minimizers, which must pass; at 500
    # widths it is 3.7 times the bound.
    q, A, space = mixture_across_a_gap(5.0 * width)
    alpha, beta = lagrange_from_point(q, A, space, strict=True)
    assert alpha == pytest.approx(0.7, abs=1e-7)
    assert beta == pytest.approx(-2.0, abs=1e-7)
    q, A, space = mixture_across_a_gap(500.0 * width)
    for strict in (True, False):
        with pytest.raises(ValidationError, match="not stationary"):
            lagrange_from_point(q, A, space, strict=strict)


@pytest.mark.parametrize("b", [0.3, 2.5])
@pytest.mark.parametrize("n", [1, 2])
def test_lagrange_from_point_certifies_a_one_block_range_as_a_boundary_point(n, b):
    # With qhat block diagonal and 1 - |a/b| = 1.5e-12, solve mixes a lowest
    # vector of each block, the minor one with weight 7.5e-13 of the trace,
    # below the range cut of lagrange_from_point: the range it reads lies in
    # one eigenspace of S, and it certifies the point by the boundary ray,
    # whose family holds solve's interior pair.
    space = SignatureSpace(n)
    d = space.dim
    rng = make_rng(60)
    for _ in range(5):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        qhat = 0.5 * (M + M.conj().T)
        qhat[:n, n:] = qhat[n:, :n] = 0.0
        q = space.signature[:, None] * qhat
        for side in (1, -1):
            sol = solve(PointwiseProblem(space=space, q=q, a=side * (1 - 1.5e-12) * b, b=b))
            assert sol.tag == "interior"
            with pytest.raises(NonUniqueMultipliersError) as excinfo:
                lagrange_from_point(q, sol.A, space, strict=True)
            family = lagrange_from_point(q, sol.A, space, strict=False)
            assert excinfo.value.family == family
            assert family.slope == side
            assert family.contains(sol.alpha, sol.beta)


def test_beta_of_alpha_is_the_beta_of_solve():
    # solve, a_of_alpha and beta_of_alpha read beta from one eigensolve of
    # the same matrix, so they agree to the bit.
    space = SignatureSpace(2)
    for seed in range(50):
        rng = make_rng(900 + seed)
        q = random_symmetric(space, rng)
        b = float(rng.uniform(0.5, 2.0))
        sol = solve(PointwiseProblem(space=space, q=q, a=float(rng.uniform(-0.9, 0.9)) * b, b=b))
        assert sol.tag == "interior"
        assert beta_of_alpha(q, space, sol.alpha) == a_of_alpha(q, space, sol.alpha).beta == sol.beta


def test_lagrange_from_point_rejects_non_stationary_and_non_positive():
    rng = make_rng(3)
    q = rotation_coefficient()
    with pytest.raises(ValidationError):
        lagrange_from_point(q, random_positive(SP1, rng), SP1)
    with pytest.raises(ValidationError):
        lagrange_from_point(q, -random_positive(SP1, rng), SP1)


# ---------------------------------------------------------------------------
# Problem validation and degenerate targets
# ---------------------------------------------------------------------------

def test_problem_validation():
    q = rotation_coefficient()
    with pytest.raises(InfeasibleProblemError):
        PointwiseProblem(space=SP1, q=q, a=0.0, b=-1.0)
    with pytest.raises(InfeasibleProblemError):
        PointwiseProblem(space=SP1, q=q, a=2.0, b=1.0)
    with pytest.raises(ValidationError):
        PointwiseProblem(space=SP1, q=np.array([[0.0, 1.0], [1.0, 0.0]]), a=0.0, b=1.0)
    for a, b in ((np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan), (0.0, np.inf)):
        with pytest.raises(ValidationError):
            PointwiseProblem(space=SP1, q=q, a=a, b=b)


def test_zero_targets_give_zero_minimizer():
    sol = solve(PointwiseProblem(space=SP1, q=rotation_coefficient(), a=0.0, b=0.0))
    assert sol.tag == "trivial"
    np.testing.assert_array_equal(sol.A, np.zeros((2, 2)))
    assert sol.objective == 0.0
    assert brute_force(PointwiseProblem(space=SP1, q=rotation_coefficient(), a=0.0, b=0.0)) == 0.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("strict", [True, False])
def test_lagrange_from_point_at_the_trivial_point_has_no_unique_multipliers(n, strict):
    # At A = 0 every (alpha, beta) with S q - alpha S - beta >= 0 is
    # admissible: a two-dimensional set, which no MultiplierFamily line holds.
    # It used to raise ValidationError "admits no Lagrange multipliers".
    sp = SignatureSpace(n)
    for q in (random_symmetric(sp, make_rng(1)), sp.signature_matrix.astype(complex)):
        sol = solve(PointwiseProblem(space=sp, q=q, a=0.0, b=0.0))
        assert sol.tag == "trivial"
        with pytest.raises(NonUniqueMultipliersError, match="two-dimensional") as info:
            lagrange_from_point(q, sol.A, sp, strict=strict)
        assert info.value.family is None


def test_direct_search_limited_to_small_spaces():
    sp = SignatureSpace(3)
    q = np.zeros((6, 6), dtype=complex)
    with pytest.raises(ValidationError):
        brute_force(PointwiseProblem(space=sp, q=q, a=0.0, b=1.0))


def test_alpha_value_midpoint():
    av = AlphaValue(a_min=-1.0, a_max=0.5, degenerate=True, beta=0.0)
    assert av.a == pytest.approx(-0.25)
