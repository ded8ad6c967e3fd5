"""Tests for constraint restoration and the constrained gradient minimizer."""

import importlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_feasible, fixed_support, make_rng, random_measure_for, representative_field
from kreinact import (
    MinimizeConfig,
    MomentumBox,
    NonUniqueMultipliersError,
    OperatorMeasure,
    QHatEvaluator,
    RestorationError,
    SignatureSpace,
    ValidationError,
    action,
    check_first_order,
    config_from_dict,
    config_to_dict,
    constraint_values,
    el_residuals,
    lagrange_from_point,
    lagrange_parameters,
    minimize_action,
    pushforward,
    report_to_dict,
    restore_constraints,
)
from kreinact.action import _lagrangian, _moduli, _phase_sum, _tail_magnitude
from kreinact.cli import main
from kreinact.krein import _hermitian_form
from kreinact.minimize import (
    INITIAL_STEP,
    LBFGS_MEMORY,
    MAX_BACKTRACKS,
    _CurvatureMemory,
    _descend,
)
from kreinact.tolerances import ZERO_EIGENVALUE

SP1 = SignatureSpace(1)

# A deliberately small, well-conditioned instance: two grid momenta, a
# coarse position grid, mild smoothing.  The run is deterministic (seeded
# initial stack) and converges in a few dozen iterations.
TOY = MinimizeConfig(n=1, c=0.5, f=1.0, seed=0, smoothing_delta=1e-2)
# Every seed reaches this minimum; values frozen from a converged instance.
TOY_ACTION = 18.3103641117
TOY_ALPHA = 76.1978518539
# The n=2 reference problem.
N2_REF = MinimizeConfig(
    n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
    position_radius=3.0, smoothing_delta=1e-2, max_iterations=2000,
)


@pytest.fixture(scope="module")
def toy_result():
    return minimize_action(TOY)


@pytest.fixture(scope="module")
def toy_seed_results():
    return [minimize_action(replace(TOY, seed=s)) for s in range(8)]


@pytest.fixture(scope="module")
def n2_seed_results():
    return [minimize_action(replace(N2_REF, seed=s)) for s in range(8)]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_round_trip():
    config = MinimizeConfig(n=2, c=0.3, f=0.9, seed=7, smoothing_delta=0.5,
                            momentum_shape=(2, 1, 1, 2), position_shape=(3, 1, 1, 3))
    assert config_from_dict(config_to_dict(config)) == config


def test_config_stores_numpy_counts_as_ints():
    # The seed and the iteration cap were checked but kept as numpy integers,
    # which the JSON writer of config.json cannot serialize.
    config = MinimizeConfig(n=np.int64(1), seed=np.int64(3), max_iterations=np.int64(7),
                            momentum_shape=np.array([2, 1, 1, 1]))
    data = config_to_dict(config)
    assert all(type(data[key]) is int for key in ("n", "seed", "max_iterations"))
    assert json.loads(json.dumps(data))["momentum_shape"] == [2, 1, 1, 1]


def test_config_rejects_unknown_keys():
    data = config_to_dict(MinimizeConfig())
    data["reticulation"] = True
    with pytest.raises(ValidationError):
        config_from_dict(data)
    # Retired fields: the gradient-norm stop, the initial factor scale
    # (which the restoration undoes) and the line-search constants.
    retired = {"gradient_tol": 1e-10, "initial_magnitude": 1.0, "initial_step": 0.05,
               "backtrack_factor": 0.5, "max_backtracks": 40}
    for key, value in retired.items():
        with pytest.raises(ValidationError, match=key):
            config_from_dict(dict(config_to_dict(MinimizeConfig()), **{key: value}))


def test_config_validation():
    with pytest.raises(ValidationError):
        MinimizeConfig(n=0)
    with pytest.raises(ValidationError):
        MinimizeConfig(c=2.0, f=1.0)
    for delta in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            MinimizeConfig(smoothing_delta=delta)
    nan, inf = float("nan"), float("inf")
    for name, bad in (("tol_el", (-1e-6, nan, inf)),
                      ("position_radius", (0.0, nan, inf))):
        for value in bad:
            with pytest.raises(ValidationError, match=name):
                MinimizeConfig(**{name: value})
    MinimizeConfig(tol_el=0.0)
    with pytest.raises(ValidationError):
        MinimizeConfig(max_iterations=0)
    for name, value in (("max_iterations", 2.5), ("max_iterations", True), ("seed", -1),
                        ("seed", 1.5), ("n", 1.5), ("n", True), ("n", 2.0),
                        ("momentum_shape", (2.9, 1, 1, 1)), ("position_shape", (5.7, 1, 1, 1)),
                        ("position_shape", (5, 0, 1, 1))):
        with pytest.raises(ValidationError, match=name):
            MinimizeConfig(**{name: value})
    assert MinimizeConfig(n=np.int64(2), momentum_shape=np.array([2, 1, 1, 1])).n == 2
    with pytest.raises(ValidationError):
        MinimizeConfig(position_radius=0.0)
    with pytest.raises(ValidationError):
        MinimizeConfig(momentum_shape=(0, 1, 1, 1))


def test_config_rejects_an_integer_beyond_every_float():
    # 10**400 passes each range test, then overflowed in the run's arithmetic.
    huge = 10**400
    for fields_ in ({"c": huge, "f": 10 * huge}, {"f": huge}, {"smoothing_delta": huge},
                    {"position_radius": huge}, {"tol_el": huge}):
        with pytest.raises(ValidationError, match=f"^{next(iter(fields_))} is too large for a float"):
            MinimizeConfig(**fields_)
    # Values a float holds are stored as given, so a configuration file reads back unchanged.
    config = MinimizeConfig(c=1, f=2, position_radius=3)
    assert config_to_dict(config)["position_radius"] == 3 and type(config.position_radius) is int


def test_config_helpers_build_consistent_objects():
    config = MinimizeConfig()
    box = config.momentum_box()
    assert isinstance(box, MomentumBox)
    assert len(box.grid_points()) == int(np.prod(config.momentum_shape))
    assert config.space().n == config.n
    grid = config.position_grid()
    assert len(grid.points) == int(np.prod(config.position_shape))


# ---------------------------------------------------------------------------
# Constraint restoration
# ---------------------------------------------------------------------------

def test_restore_case_a_is_uniform_and_exact():
    rng = make_rng(2)
    measure = random_measure_for(SP1, rng)
    total_trace = float(np.trace(measure.operators.sum(axis=0)).real)
    if total_trace <= 0:  # make the uniform target reachable
        bump = np.zeros((2, 2), complex)
        bump[0, 0] = 2.0 * abs(total_trace) + 1.0
        ops = measure.operators.copy()
        ops[0] = ops[0] + bump
        measure = measure.with_operators(ops)
    restored = restore_constraints(measure, "a", 0.8, 2.0)
    values = constraint_values(restored)
    assert values.trace == pytest.approx(0.8, abs=1e-13)
    lam = 0.8 / float(np.trace(measure.operators.sum(axis=0)).real)
    np.testing.assert_allclose(restored.operators, lam * measure.operators, rtol=1e-12)
    np.testing.assert_array_equal(restored.momenta, measure.momenta)


def test_restore_case_b_pins_both_constraints():
    for n in (1, 2):
        sp = SignatureSpace(n)
        measure = random_measure_for(sp, make_rng(3), n_atoms=3)
        restored = restore_constraints(measure, "b", 0.8, 2.0)
        values = constraint_values(restored)
        assert values.trace == pytest.approx(0.8, abs=1e-13)
        assert values.mod_dim == pytest.approx(2.0, abs=1e-13)
        sig = sp.signature
        for A in restored.operators:
            H = sig[:, None] * A
            assert np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0] > -1e-12


def test_restore_rejects_unreachable_targets():
    # All mass in the negative-signature block: no positive uniform scaling
    # reaches a positive trace, and the positive block is empty for case b.
    rng = make_rng(4)
    box = MomentumBox((-1.0, -0.5, -0.5, -0.5), (1.0, 0.5, 0.5, 0.5), (2, 1, 1, 1))
    pts = box.grid_points()
    A = np.zeros((2, 2), complex)
    A[1, 1] = -1.0  # positive operator: S A = diag(0, 1)
    measure = OperatorMeasure(SP1, box, pts[:1], [A])
    with pytest.raises(RestorationError):
        restore_constraints(measure, "a", 0.5, 1.0)
    with pytest.raises(RestorationError):
        restore_constraints(measure, "b", 0.5, 1.0)
    with pytest.raises(ValidationError):
        restore_constraints(measure, "z", 0.5, 1.0)
    with pytest.raises(ValidationError):
        restore_constraints(measure, "b", 1.5, 1.0)


@pytest.mark.parametrize("c, f", [(0.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (0.5, 0.2)])
def test_bad_constraint_targets_are_rejected_alike(c, f):
    measure = random_measure_for(SP1, make_rng(5))
    mu = pushforward(measure, np.zeros_like(measure.operators))
    messages = []
    for reject in (
        lambda: MinimizeConfig(c=c, f=f),
        lambda: restore_constraints(measure, "b", c, f),
        lambda: lagrange_parameters(mu, c, f),
    ):
        with pytest.raises(ValidationError) as err:
            reject()
        messages.append(str(err.value))
    assert messages == [f"constraint targets must satisfy 0 < c < f, got c={c}, f={f}"] * 3


# ---------------------------------------------------------------------------
# L-BFGS curvature memory
# ---------------------------------------------------------------------------

def _two_loop_direction(g: np.ndarray, pairs: list) -> np.ndarray:
    """Reference L-BFGS direction ``-H g``: the two-loop recursion (Nocedal, Math. Comp. 35, 1980).

    ``pairs`` holds the accepted ``(s, y)``, oldest first; the initial
    scaling ``s . y / y . y`` comes from the newest pair.
    """
    q = g
    coefficients = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q = q - a * y
        coefficients.append(a)
    if pairs:
        s, y = pairs[-1]
        q = q * ((s @ y) / (y @ y))
    for (s, y), a in zip(pairs, reversed(coefficients)):
        q = q + (a - (y @ q) / (s @ y)) * s
    return -q


def test_compact_memory_matches_the_two_loop_recursion():
    rng = make_rng(5)
    size = 3 * LBFGS_MEMORY
    # Pairs of a quadratic with curvatures in [1, 10], as a descent sees them.
    basis, _ = np.linalg.qr(rng.standard_normal((size, size)))
    hessian = (basis * np.linspace(1.0, 10.0, size)) @ basis.T
    memory, pairs = _CurvatureMemory(size), []
    assert np.array_equal(memory.direction(np.ones(size)), -np.ones(size))
    skipped, cleared = {3, 2 * LBFGS_MEMORY}, LBFGS_MEMORY + 5
    for step in range(3 * LBFGS_MEMORY):
        if step == cleared:
            memory.clear()
            pairs = []
        s = rng.standard_normal(size)
        y = -hessian @ s if step in skipped else hessian @ s
        memory.add(s, y)
        if step not in skipped:
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
        assert memory.count == len(pairs), step
        g = rng.standard_normal(size)
        expected = _two_loop_direction(g, pairs)
        assert np.linalg.norm(memory.direction(g) - expected) <= 1e-12 * np.linalg.norm(expected), step


class _ShiftedMemory:
    """Reference compact memory with shifting tables: every pair past the
    ``LBFGS_MEMORY``-th shifts all five tables up by one row."""

    def __init__(self, size):
        self.S = np.zeros((LBFGS_MEMORY, size))
        self.Y = np.zeros((LBFGS_MEMORY, size))
        self.sy = np.zeros(LBFGS_MEMORY)
        self.R_inv = np.zeros((LBFGS_MEMORY, LBFGS_MEMORY))
        self.YY = np.zeros((LBFGS_MEMORY, LBFGS_MEMORY))
        self.count = 0

    def add(self, s, y):
        sy = float(s @ y)
        if not sy > 0:
            return
        m = self.count
        if m == LBFGS_MEMORY:
            for table in (self.S, self.Y, self.sy):
                table[:-1] = table[1:]
            for table in (self.R_inv, self.YY):
                table[:-1, :-1] = table[1:, 1:]
            m -= 1
        self.R_inv[:m, m] = (self.R_inv[:m, :m] @ (self.S[:m] @ y)) / -sy
        self.R_inv[m, :m] = 0.0
        self.R_inv[m, m] = 1.0 / sy
        self.YY[m, :m] = self.YY[:m, m] = self.Y[:m] @ y
        self.YY[m, m] = y @ y
        self.S[m], self.Y[m], self.sy[m] = s, y, sy
        self.count = m + 1

    def clear(self):
        self.count = 0

    def direction(self, g):
        m = self.count
        if m == 0:
            return -g
        S, Y, R_inv = self.S[:m], self.Y[:m], self.R_inv[:m, :m]
        gamma = self.sy[m - 1] / self.YY[m - 1, m - 1]
        a = R_inv @ (S @ g)
        b = (self.sy[:m] * a + gamma * (self.YY[:m, :m] @ a - Y @ g)) @ R_inv
        return gamma * (a @ Y - g) - b @ S


@pytest.mark.parametrize("size", [4, 48, 648])
def test_windowed_memory_gives_the_shifted_memory_directions_to_the_bit(size):
    # The window moves its rows back to the front once every LBFGS_MEMORY
    # pairs; the held rows and their order are those of the shifted tables,
    # so every direction is the same bits.  Sizes of the face stacks of the
    # toy, the n=2 reference and (3,3,3,3)/(7,3,3,1).
    rng = make_rng(6)
    windowed, shifted = _CurvatureMemory(size), _ShiftedMemory(size)
    skipped, cleared = {3, LBFGS_MEMORY + 1, 2 * LBFGS_MEMORY + 7}, 2 * LBFGS_MEMORY + 10
    for step in range(3 * LBFGS_MEMORY + 5):
        if step == cleared:
            windowed.clear()
            shifted.clear()
        s = rng.standard_normal(size)
        y = (-1.0 if step in skipped else 1.0) * (s + 0.1 * rng.standard_normal(size))
        windowed.add(s, y)
        shifted.add(s, y)
        assert windowed.count == shifted.count, step
        g = rng.standard_normal(size)
        assert np.array_equal(windowed.direction(g), shifted.direction(g)), step


@pytest.mark.parametrize("size", [4, 48])
def test_memory_reads_only_the_entries_its_pairs_wrote(size):
    # The tables start unfilled: add writes every entry of the held block as
    # its pair arrives, the window move copies only that block, and direction
    # reads nothing else.  So tables holding NaN before the first pair give,
    # to the bit, the directions of zero-filled ones, through two window moves.
    rng = make_rng(7)
    poisoned, zeroed = _CurvatureMemory(size), _CurvatureMemory(size)
    for memory, fill in ((poisoned, np.nan), (zeroed, 0.0)):
        for table in (memory.S, memory.Y, memory.sy, memory.R_inv, memory.YY):
            table.fill(fill)
    skipped = {3, LBFGS_MEMORY + 1}
    for step in range(3 * LBFGS_MEMORY + 5):
        s = rng.standard_normal(size)
        y = (-1.0 if step in skipped else 1.0) * (s + 0.1 * rng.standard_normal(size))
        poisoned.add(s, y)
        zeroed.add(s, y)
        g = rng.standard_normal(size)
        assert np.array_equal(poisoned.direction(g), zeroed.direction(g)), step
    assert poisoned.lo > 0 and poisoned.hi < 2 * LBFGS_MEMORY


# ---------------------------------------------------------------------------
# Minimization on the toy instance
# ---------------------------------------------------------------------------

def test_toy_run_converges(toy_result):
    assert toy_result.converged
    # The minimizers form a face on which beta = 0 and the signed trace
    # ranges over about [0.5, 1], so the case tag depends on the seed; the
    # action and alpha do not.
    assert toy_result.action_value == pytest.approx(TOY_ACTION, rel=1e-6)
    assert toy_result.alpha == pytest.approx(TOY_ALPHA, rel=1e-8)


def test_toy_seeds_converge_to_one_minimum_in_few_iterations(toy_seed_results):
    # At most half of the 522 eigensolve trials that Barzilai-Borwein steps
    # with a stop on the gradient norm alone made over these seeds.
    assert sum(row["trials"] for result in toy_seed_results for row in result.trace) <= 261
    for seed, result in enumerate(toy_seed_results):
        assert result.converged, seed
        assert len(result.trace) < 200, seed
        assert result.action_value == pytest.approx(TOY_ACTION, rel=1e-6), seed
        assert result.alpha == pytest.approx(TOY_ALPHA, rel=1e-8), seed
        assert result.beta <= 1e-9, seed
        assert_feasible(result.measure, TOY.c, TOY.f, result.case_tag)


def test_logged_iterates_respect_the_signed_trace_bound(toy_seed_results):
    # Restoration and multipliers share one case rule, so no iterate is
    # left in case "a" above the bound.
    for seed, result in enumerate(toy_seed_results):
        for row in result.trace:
            assert row["signed_trace"] <= TOY.f + 1e-12, (seed, row["iteration"])


def test_stop_reason_agrees_with_the_trace(toy_seed_results):
    assert {result.stop_reason for result in toy_seed_results} == {"certified"}
    for seed, result in enumerate(toy_seed_results):
        last = result.trace[-1]
        assert len(result.trace) < TOY.max_iterations, seed
        if result.stop_reason == "certified":
            # The certified iterate is the last one logged and takes no
            # step; its report passed at half the tolerance.
            assert last["trials"] == 0, seed
            assert check_first_order(result.report, 0.5 * TOY.tol_el)["all"], seed
            assert result.converged, seed
    capped = minimize_action(replace(TOY, max_iterations=3))
    assert capped.stop_reason == "max_iterations"
    assert len(capped.trace) == 3
    assert all(row["trials"] >= 1 for row in capped.trace)


def test_n2_reference_run_reaches_a_passing_report():
    config = MinimizeConfig(
        n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
        position_radius=3.0, smoothing_delta=1e-2, max_iterations=2000,
    )
    result = minimize_action(config)
    assert result.converged
    assert check_first_order(result.report, config.tol_el)["all"]
    assert_feasible(result.measure, config.c, config.f, result.case_tag)


def test_n2_reference_at_delta_zero_certifies_within_a_second():
    # The exact Lagrangian: the full-space descent took 4.4-6.7 s here, most
    # of it in finite differences for the chains' n zero eigenvalues.  The
    # face descent gives them in closed form, and so does the full-space
    # field of the returned result.
    start = time.perf_counter()
    result = minimize_action(replace(N2_REF, smoothing_delta=0.0))
    elapsed = time.perf_counter() - start
    assert result.stop_reason == "certified" and result.converged
    assert result.action_value == pytest.approx(0.60214157, abs=1e-8)
    assert elapsed < 1.0


def test_toy_at_c1_f2_certifies_every_seed():
    # Before the descent ran on the face, 24 of these 32 seeds certified;
    # the rest stalled at support residuals just above tol_el.
    results = [minimize_action(replace(TOY, c=1.0, f=2.0, seed=s)) for s in range(8, 40)]
    assert [result.stop_reason for result in results] == ["certified"] * 32
    assert all(result.converged for result in results)


def test_toy_seeds_0_39_certify_at_one_minimum_per_delta():
    for delta, value in ((1e-2, TOY_ACTION), (0.0, 19.8512467527)):
        for seed in range(40):
            result = minimize_action(replace(TOY, seed=seed, smoothing_delta=delta))
            assert result.stop_reason == "certified" and result.converged, (delta, seed)
            assert result.action_value == pytest.approx(value, rel=1e-10), (delta, seed)


def test_a_run_in_the_band_of_the_bound_is_not_certified_by_the_face_case(tmp_path, capsys):
    # With c inside the band f (1 - CONSTRAINT) of an active bound the full
    # space takes case "b", whose beta = alpha > 0 fails the report of every
    # face measure: such a run spent all its iterations on failing reports.
    # The configuration refuses it, and `kreinact minimize` exits 2; just
    # below the band the run certifies.
    for c, f in ((1.0, 1.0 + 5e-9), (1.0 - 5e-9, 1.0), (1.0 - 1e-8, 1.0)):
        with pytest.raises(ValidationError, match="active-bound band"):
            replace(TOY, c=c, f=f)
    assert main(["minimize", "--out", str(tmp_path), "--c", "1.0", "--f", "1.000000005"]) == 2
    assert "active-bound band" in capsys.readouterr().err
    result = minimize_action(replace(TOY, c=1.0 - 2e-8, f=1.0))
    assert result.stop_reason == "certified" and result.converged


def test_minimizer_atoms_lie_on_the_positive_face(toy_seed_results, n2_seed_results):
    # Every returned atom is exactly diag(B_j, 0), and the total T meets
    # T^2 = (c/n) T: at most 1.1e-16 relative on the toy seeds and 6.9e-9
    # on n=2 seeds 0-3, measured.
    for config, results in ((TOY, toy_seed_results), (N2_REF, n2_seed_results[:4])):
        n = config.n
        for seed, result in enumerate(results):
            operators = result.measure.operators
            assert not operators[:, n:].any() and not operators[:, :, n:].any(), (n, seed)
            T = result.measure.total()
            assert np.linalg.norm(T @ T - (config.c / n) * T) <= 1e-7 * np.linalg.norm(T), (n, seed)


def test_pointwise_certifier_accepts_every_atom_of_certified_minimizers(toy_seed_results, n2_seed_results):
    # The Euler-Lagrange equations make each support atom a solution of the
    # pointwise problem with q = Qhat(p_j), so lagrange_from_point certifies
    # it.  A minimizer's atom lies on the positive face, Tr A_j = Tr(S A_j),
    # the particle boundary a = +b, so its multipliers form the slope-1
    # family beta = offset - alpha, and the run's pair lies on it to the
    # report's tolerance (at most 2.2e-7 apart on the toy seeds and 4.9e-7
    # on the n=2 seeds).
    for config, results in ((TOY, toy_seed_results), (N2_REF, n2_seed_results)):
        for seed, result in enumerate(results):
            assert result.stop_reason == "certified", seed
            measure = result.measure
            evaluator = QHatEvaluator(measure, config.position_grid(), smoothing_delta=config.smoothing_delta)
            bound = config.tol_el * max(result.report.qhat_scale, 1.0)
            for j, (q, A) in enumerate(zip(evaluator.evaluate_many(measure.momenta), measure.operators)):
                with pytest.raises(NonUniqueMultipliersError) as err:
                    lagrange_from_point(q, A, measure.space, strict=True)
                family = err.value.family
                assert family.slope == 1, (config.n, seed, j)
                assert abs(family.beta(result.alpha) - result.beta) <= bound, (config.n, seed, j)


def test_minimizer_atoms_have_rank_n_with_a_positive_definite_range(toy_seed_results, n2_seed_results):
    # Each atom's S A_j = M_j^H M_j has n eigenvalues above 1e-10 of its largest (the next is at
    # most 7.4e-15 of it), though the factors M_j start at full rank 2n; S compressed to that
    # range is positive definite, its smallest eigenvalue 0.49999 on the toy and 0.86 at n=2.
    for results in (toy_seed_results, n2_seed_results[:4]):
        for seed, result in enumerate(results):
            space = result.measure.space
            n = space.n
            w, V = np.linalg.eigh(_hermitian_form(result.measure.operators, space.signature))
            assert (np.abs(w[:, :n]) <= 1e-10 * w[:, -1:]).all(), (n, seed)
            assert (w[:, n:] > 1e-10 * w[:, -1:]).all(), (n, seed)
            top = V[:, :, n:]
            compressed = top.conj().swapaxes(-1, -2) @ (space.signature[:, None] * top)
            assert np.linalg.eigvalsh(compressed).min() > 0.4, (n, seed)


def _first_order_checks(measure, config):
    """:func:`check_first_order` of ``measure`` under ``config``, its atoms as the probes."""
    evaluator = QHatEvaluator(measure, config.position_grid(), smoothing_delta=config.smoothing_delta)
    mu = pushforward(measure, evaluator.evaluate_many(measure.momenta))
    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    report = el_residuals(mu, alpha, beta, measure.momenta, mu.qs, case_tag)
    return report, check_first_order(report, config.tol_el)


def test_atoms_without_mass_are_not_support():
    # On a (5,1,1,1) momentum grid the minimum leaves the atoms at p0 = ±1/2
    # without mass, where the shifted field is positive definite: counted as
    # support, their gaps of 0.47 would stall the run.
    config = replace(TOY, seed=1, momentum_shape=(5, 1, 1, 1))
    result = minimize_action(config)
    assert result.stop_reason == "certified"
    assert result.action_value == pytest.approx(9.6379962541, rel=1e-10)
    norms = result.report.atom_norms
    massless = norms <= ZERO_EIGENVALUE * norms.max()
    assert massless.tolist() == [False, True, False, True, False]
    assert result.report.atom_gaps[massless].min() > 0.4
    # Exactly zero atoms there pass all checks.
    zeroed = result.measure.with_operators(np.where(massless[:, None, None], 0.0, result.measure.operators))
    report, checks = _first_order_checks(zeroed, config)
    assert checks["all"] and report.atom_gaps[massless].min() > 0.4


def test_atoms_without_mass_are_still_probes(toy_result):
    # A zero atom at the toy's p0 = 0, where Qhat - alpha is far from positive.
    # The margin is a congruence eigenvalue of S(Qhat - alpha), not a U(n, n)
    # invariant; this is its value at the minimizer's face representative.
    measure = toy_result.measure
    zero = np.zeros((1, 2, 2), complex)
    padded = OperatorMeasure(measure.space, measure.box, np.vstack([measure.momenta, np.zeros((1, 4))]),
                             np.concatenate([measure.operators, zero]))
    report, checks = _first_order_checks(padded, TOY)
    assert report.probe_margins[-1] == pytest.approx(-75.01, abs=0.01)
    assert not checks["psd_margin"] and not checks["all"]
    assert checks["support_gap"] and checks["support_residuals"]


def _scale_minimizer_field(monkeypatch, eps):
    """Make the minimizer's gradient fields ``1 + eps`` times the computed ones.

    Every iterate of a run, the initial one included, enters the loop
    through ``_FixedSupport.state`` with its field.
    """
    import kreinact.minimize as minimize_module

    state = minimize_module._FixedSupport.state

    def scaled(self, Cs, B, q_field):
        return state(self, Cs, B, (1.0 + eps) * q_field)

    monkeypatch.setattr(minimize_module._FixedSupport, "state", scaled)


@pytest.mark.parametrize("eps", [-3e-15, 2e-14, 1e-13, -1e-13])
def test_n2_reference_run_certifies_under_rounding_level_field_changes(monkeypatch, eps):
    # Scaling the gradient field by 1 + eps made the Barzilai-Borwein descent
    # miss its report at 2000 iterations, and moved an 8-pair L-BFGS descent
    # between 210 and 350 iterations; the face descent certifies in 97
    # iterations with 24 pairs and in 76 with 64, whatever the rounding.
    _scale_minimizer_field(monkeypatch, eps)
    config = MinimizeConfig(
        n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
        position_radius=3.0, smoothing_delta=1e-2, max_iterations=2000,
    )
    result = minimize_action(config)
    assert result.stop_reason == "certified"
    assert result.converged
    assert len(result.trace) <= 85
    assert result.action_value == pytest.approx(0.387773404, abs=2e-9)


@pytest.mark.parametrize("eps", [-3e-15, 2e-14, 1e-13, -1e-13])
def test_n2_reference_at_delta_zero_certifies_under_rounding_level_field_changes(monkeypatch, eps):
    # The exact Lagrangian: 118 iterations with 24 pairs, 98 with 64.
    _scale_minimizer_field(monkeypatch, eps)
    result = minimize_action(replace(N2_REF, smoothing_delta=0.0))
    assert result.stop_reason == "certified"
    assert result.converged
    assert len(result.trace) <= 108
    assert result.action_value == pytest.approx(0.60214157, abs=1e-8)


@pytest.mark.parametrize("delta, eps", [
    (1e-2, -3e-15), (1e-2, 3e-15), (1e-2, -1e-14), (0.0, -1e-15), (0.0, 1e-14),
])
def test_toy_at_c1_f2_certifies_under_rounding_level_field_changes(monkeypatch, delta, eps):
    # The restored trace misses c by rounding, and dS/dTr = 2 alpha scatters
    # the raw actions of trials (S about 311 here) by ulps.  Under a strict
    # test of the raw action each of these cases stalls one or two seeds;
    # compared at the exact trace with ties accepted, none does.
    _scale_minimizer_field(monkeypatch, eps)
    results = [minimize_action(replace(TOY, c=1.0, f=2.0, seed=s, smoothing_delta=delta)) for s in range(8, 40)]
    assert [result.stop_reason for result in results] == ["certified"] * 32
    assert all(result.converged for result in results)


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_exact_lagrangian_toy_panel_certifies(monkeypatch, eps):
    # At delta = 0 the toy chains reach vanishing moduli, whose zero cluster
    # the full-space field gives coefficient 0; a noisy field there (finite
    # differences unpaired with the reflection's) stalls some seeds with a
    # failing support residual.
    _scale_minimizer_field(monkeypatch, eps)
    results = [minimize_action(replace(TOY, seed=s, smoothing_delta=0.0)) for s in range(16)]
    assert [result.stop_reason for result in results] == ["certified"] * 16
    # The returned iterate is the certified one, so its report passes too.
    assert [result.converged for result in results] == [True] * 16


@pytest.mark.parametrize("config, stop", [
    pytest.param(replace(TOY, seed=2), "certified", id="2"),
    pytest.param(replace(TOY, seed=3, max_iterations=3), "max_iterations", id="3"),
    pytest.param(TOY, "stalled", id="forced-stall"),
])
def test_converged_is_the_final_report_verdict(monkeypatch, config, stop):
    # Seed 2 stops certified.  Seed 3, capped at three iterations, stops
    # long before its report passes.  The forced stall rejects every trial,
    # so the first line search finds no decrease and the report fails.
    # converged must be the report's verdict, whatever ended the loop.
    if stop == "stalled":
        import kreinact.minimize as minimize_module

        trial = minimize_module._FixedSupport.trial
        monkeypatch.setattr(minimize_module._FixedSupport, "trial",
                            lambda self, Cs_raw, to_beat, row: trial(self, Cs_raw, -math.inf, row))
    result = minimize_action(config)
    checks = check_first_order(result.report, config.tol_el)
    assert result.converged == checks["all"]
    assert result.stop_reason == stop
    assert result.converged == (stop == "certified")
    assert all(row["escapes"] == 0 for row in result.trace)
    assert result.trace[-1]["trials"] <= MAX_BACKTRACKS


def _trial_starts(monkeypatch):
    """The factor stack each line-search trial of a run starts from, recorded in order."""
    import kreinact.minimize as minimize_module

    trial, starts = minimize_module._FixedSupport.trial, []

    def recorded(self, Cs_raw, to_beat, row):
        starts.append(Cs_raw)
        return trial(self, Cs_raw, to_beat, row)

    monkeypatch.setattr(minimize_module._FixedSupport, "trial", recorded)
    return starts


@pytest.mark.parametrize("failure", ["restoration", "nonsmooth"])
def test_a_trial_that_fails_is_rejected_and_the_step_halves(monkeypatch, failure):
    # A trial whose raw factors no positive scale restores is rejected
    # before its solve.  At delta = 0 the full-space chains have zero moduli,
    # where the full-space descent met kinks; the face Lagrangian is smooth
    # there, so a trial fails only by not lowering the action.  Either way
    # the next trial takes half the step.
    import kreinact.minimize as minimize_module

    restore, restores = minimize_module._FixedSupport.restore, []

    def vanishing_first_trial(self, Cs_raw):
        restores.append(Cs_raw)
        # The first restoration is the initial iterate's, the second the first trial's.
        vanish = failure == "restoration" and len(restores) == 2
        return restore(self, 0.0 * Cs_raw if vanish else Cs_raw)

    solve, solves = minimize_module._FixedSupport.solve, []

    def rising_first_trial(self, Cs):
        solves.append(Cs)
        value, B, solved = solve(self, Cs)
        rises = failure == "nonsmooth" and len(solves) == 2
        return (math.inf if rises else value), B, solved

    state, iterates = minimize_module._FixedSupport.state, []

    def recorded(*args):
        iterates.append(state(*args))
        return iterates[-1]

    monkeypatch.setattr(minimize_module._FixedSupport, "state", recorded)
    starts = _trial_starts(monkeypatch)
    monkeypatch.setattr(minimize_module._FixedSupport, "restore", vanishing_first_trial)
    monkeypatch.setattr(minimize_module._FixedSupport, "solve", rising_first_trial)
    config = TOY if failure == "restoration" else replace(TOY, smoothing_delta=0.0)
    result = minimize_action(replace(config, max_iterations=1))
    assert len(starts) >= 2 and len(restores) == len(starts) + 1
    # The restoration fails before the trial's solve, which is not made.
    assert len(solves) == len(starts) + (0 if failure == "restoration" else 1)
    Cs = iterates[0].Cs
    assert result.trace[0]["trials"] == len(starts)
    np.testing.assert_allclose(starts[1] - Cs, 0.5 * (starts[0] - Cs), rtol=1e-12, atol=1e-15)
    assert result.stop_reason == "max_iterations"


def test_a_non_descent_direction_clears_the_memory_and_restarts_the_step(monkeypatch):
    direction, clear = _CurvatureMemory.direction, _CurvatureMemory.clear
    held, cleared = [], []

    def uphill_at_iteration_2(self, g):
        held.append(self.count)
        return g.copy() if len(held) == 3 else direction(self, g)

    def recorded_clear(self):
        cleared.append(self.count)
        clear(self)

    monkeypatch.setattr(_CurvatureMemory, "direction", uphill_at_iteration_2)
    monkeypatch.setattr(_CurvatureMemory, "clear", recorded_clear)
    result = minimize_action(replace(TOY, max_iterations=4))
    assert held[2] > 0 and cleared == [held[2]]
    assert [row["step"] for row in result.trace] == [INITIAL_STEP, 1.0, INITIAL_STEP, 1.0]


def _run_iterates(monkeypatch, config):
    """The iterates a run enters its loop with, the initial one first, as the run object builds
    them, each with the field of its kernel classes."""
    import kreinact.minimize as minimize_module

    state, iterates = minimize_module._FixedSupport.state, []

    def recorded(self, Cs, B, q_field):
        iterates.append((state(self, Cs, B, q_field), q_field))
        return iterates[-1][0]

    monkeypatch.setattr(minimize_module._FixedSupport, "state", recorded)
    minimize_action(config)
    monkeypatch.undo()
    return iterates


@pytest.mark.parametrize("config, index", [
    pytest.param(replace(TOY, seed=1), 5, id="toy-seed1-it5"),
    pytest.param(N2_REF, 60, id="n2-it60"),
    pytest.param(replace(TOY, smoothing_delta=0.0), 3, id="toy-delta0-it3"),
])
def test_run_state_is_the_full_space_computation_on_the_face(monkeypatch, config, index):
    # The loop passes n x n arrays; at each iterate they must be the positive
    # block of what the public evaluator, pushforward and multipliers give
    # for the full-space measure diag(B_j, 0), whose field is exactly 0.0 off
    # that block.  The loop holds the field per kernel class; gathered at
    # the grid's representatives, it is the full space's field.  The
    # blocks agree to rounding (at most 7.2e-16 relative, measured on these
    # iterates), also at delta = 0, where the full space gives the chains'
    # zero cluster coefficient 0 as the face does.
    it, q_class = _run_iterates(monkeypatch, replace(config, max_iterations=index))[index]
    run = fixed_support(config)
    face_field = representative_field(run, q_class)
    half = _phase_sum(run.class_phases, q_class)
    qs = half + half.conj().swapaxes(-1, -2)
    space, box, grid = config.space(), config.momentum_box(), config.position_grid()
    n, momenta = space.n, box.grid_points()
    A = np.zeros((len(momenta), 2 * n, 2 * n), complex)
    A[:, :n, :n] = it.B
    measure = OperatorMeasure(space, box, momenta, A)
    evaluator = QHatEvaluator(measure, grid, smoothing_delta=config.smoothing_delta)
    mu = pushforward(measure, evaluator.evaluate_many(momenta))
    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    bound = 1e-14
    for full, face in ((evaluator.q_field, face_field), (mu.qs, qs)):
        assert not full[:, n:].any() and not full[:, :, n:].any()
        assert np.abs(full[:, :n, :n] - face).max() <= bound * np.abs(face).max()
    assert (beta, case_tag) == (0.0, "a")
    assert abs(it.alpha - alpha) <= bound * alpha
    assert it.shifted.tobytes() == (qs - it.alpha * np.eye(n)).tobytes()
    assert it.grads.tobytes() == (4.0 * (it.Cs @ it.shifted)).tobytes()
    assert _tail_magnitude(face_field, grid) == pytest.approx(evaluator.tail_magnitude, rel=bound)


@pytest.mark.parametrize("config, origin_class", [
    pytest.param(TOY, 1, id="toy"),
    pytest.param(N2_REF, 2, id="n2"),
    pytest.param(replace(TOY, position_shape=(7, 3, 3, 1)), 5, id="toy-merged-origin"),
])
@pytest.mark.parametrize("delta", [1e-2, 1.0])
def test_class_folded_qhat_is_the_representative_sum_and_the_full_space_qhat(config, origin_class, delta):
    # The face sums the Fourier phases of each kernel class's representatives
    # once per run, so Qhat_11 at the atoms is one phase sum over the classes,
    # from the classes' field with no origin symmetrization (the origin's
    # phase is real).  It equals the sum over the representative field, the
    # origin's row symmetrized, and the full space's Qhat of diag(B_j, 0), to
    # rounding (at most 2.2e-16 relative, measured), also where the origin's
    # class holds other points: the n=2 reference's atoms all have p_2 = 0,
    # and on the (7,3,3,1) grid the toy's, all at p_1 = p_2 = p_3 = 0, merge
    # position axes 1 and 2 into it.
    run = fixed_support(replace(config, smoothing_delta=delta))
    support, n = run.support, config.n
    assert np.sum(support.kernel_class == support.kernel_class[support.origin_rows][0]) == origin_class
    rng = make_rng(38)
    shape = (len(run.momenta), n, n)
    Cs = run.restore(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    _, B, solved = run.solve(Cs)
    q_class = run.field(*solved)
    it = run.state(Cs, B, q_class)
    qs = it.shifted + it.alpha * np.eye(n)
    half = _phase_sum(support.fourier_phases(run.momenta), representative_field(run, q_class))
    measure = OperatorMeasure(run.space, run.box, run.momenta, run.embed(B))
    full = QHatEvaluator(measure, run.grid, smoothing_delta=delta).evaluate_many(run.momenta)
    assert not full[:, n:].any() and not full[:, :, n:].any()
    for expected in (half + half.conj().swapaxes(-1, -2), full[:, :n, :n]):
        assert np.abs(qs - expected).max() <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.0, 1e-2, 1.0])
def test_face_lagrangian_takes_the_zero_block_in_closed_form(n, delta):
    # The chains diag(H, 0) have n zero eigenvalues of modulus delta; the face
    # takes their part of the Lagrangian and of the slopes in closed form
    # from the n moduli of H.  Against the 2n moduli: at most 5.4e-16 of
    # sum m^2 for the values and 5.3e-16 of max m for the slopes, measured.
    rng = make_rng(39)
    for scale in (1e-3, 1.0, 1e3):
        G = rng.standard_normal((50, n, n)) + 1j * rng.standard_normal((50, n, n))
        s = np.linalg.eigvalsh(scale * (G @ G.conj().swapaxes(-1, -2)))
        values, slopes = _lagrangian(_moduli(s, delta), n, delta)
        m = _moduli(np.concatenate([s, np.zeros_like(s)], axis=1), delta)
        full_values, full_slopes = _lagrangian(m)
        assert np.all(np.abs(values - full_values) <= 1e-14 * (m * m).sum(axis=1))
        assert np.all(np.abs(slopes - full_slopes[:, :n]) <= 1e-14 * m.max(axis=1, keepdims=True))


def _face_minorant(B, momenta, grid, delta):
    """``S_lb = sum_xi w (t - n delta)^2 / 2n`` of the face measure ``diag(B_j, 0)``:
    ``t = sum_i sqrt(s_i^2 + delta^2)`` over the n eigenvalues ``s_i`` of ``K K^H``,
    ``K(xi) = sum_j e^{i p_j . xi} B_j``, on every point of ``grid``."""
    n = B.shape[-1]
    K = np.einsum("xj,jab->xab", np.exp(1j * grid.points @ momenta.T), B)
    s = np.linalg.eigvalsh(K @ K.conj().swapaxes(-1, -2))
    t = np.sqrt(s**2 + delta**2).sum(axis=1)
    return float(grid.weights @ ((t - n * delta) ** 2 / (2 * n)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.0, 1e-2, 1.0])
def test_the_face_action_has_a_convex_minorant(n, delta):
    # On the face L = sum m_i^2 + n delta^2 - (t + n delta)^2 / 2n over the n moduli
    # m_i of H = K K^H, and sum m_i^2 >= t^2 / n gives L >= (t - n delta)^2 / 2n,
    # with equality iff all m_i agree: always at n = 1.  t is a convex function of
    # the singular values of K (Lewis, J. Convex Anal. 2, 1995), K is linear in
    # the B_j and t >= n delta, so S_lb is convex on the face.  Measured on these
    # draws: (S - S_lb) / S >= 0.17 at n = 2, 3, and each midpoint at least
    # 6e-2 of the chord below it.
    config = replace(N2_REF, n=n)
    momenta, grid = config.momentum_box().grid_points(), config.position_grid()
    rng = make_rng(21)

    def face_measure():
        C = rng.standard_normal((len(momenta), n, n)) + 1j * rng.standard_normal((len(momenta), n, n))
        B = C.conj().swapaxes(-1, -2) @ C
        return B * (config.c / np.trace(B, axis1=1, axis2=2).real.sum())

    def face_action(B):
        embedded = np.zeros((len(B), 2 * n, 2 * n), complex)
        embedded[:, :n, :n] = B
        measure = OperatorMeasure(config.space(), config.momentum_box(), momenta, embedded)
        return action(measure, grid, delta)

    for _ in range(4):
        B0, B1 = face_measure(), face_measure()
        S, S_lb = face_action(B0), _face_minorant(B0, momenta, grid, delta)
        if n == 1:
            # S = S_lb.  At delta = 1 the moduli are nearly delta, so both sides
            # cancel in their sums, the action in action._lagrangian's
            # sum m^2 - (sum m)^2 / 2n: 5.4e-12 relative measured, against
            # 6.7e-16 at the smaller delta.
            assert abs(S - S_lb) <= (1e-10 if delta == 1.0 else 1e-13) * S
        else:
            assert S_lb < S
        chord = 0.5 * (S_lb + _face_minorant(B1, momenta, grid, delta))
        assert _face_minorant(0.5 * (B0 + B1), momenta, grid, delta) < chord


@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("config", [
    *(pytest.param(replace(TOY, seed=s), id=f"toy-{s}") for s in range(8)),
    *(pytest.param(replace(N2_REF, seed=s), id=f"n2-{s}") for s in range(4)),
    pytest.param(replace(N2_REF, n=3), id="n3"),
])
def test_a_certified_run_is_within_the_minorant_gap_of_the_face_minimum(config, delta):
    # S_lb is convex on the face and dS_lb = 2 sum_j Tr(Ghat_j dB_j), with Ghat the
    # face field at the minorant's slopes (t - n delta) / n.  So over every face
    # measure on the atoms with sum_j Tr B_j = c,
    #   S* >= S_lb(B) - 2 (sum_j Tr(Ghat_j B_j) - c min_j lambda_min(Ghat_j)),
    # and S(B) minus that bound is at least S - S_lb >= 0.  Measured worst gap over
    # these runs: 4.4e-7.
    config = replace(config, smoothing_delta=delta)
    result = minimize_action(config)
    assert result.stop_reason == "certified"
    run, n = fixed_support(config), config.n
    B = result.measure.operators[:, :n, :n]
    K = _phase_sum(run.support.kernel_phases, B)
    s, U = np.linalg.eigh(K @ K.conj().swapaxes(-1, -2))
    m = _moduli(s, delta)
    t = m.sum(axis=1)
    S = run.support.integral(_lagrangian(m, n, delta)[0])
    S_lb = run.support.integral((t - n * delta) ** 2 / (2 * n))
    slopes = np.repeat(((t - n * delta) / n)[:, None], n, axis=1)
    half = _phase_sum(run.class_phases, run.field(K, s, U, m, slopes))
    G_hat = half + half.conj().swapaxes(-1, -2)
    pairing = float(np.vdot(B, G_hat).real)
    bound = S_lb - 2.0 * (pairing - config.c * np.linalg.eigvalsh(G_hat)[:, 0].min())
    assert 0.0 <= S - bound <= 1e-6


@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("config", [
    *(pytest.param(replace(TOY, seed=s), id=f"toy-{s}") for s in range(8)),
    pytest.param(N2_REF, id="n2-0"),
])
def test_a_descent_from_a_certified_minimizer_certifies_at_its_first_iterate(config, delta):
    # _descend needs a run object and start factors, no configuration.  Started
    # at the square roots of a certified run's blocks, restored to Tr B = c, it
    # stops certified after one trace row with that run's report: at most
    # 1.4e-13 apart, absolute, on these runs and n=2 seeds 1-3 (toy alpha ~ 76).
    config = replace(config, smoothing_delta=delta)
    source = minimize_action(config)
    assert source.stop_reason == "certified"
    run, n = fixed_support(config), config.n
    w, V = np.linalg.eigh(source.measure.operators[:, :n, :n])
    roots = (V * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ V.conj().swapaxes(-1, -2)
    trace, stop_reason, (_, report) = _descend(run, run.restore(roots), config.max_iterations, config.tol_el)
    assert (len(trace), stop_reason) == (1, "certified")
    for name in ("alpha", "beta", "qhat_scale"):
        expected = getattr(source.report, name)
        assert abs(getattr(report, name) - expected) <= 1e-12 * abs(expected), name


@pytest.mark.parametrize("config", [
    pytest.param(replace(TOY, max_iterations=10), id="toy"),
    pytest.param(replace(N2_REF, max_iterations=20), id="n2"),
])
def test_each_trial_solves_its_chains_once_and_takes_their_moduli_once(monkeypatch, config):
    action_module = importlib.import_module("kreinact.action")
    minimize_module = importlib.import_module("kreinact.minimize")
    counts = {"face eigh": 0, "eig": 0, "moduli": 0}

    def counting(name, fn, face=False):
        def counted(*args, **kwargs):
            # The face chains are n x n; the reports' spectra are 2n x 2n.
            if not face or np.shape(args[0])[-1] == config.n:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting("face eigh", np.linalg.eigh, face=True))
    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    moduli = counting("moduli", action_module._moduli)
    for module in (action_module, minimize_module):
        monkeypatch.setattr(module, "_moduli", moduli)
    result = minimize_action(config)
    trials = sum(row["trials"] for row in result.trace)
    assert trials >= len(result.trace) - 1
    # The initial iterate and every trial solve their face chains once and
    # take their moduli once; an accepted trial builds its field from that
    # solve.  The returned result's full-space action and field take their
    # moduli once each, and only the field makes an eig.
    assert counts == {"face eigh": trials + 1, "eig": 1, "moduli": trials + 3}


def test_each_line_search_trial_makes_one_eigensolve(monkeypatch):
    import kreinact.minimize as minimize_module

    calls = []

    def counting(name, fn, face=False):
        def counted(*args, **kwargs):
            if not face or np.shape(args[0])[-1] == TOY.n:
                calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh, face=True))
    monkeypatch.setattr(minimize_module._FixedSupport, "trial",
                        counting("trial", minimize_module._FixedSupport.trial))
    result = minimize_action(replace(TOY, max_iterations=10))
    trials = calls.count("trial")
    assert trials >= len(result.trace) - 1
    assert sum(row["trials"] for row in result.trace) == trials
    # One face eigh for the initial iterate and one per trial; an accepted
    # trial builds its field from that same solve.  The full space solves
    # the returned measure's chains once for its field and once for its action.
    assert calls == ["eigh"] + ["trial", "eigh"] * trials + ["eig", "eigvals"]


def test_a_run_finds_its_probes_once_however_many_certificates_it_builds(monkeypatch):
    # The run object holds its probes and the atoms' rows among them, so a run
    # whose first two certificates are refused builds more certificates and
    # computes the box grid no more often than a run that certifies at once.
    import kreinact.minimize as minimize_module

    def counts(refusals):
        calls = {"certificate": 0, "grid_points": 0, "check": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def refusing(report, tol_el):
            calls["check"] += 1
            verdict = check_first_order(report, tol_el)
            verdict["all"] = verdict["all"] and calls["check"] > refusals
            return verdict

        with monkeypatch.context() as patch:
            patch.setattr(MomentumBox, "grid_points", counting("grid_points", MomentumBox.grid_points))
            patch.setattr(minimize_module._FixedSupport, "certificate",
                          counting("certificate", minimize_module._FixedSupport.certificate))
            patch.setattr(minimize_module, "check_first_order", refusing)
            result = minimize_action(TOY)
        assert result.stop_reason == "certified"
        return calls

    at_once, refused = counts(0), counts(2)
    assert at_once["certificate"] == 1 and refused["certificate"] >= 3
    assert refused["grid_points"] == at_once["grid_points"]


def test_stop_test_skips_the_shifted_eigensolve_until_the_residual_bound_passes(
    monkeypatch, toy_seed_results
):
    # A report can pass only if max_j ||B_j T_j||_F^2 <= n tol^2, so most
    # iterations skip the stacked eigvalsh of the shifted field; the runs
    # stay the same.  Seeds 0-39, since a face run takes 3-9 iterations.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.shape(a)[-1] == TOY.n:
            calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    results = [minimize_action(replace(TOY, seed=s)) for s in range(40)]
    iterations = sum(len(result.trace) for result in results)
    assert iterations >= 100
    assert len(calls) <= iterations // 4
    for result, expected in zip(results, toy_seed_results):
        assert result.trace == expected.trace
        assert report_to_dict(result.report) == report_to_dict(expected.report)


def test_support_tables_are_built_once_per_run_and_no_inverse_is_screened(monkeypatch):
    # The momenta and the grid are fixed for a run, so their phase tables
    # are too, and the returned result's full-space field and action reuse
    # them.  The face solves invert nothing, and the full-space field of a
    # well-conditioned result never needs the slogdet screen.
    from kreinact.action import _SupportTables

    calls = []
    build = _SupportTables.__init__

    def counted_build(self, *args):
        calls.append("tables")
        build(self, *args)

    def no_slogdet(a):
        raise AssertionError("the slogdet screen ran")

    monkeypatch.setattr(_SupportTables, "__init__", counted_build)
    monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
    result = minimize_action(N2_REF)
    assert sum(row["trials"] for row in result.trace) >= 10
    assert calls == ["tables"]


def test_a_certified_run_builds_the_certificate_it_returns_once(monkeypatch):
    # The stop test builds the full-space certificate of the iterate, and a
    # certified run returns that same one: one report and one full-space field.
    # kreinact.elverify builds the report; importlib gives the module itself,
    # since the package's names can shadow a submodule (kreinact.action).
    import kreinact.minimize as minimize_module

    elverify_module = importlib.import_module("kreinact.elverify")
    counts = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(elverify_module, "el_residuals", counting("el_residuals", elverify_module.el_residuals))
    monkeypatch.setattr(minimize_module, "QHatEvaluator", counting("QHatEvaluator", minimize_module.QHatEvaluator))
    for config in [replace(TOY, seed=s) for s in range(8)] + [N2_REF]:
        counts.clear()
        result = minimize_action(config)
        assert result.stop_reason == "certified", config.seed
        assert counts == {"el_residuals": 1, "QHatEvaluator": 1}, (config.n, config.seed)


@pytest.mark.parametrize("config", [
    pytest.param(TOY, id="toy-certified"),
    pytest.param(replace(TOY, seed=3, max_iterations=3), id="toy-capped"),
    pytest.param(MinimizeConfig(
        n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
        position_radius=3.0, smoothing_delta=1e-2, max_iterations=20,
    ), id="n2-capped"),
])
def test_returned_report_is_a_fresh_report_of_the_returned_iterate(config):
    # The loop's report solves the spectra of its own iterate's rows, and its
    # probes are the atoms; a report built anew from the returned measure,
    # with a separate probe stack, must equal it to the bit.
    result = minimize_action(config)
    measure = result.measure
    evaluator = QHatEvaluator(measure, config.position_grid(), smoothing_delta=config.smoothing_delta)
    qhats = evaluator.evaluate_many(measure.momenta)
    mu = pushforward(measure, qhats)
    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    fresh = el_residuals(mu, alpha, beta, measure.momenta, qhats.copy(), case_tag,
                         tail_magnitude=evaluator.tail_magnitude)
    assert report_to_dict(result.report) == report_to_dict(fresh)


def test_toy_run_is_feasible(toy_result):
    assert_feasible(toy_result.measure, TOY.c, TOY.f, toy_result.case_tag)


def test_toy_run_satisfies_first_order_conditions(toy_result):
    report = toy_result.report
    checks = check_first_order(report, TOY.tol_el)
    assert checks["all"] and all(checks.values())
    assert report.probe_margins.min() >= -1e-6
    assert max(report.atom_residual_left.max(), report.atom_residual_right.max()) <= 1e-6
    assert report.beta <= 1e-9
    assert report.alpha == toy_result.alpha
    assert report.beta == toy_result.beta
    assert report.case_tag == toy_result.case_tag


def test_toy_run_action_trace_is_monotone(toy_result):
    actions = np.array([entry["action"] for entry in toy_result.trace])
    assert len(actions) >= 2
    assert np.all(np.diff(actions) <= 1e-12)
    assert actions[-1] < actions[0]
    for key in ("iteration", "trace", "signed_trace", "step", "grad_norm", "escapes", "trials"):
        assert key in toy_result.trace[0]


def test_toy_run_reports_its_own_measure(toy_result):
    recomputed = action(toy_result.measure, TOY.position_grid(), TOY.smoothing_delta)
    assert recomputed == pytest.approx(toy_result.action_value, rel=1e-12)
    # The returned measure re-validates positivity and box membership.
    assert toy_result.measure.n_atoms == len(TOY.momentum_box().grid_points())


def test_minimize_is_deterministic_for_fixed_seed(toy_result):
    again = minimize_action(TOY)
    assert again.action_value == toy_result.action_value
    np.testing.assert_array_equal(again.measure.operators, toy_result.measure.operators)
    assert again.alpha == toy_result.alpha
    assert again.beta == toy_result.beta
