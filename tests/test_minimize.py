"""Tests for constraint restoration and the constrained gradient minimizer."""

import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_feasible, make_rng, random_measure_for
from kreinact import (
    MinimizeConfig,
    MomentumBox,
    NonsmoothPointError,
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
from kreinact.action import _tail_magnitude
from kreinact.elverify import _shift
from kreinact.krein import _hermitian_form
from kreinact.minimize import INITIAL_STEP, LBFGS_MEMORY, MAX_BACKTRACKS, _CurvatureMemory, _restoring_factors
from kreinact.tolerances import CONSTRAINT, ZERO_EIGENVALUE

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


def _total_scaling_to(signed: float, c: float = 0.5) -> np.ndarray:
    """``diag(t11, t22)`` whose uniform scaling to ``Tr = c`` has ``Tr(S .) = signed``."""
    r = signed / c
    t22 = -0.25
    return np.diag([t22 * (1 + r) / (1 - r), t22]).astype(complex)


@pytest.mark.parametrize(
    "total, case",
    [
        (_total_scaling_to(0.75), "a"),
        (_total_scaling_to(1.0 - 2 * CONSTRAINT), "a"),
        (_total_scaling_to(1.0 - CONSTRAINT / 2), "b"),
        (_total_scaling_to(1.5), "b"),
        (np.diag([0.2, -0.5]).astype(complex), "b"),  # total trace not positive
    ],
    ids=["below-band", "just-below-band", "in-band", "above-bound", "non-positive-trace"],
)
def test_restoration_rule_scales_uniformly_only_below_the_band(total, case):
    # c = 0.5, f = 1: the band of the active bound starts at f (1 - CONSTRAINT).
    factors = _restoring_factors(total, 1, 0.5, 1.0)
    np.testing.assert_array_equal(factors, _restoring_factors(total, 1, 0.5, 1.0, case))
    assert (factors[0] == factors[1]) == (case == "a")


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


@pytest.mark.parametrize("size", [16, 192])
def test_windowed_memory_gives_the_shifted_memory_directions_to_the_bit(size):
    # The window moves its rows back to the front once every LBFGS_MEMORY
    # pairs; the held rows and their order are those of the shifted tables,
    # so every direction is the same bits.  Sizes of the toy and n=2 stacks.
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


def test_pointwise_certifier_accepts_every_atom_of_certified_minimizers(toy_seed_results, n2_seed_results):
    # The Euler-Lagrange equations make each support atom a solution of the
    # pointwise problem with q = Qhat(p_j), so lagrange_from_point certifies
    # it, with the run's multipliers to the report's tolerance.  The two
    # lowest eigenvalues of Qhat(p_j) - alpha S at the n=2 atoms lie 1.8e-7
    # to 1.2e-6 apart, well outside the solver's mixing width.
    for config, results in ((TOY, toy_seed_results), (N2_REF, n2_seed_results)):
        for seed, result in enumerate(results):
            assert result.stop_reason == "certified", seed
            measure = result.measure
            evaluator = QHatEvaluator(measure, config.position_grid(), smoothing_delta=config.smoothing_delta)
            bound = config.tol_el * max(result.report.qhat_scale, 1.0)
            for j, (q, A) in enumerate(zip(evaluator.evaluate_many(measure.momenta), measure.operators)):
                alpha, beta = lagrange_from_point(q, A, measure.space, strict=True)
                assert abs(alpha - result.alpha) <= bound, (config.n, seed, j)
                assert abs(beta - result.beta) <= bound, (config.n, seed, j)


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
    measure = toy_result.measure
    zero = np.zeros((1, 2, 2), complex)
    padded = OperatorMeasure(measure.space, measure.box, np.vstack([measure.momenta, np.zeros((1, 4))]),
                             np.concatenate([measure.operators, zero]))
    report, checks = _first_order_checks(padded, TOY)
    assert report.probe_margins[-1] == pytest.approx(-74.6, abs=0.1)
    assert not checks["psd_margin"] and not checks["all"]
    assert checks["support_gap"] and checks["support_residuals"]


def _scale_minimizer_field(monkeypatch, eps):
    """Make the minimizer's gradient fields ``1 + eps`` times the computed ones.

    Every iterate of a run, the initial one included, enters the loop
    through ``_FixedSupport.state`` with its field.
    """
    import kreinact.minimize as minimize_module

    state = minimize_module._FixedSupport.state

    def scaled(self, Ms, A, q_field):
        return state(self, Ms, A, (1.0 + eps) * q_field)

    monkeypatch.setattr(minimize_module._FixedSupport, "state", scaled)


@pytest.mark.parametrize("eps", [-3e-15, 2e-14, 1e-13, -1e-13])
def test_n2_reference_run_certifies_under_rounding_level_field_changes(monkeypatch, eps):
    # Scaling the gradient field by 1 + eps made the Barzilai-Borwein descent
    # miss its report at 2000 iterations, and moved an 8-pair L-BFGS descent
    # between 210 and 350 iterations; the 24-pair descent certifies in about
    # 155 whatever the rounding.
    _scale_minimizer_field(monkeypatch, eps)
    config = MinimizeConfig(
        n=2, c=0.5, f=1.0, momentum_shape=(3, 2, 1, 1), position_shape=(7, 3, 3, 1),
        position_radius=3.0, smoothing_delta=1e-2, max_iterations=2000,
    )
    result = minimize_action(config)
    assert result.stop_reason == "certified"
    assert result.converged
    assert len(result.trace) < 200


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_exact_lagrangian_toy_panel_certifies(monkeypatch, eps):
    # At delta = 0 the toy chains reach vanishing moduli, whose points take
    # finite differences averaged over the reflection pair; with a single
    # estimate per pair some seeds stall with a failing support residual.
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

        monkeypatch.setattr(minimize_module, "_solved_action", lambda *args: (math.inf, None))
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

    def recorded(self, Ms_raw, to_beat, row):
        starts.append(Ms_raw)
        return trial(self, Ms_raw, to_beat, row)

    monkeypatch.setattr(minimize_module._FixedSupport, "trial", recorded)
    return starts


@pytest.mark.parametrize("failure", ["restoration", "nonsmooth"])
def test_a_trial_that_fails_is_rejected_and_the_step_halves(monkeypatch, failure):
    # A trial whose restoration fails, or whose field meets a kink, is a
    # rejected trial like one that does not lower the action.
    import kreinact.minimize as minimize_module

    name = "_restoring_factors" if failure == "restoration" else "_gradient_field"
    # The initial iterate is restored too, but its field is the evaluator's.
    first_trial_call = 2 if failure == "restoration" else 1
    original, calls, failed = getattr(minimize_module, name), [], []

    def fails_once(*args):
        calls.append(name)
        if len(calls) == first_trial_call:
            failed.append(len(starts) - 1)
            if failure == "restoration":
                raise RestorationError("forced")
            raise NonsmoothPointError("forced", xi=np.zeros(4))
        return original(*args)

    state, iterates = minimize_module._FixedSupport.state, []

    def recorded(*args):
        iterates.append(state(*args))
        return iterates[-1]

    monkeypatch.setattr(minimize_module._FixedSupport, "state", recorded)
    starts = _trial_starts(monkeypatch)
    monkeypatch.setattr(minimize_module, name, fails_once)
    result = minimize_action(replace(TOY, max_iterations=1))
    assert failed == [0] and len(starts) == 2
    Ms = iterates[0].Ms
    # The restoration fails before the trial's chain solve, which is not counted.
    assert result.trace[0]["trials"] == (1 if failure == "restoration" else 2)
    np.testing.assert_allclose(starts[1] - Ms, 0.5 * (starts[0] - Ms), rtol=1e-12, atol=1e-15)
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
    """The iterates a run enters its loop with, the initial one first, as the run object builds them."""
    import kreinact.minimize as minimize_module

    state, iterates = minimize_module._FixedSupport.state, []

    def recorded(self, Ms, A, q_field):
        iterates.append(state(self, Ms, A, q_field))
        return iterates[-1]

    monkeypatch.setattr(minimize_module._FixedSupport, "state", recorded)
    minimize_action(config)
    monkeypatch.undo()
    return iterates


@pytest.mark.parametrize("config, index, fd_points", [
    pytest.param(replace(TOY, seed=1), 5, False, id="toy-seed1-it5"),
    pytest.param(N2_REF, 60, False, id="n2-it60"),
    pytest.param(replace(TOY, smoothing_delta=0.0), 10, True, id="toy-delta0-it10-fd"),
])
def test_run_state_is_the_public_computation_to_the_bit(monkeypatch, config, index, fd_points):
    # The loop passes arrays; at each iterate they must be what the public
    # evaluator, pushforward and multipliers give for its measure.
    it = _run_iterates(monkeypatch, replace(config, max_iterations=index))[index]
    space, box, grid = config.space(), config.momentum_box(), config.position_grid()
    momenta = box.grid_points()
    action_module = importlib.import_module("kreinact.action")
    fd_gradient, estimates = action_module._fd_gradient, []

    def counted(*args):
        estimates.append(args[1])
        return fd_gradient(*args)

    monkeypatch.setattr(action_module, "_fd_gradient", counted)
    measure = OperatorMeasure(space, box, momenta, it.A)
    evaluator = QHatEvaluator(measure, grid, smoothing_delta=config.smoothing_delta)
    assert bool(estimates) == fd_points
    mu = pushforward(measure, evaluator.evaluate_many(momenta))
    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    shifted = _shift(mu.qs, alpha, beta, space)
    assert it.q_field.tobytes() == evaluator.q_field.tobytes()
    assert it.qs.tobytes() == mu.qs.tobytes()
    assert (it.alpha, it.beta, it.case_tag) == (alpha, beta, case_tag)
    assert it.shifted.tobytes() == shifted.tobytes()
    assert it.grads.tobytes() == (4.0 * (it.Ms @ shifted) * space.signature[None, None, :]).tobytes()
    assert _tail_magnitude(it.q_field, grid) == evaluator.tail_magnitude


@pytest.mark.parametrize("config", [
    pytest.param(replace(TOY, max_iterations=10), id="toy"),
    pytest.param(replace(N2_REF, max_iterations=20), id="n2"),
])
def test_each_trial_solves_its_chains_once_and_takes_their_moduli_once(monkeypatch, config):
    action_module = importlib.import_module("kreinact.action")
    counts = {"eig": 0, "moduli": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(action_module, "_moduli", counting("moduli", action_module._moduli))
    result = minimize_action(config)
    trials = sum(row["trials"] for row in result.trace)
    assert trials >= config.max_iterations
    # The initial iterate solves its chains twice, by action() and by its
    # evaluator; every trial once, and its field reuses that solve's moduli.
    assert counts == {"eig": trials + 1, "moduli": trials + 2}


def test_each_line_search_trial_makes_one_eigensolve(monkeypatch):
    import kreinact.minimize as minimize_module

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eig", counting("eig", np.linalg.eig))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(minimize_module, "_solved_action",
                        counting("trial", minimize_module._solved_action))
    result = minimize_action(replace(TOY, max_iterations=10))
    trials = calls.count("trial")
    assert trials >= len(result.trace) - 1
    assert sum(row["trials"] for row in result.trace) == trials
    # eigvals only in the first action(); every trial is one eig stack, and
    # an accepted trial builds its field from that same solve.
    assert calls == ["eigvals", "eig"] + ["trial", "eig"] * trials


def test_stop_test_skips_the_shifted_eigensolve_until_the_residual_bound_passes(
    monkeypatch, toy_seed_results
):
    # A report can pass only if max_j ||A_j T_j||_F^2 <= d tol^2, so most
    # iterations skip the stacked eigh of the shifted field; the runs stay the same.
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    results = [minimize_action(replace(TOY, seed=s)) for s in range(8)]
    iterations = sum(len(result.trace) for result in results)
    assert iterations >= 100
    assert len(calls) <= iterations // 4
    for result, expected in zip(results, toy_seed_results):
        assert result.trace == expected.trace
        assert report_to_dict(result.report) == report_to_dict(expected.report)


def test_support_tables_are_built_once_per_run_and_no_inverse_is_screened(monkeypatch):
    # The momenta and the grid are fixed for a run, so their phase tables
    # are too; a well-conditioned run never needs the slogdet screen.
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
    result = minimize_action(TOY)
    assert sum(row["trials"] for row in result.trace) >= 10
    assert calls == ["tables"]


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
