"""Every checked real or sequence argument fails as a ``ValidationError`` that names it.

``errors._check_real`` is the one rule for a real number and
``errors._four_vector`` the one rule for a 4-vector.  An integer beyond the
float range fails as too large for a float, never as an ``OverflowError``;
a value of another type never fails as a ``TypeError``; and a non-finite
value fails on the argument that carries it, not on what it would have
spoiled downstream (the operators, the box).  An infinite ``f`` is refused
too: it made the trace band ``CONSTRAINT * f`` of the multipliers infinite.
``errors._entries`` is the one rule for a sequence (box bounds, grid
shapes, point lists): a scalar where a sequence belongs, or a sequence of
the wrong length, fails with the message of the argument's own length check.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_rng, random_measure_for
from kreinact import (
    MinimizeConfig,
    MomentumBox,
    OperatorMeasure,
    PointwiseProblem,
    PositionGrid,
    QHatEvaluator,
    SignatureSpace,
    ValidationError,
    a_of_alpha,
    action,
    beta_of_alpha,
    check_first_order,
    closed_chain,
    dirac_sea_fixture,
    el_residuals,
    gradient_kernel_Q,
    kernel_P,
    lagrange_parameters,
    lagrangian,
    local_correlation,
    massless_fixture,
    pushforward,
    restore_constraints,
    scale,
    standard_basis,
    translate,
)

HUGE = 10**400
SPACE = SignatureSpace(1)
ORIGIN = np.zeros(4)
S = np.diag([1.0, -1.0]).astype(complex)
LOWER, UPPER = (-1.0, -0.5, -0.5, -0.5), (1.0, 0.5, 0.5, 0.5)


@pytest.fixture(scope="module")
def setup():
    measure = random_measure_for(SPACE, make_rng(3))
    grid = PositionGrid.from_box(1.0, (3, 1, 1, 1))
    evaluator = QHatEvaluator(measure, grid)
    mu = pushforward(measure, evaluator.evaluate_many(measure.momenta))
    report = el_residuals(mu, 0.0, 0.0, measure.momenta, mu.qs, "a")
    return SimpleNamespace(m=measure, grid=grid, ev=evaluator, mu=mu, report=report)


CASES = {
    "action_delta": (lambda x: action(x.m, x.grid, HUGE), "smoothing delta is too large for a float"),
    "lagrangian_delta": (lambda x: lagrangian(closed_chain(kernel_P(x.m, ORIGIN), SPACE), HUGE),
                         "smoothing delta is too large for a float"),
    "qhat_evaluator_delta": (lambda x: QHatEvaluator(x.m, x.grid, HUGE),
                             "smoothing delta is too large for a float"),
    "gradient_kernel_delta": (lambda x: gradient_kernel_Q(x.m, ORIGIN, HUGE),
                              "smoothing delta is too large for a float"),
    "pointwise_a": (lambda x: PointwiseProblem(SPACE, S, a=HUGE, b=1.0), "target a is too large for a float"),
    "pointwise_b": (lambda x: PointwiseProblem(SPACE, S, a=0.0, b=HUGE), "target b is too large for a float"),
    "restore_c": (lambda x: restore_constraints(x.m, "b", HUGE, 10 * HUGE), "c is too large for a float"),
    "restore_f": (lambda x: restore_constraints(x.m, "b", 1.0, HUGE), "f is too large for a float"),
    "multipliers_c": (lambda x: lagrange_parameters(x.mu, HUGE, 10 * HUGE), "c is too large for a float"),
    "multipliers_f": (lambda x: lagrange_parameters(x.mu, 1.0, HUGE), "f is too large for a float"),
    "multipliers_f_inf": (lambda x: lagrange_parameters(x.mu, 1.0, np.inf), "f must be finite, got inf"),
    "check_first_order_tol": (lambda x: check_first_order(x.report, HUGE),
                              "tol_el (--tol-el) is too large for a float"),
    "momentum_box": (lambda x: MomentumBox(LOWER, (HUGE, 0.5, 0.5, 0.5), (2, 1, 1, 1)),
                     "momentum box upper bound is too large for a float"),
    "config_box_lower": (lambda x: MinimizeConfig(box_lower=(-HUGE, -0.5, -0.5, -0.5)),
                         "momentum box lower bound is too large for a float"),
    "dirac_sea_mass": (lambda x: dirac_sea_fixture(HUGE, [(-1.0, 0.0, 0.0, 0.0)]), "mass is too large for a float"),
    "scale_factor": (lambda x: scale(x.m, HUGE), "scale factor is too large for a float"),
    "scale_nan": (lambda x: scale(x.m, np.nan), "scale factor must be finite and positive, got nan"),
    "scale_inf": (lambda x: scale(x.m, np.inf), "scale factor must be finite and positive, got inf"),
    "translate_nan": (lambda x: translate(x.m, [np.nan, 0, 0, 0]), "translation shift must have finite entries"),
    "kernel_xi": (lambda x: kernel_P(x.m, [HUGE, 0, 0, 0]), "xi is too large for a float"),
    "evaluate_p": (lambda x: x.ev.evaluate([HUGE, 0, 0, 0]), "p is too large for a float"),
    "correlation_position": (lambda x: local_correlation(x.m, [HUGE, 0, 0, 0], standard_basis(x.m)),
                             "position is too large for a float"),
    "kernel_complex_xi": (lambda x: kernel_P(x.m, [1j, 0, 0, 0]), "xi must hold real numbers, got [1j, 0, 0, 0]"),
    "a_of_alpha": (lambda x: a_of_alpha(S, SPACE, HUGE), "alpha is too large for a float"),
    "a_of_string_alpha": (lambda x: a_of_alpha(S, SPACE, "0.5"), "alpha must be finite, got '0.5'"),
    "beta_of_alpha": (lambda x: beta_of_alpha(S, SPACE, HUGE), "alpha is too large for a float"),
    "el_residuals_probe_rows": (lambda x: el_residuals(x.mu, 0.0, 0.0, np.zeros((2, 3)), x.mu.qs, "a"),
                                "probe points must be rows of four numbers, got shape (2, 3)"),
    "el_residuals_string_probe": (lambda x: el_residuals(x.mu, 0.0, 0.0, [["a", "b", "c", "d"]], x.mu.qs[:1], "a"),
                                  "probe points must hold real numbers, got array([['a', 'b', 'c', 'd']], dtype='<U1')"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_bad_real_argument_raises_a_validation_error_naming_it(setup, call, message):
    with pytest.raises(ValidationError) as err:
        call(setup)
    assert str(err.value) == message


def test_every_real_value_accepted_keeps_its_float():
    # Ints, bools and numpy scalars are real numbers: checked and converted by float().
    reference = PositionGrid.from_box(1.0, (3, 1, 1, 1)).weights
    for radius in (1, True, np.int64(1), np.float32(1.0)):
        assert PositionGrid.from_box(radius, (3, 1, 1, 1)).weights.tobytes() == reference.tobytes()
    config = MinimizeConfig(box_lower=np.array(LOWER), box_upper=[np.int64(1), 0.5, 0.5, 0.5])
    assert (config.box_lower, config.box_upper) == (LOWER, UPPER)
    assert {type(x) for x in config.box_lower + config.box_upper} == {float}


BOX_SHAPE = "momentum box requires 4-dimensional bounds and grid shape"
SEQUENCE_CASES = {
    "box_scalar_lower": (lambda: MomentumBox(1.0, UPPER, (2, 1, 1, 1)), BOX_SHAPE),
    "box_none_lower": (lambda: MomentumBox(None, UPPER, (2, 1, 1, 1)), BOX_SHAPE),
    "box_scalar_upper": (lambda: MomentumBox(LOWER, 1.0, (2, 1, 1, 1)), BOX_SHAPE),
    "box_scalar_grid_shape": (lambda: MomentumBox(LOWER, UPPER, 3), BOX_SHAPE),
    "grid_scalar_shape": (lambda: PositionGrid.from_box(1.0, 5), "grid shape must be four positive integer counts, got 5"),
    "config_scalar_momentum_shape": (lambda: MinimizeConfig(momentum_shape=2), "momentum_shape must be four counts, got 2"),
    "config_none_position_shape": (lambda: MinimizeConfig(position_shape=None),
                                   "position_shape must be four counts, got None"),
    "config_short_position_shape": (lambda: MinimizeConfig(position_shape=(5, 1, 1)),
                                    "position_shape must be four counts, got (5, 1, 1)"),
    "config_scalar_box_lower": (lambda: MinimizeConfig(box_lower=1.0), BOX_SHAPE),
    "measure_string_momentum": (
        lambda: OperatorMeasure(SPACE, MomentumBox(LOWER, UPPER, (2, 1, 1, 1)), [["a", 0, 0, 0]], np.eye(2)),
        "atom momenta must hold real numbers, got [['a', 0, 0, 0]]"),
    "measure_huge_momentum": (
        lambda: OperatorMeasure(SPACE, MomentumBox(LOWER, UPPER, (2, 1, 1, 1)), [[HUGE, 0, 0, 0]], np.eye(2)),
        "atom momenta is too large for a float"),
    "grid_string_points": (lambda: PositionGrid([["a", 0, 0, 0]], [1.0], [0]),
                           "grid points must hold real numbers, got [['a', 0, 0, 0]]"),
    "dirac_sea_scalar_points": (lambda: dirac_sea_fixture(1.0, 5), "shell points must be 4-vectors"),
    "massless_scalar_vectors": (lambda: massless_fixture(2.0), "wave vectors must be spatial 3-vectors"),
}


@pytest.mark.parametrize("call, message", SEQUENCE_CASES.values(), ids=SEQUENCE_CASES.keys())
def test_a_bad_sequence_argument_raises_a_validation_error_naming_it(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_a_point_list_may_be_any_iterable_of_points():
    # The fixtures read their points through the sequence rule, so a generator still serves.
    points = [(-np.sqrt(2.0), 1.0, 0.0, 0.0), (-np.sqrt(5.0), 0.0, 2.0, 0.0)]
    listed, generated = dirac_sea_fixture(1.0, points), dirac_sea_fixture(1.0, (p for p in points))
    assert listed.momenta.tobytes() == generated.momenta.tobytes()
    assert listed.operators.tobytes() == generated.operators.tobytes()
    assert massless_fixture(p[1:] for p in points).n_atoms == 2
