"""Constrained minimization of the discretized action over atomic measures.

Atoms sit at the points of the momentum grid and carry operators in the
factorized form ``A_j = S M_j^H M_j``, so positivity costs nothing.  The
optimizer alternates gradient steps on the stack ``{M_j}`` with an exact
restoration of the constraints

    Tr(total) = c    (always),
    Tr(S total) <= f (restored to equality where the bound is active),

by scaling the two signature blocks: with ``x, y > 0`` the congruence
``A -> D A D``, ``D = diag(sqrt(x) 1_n, sqrt(y) 1_n)``, moves the block
traces linearly, so the scalings solve the constraint equations in closed
form; the restoration acts as the retraction onto the feasible set.

Each step starts from the gradient of the Lagrangian function
``G_j = 4 M_j (Qhat(p_j) - alpha - beta S) S``, with the Fourier gradient
field ``Qhat`` of the (optionally smoothed) Lagrangian and the multipliers
``(alpha, beta)`` of :func:`~kreinact.elverify.lagrange_parameters` at the
current iterate.  Its norm vanishes exactly where the Euler-Lagrange
conditions hold on the support.
The step direction is the L-BFGS two-loop direction (Nocedal, Math. Comp.
35, 1980) over the last ``LBFGS_MEMORY`` accepted steps ``s`` and their
gradient changes ``y``, in the real inner product ``Re<., .>`` of the
factor stack, scaled initially by ``Re<s, y> / <y, y>``.  Pairs with
``Re<s, y> <= 0`` are skipped; the memory is cleared whenever the
direction fails to descend.  The first trial step is 1
while the memory holds pairs and ``INITIAL_STEP`` otherwise, safeguarded
by monotone backtracking: a trial is accepted only if it strictly lowers
the action.  Each trial makes one chain eigensolve over the position grid;
its eigenvalues give the action, and an accepted trial builds the next
gradient field from the same solve.
The loop stops at the first iterate whose own first-order report passes
:func:`~kreinact.elverify.check_first_order` at ``CERTIFY_FRACTION *
tol_el`` (built only once its psd margin already clears that bound), and
returns that iterate with that report; whatever else ends the loop, the
last iterate is returned with the report of the field the loop built for
it.  The restoration and the multipliers choose the constraint case by one
rule, :func:`~kreinact.elverify._bound_active`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tolerances
from .action import PositionGrid, QHatEvaluator, _check_delta, _solved_action, action
from .elverify import (
    ELReport,
    _bound_active,
    _shifted_spectra,
    check_first_order,
    el_residuals,
    lagrange_parameters,
    pushforward,
)
from .errors import NonsmoothPointError, RestorationError, ValidationError
from .homomeasure import MomentumBox, OperatorMeasure
from .krein import SignatureSpace

# Curvature pairs kept by the L-BFGS direction.
LBFGS_MEMORY = 8
# First trial step while the L-BFGS memory is empty, and the backtracking
# that shrinks a rejected step.
INITIAL_STEP = 0.05
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
# An iterate stops the loop once its own report passes at this fraction
# of ``tol_el``.  That report is the one returned; the headroom lets an
# independent recomputation of it (``kreinact verify``) pass ``tol_el`` too.
CERTIFY_FRACTION = 0.5

__all__ = [
    "MinimizeConfig",
    "MinimizeResult",
    "restore_constraints",
    "minimize_action",
    "config_to_dict",
    "config_from_dict",
]


@dataclass(frozen=True)
class MinimizeConfig:
    """Validated configuration of a minimization run.

    ``tol_el`` is the tolerance of the final first-order report.
    """

    n: int = 1
    box_lower: tuple = (-1.0, -0.5, -0.5, -0.5)
    box_upper: tuple = (1.0, 0.5, 0.5, 0.5)
    momentum_shape: tuple = (2, 1, 1, 1)
    position_radius: float = 3.0
    position_shape: tuple = (5, 1, 1, 1)
    c: float = 1.0
    f: float = 2.0
    smoothing_delta: float = 0.0
    max_iterations: int = 5000
    tol_el: float = tolerances.EL_RESIDUAL
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.c < self.f):
            raise ValidationError(
                f"constraint targets must satisfy 0 < c < f, got c={self.c}, f={self.f}"
            )
        _check_delta(self.smoothing_delta)
        # Written so that NaN fails every range test.
        if not 0.0 < self.position_radius < math.inf:
            raise ValidationError(
                f"position_radius must be finite and > 0, got {self.position_radius!r}"
            )
        if not 0.0 <= self.tol_el < math.inf:
            raise ValidationError(f"tol_el must be finite and >= 0, got {self.tol_el!r}")
        counts = [("n", self.n, 1), ("max_iterations", self.max_iterations, 1), ("seed", self.seed, 0)]
        counts += [(f"each {name} entry", value, 1) for name in ("momentum_shape", "position_shape")
                   for value in getattr(self, name)]
        for name, value, least in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "box_lower", tuple(float(x) for x in self.box_lower))
        object.__setattr__(self, "box_upper", tuple(float(x) for x in self.box_upper))
        object.__setattr__(self, "momentum_shape", tuple(int(k) for k in self.momentum_shape))
        object.__setattr__(self, "position_shape", tuple(int(k) for k in self.position_shape))
        # Constructing the box validates bounds/shape consistency early.
        self.momentum_box()

    def momentum_box(self) -> MomentumBox:
        return MomentumBox(self.box_lower, self.box_upper, self.momentum_shape)

    def position_grid(self) -> PositionGrid:
        return PositionGrid.from_box(self.position_radius, self.position_shape)

    def space(self) -> SignatureSpace:
        return SignatureSpace(self.n)


def config_to_dict(config: MinimizeConfig) -> dict:
    """The configuration's fields as a JSON-ready dict (tuples become lists)."""
    return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(config).items()}


def config_from_dict(data: dict) -> MinimizeConfig:
    unknown = set(data) - {f.name for f in fields(MinimizeConfig)}
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    return MinimizeConfig(**data)


# ---------------------------------------------------------------------------
# Constraint restoration
# ---------------------------------------------------------------------------

def _block_traces(measure: OperatorMeasure):
    total = measure.total()
    n = measure.space.n
    t11 = float(np.trace(total[:n, :n]).real)
    t22 = float(np.trace(total[n:, n:]).real)
    return t11, t22


def _block_scalings(t11: float, t22: float, case: str, c: float, f: float):
    """Squared block scalings ``(x, y)`` for ``case`` from the block traces."""
    tiny = 1e-14 * max(abs(t11), abs(t22), 1.0)
    if case == "a":
        u = t11 + t22
        if u <= tiny:
            raise RestorationError(
                "total trace is not positive; uniform rescaling cannot reach the target"
            )
        lam = c / u
        return lam, lam
    if case == "b":
        # x*t11 = (c+f)/2 and y*t22 = (c-f)/2 with t11 >= 0 >= t22.
        if t11 <= tiny or t22 >= -tiny:
            raise RestorationError(
                "a signature block carries no trace mass; block scaling cannot "
                "reach the constraint targets"
            )
        x = 0.5 * (c + f) / t11
        y = 0.5 * (c - f) / t22
        if x <= 0 or y <= 0:
            raise RestorationError("constraint targets require non-positive scalings")
        return x, y
    raise ValidationError(f"unknown restoration case {case!r}")


def restore_constraints(measure: OperatorMeasure, case: str, c: float, f: float) -> OperatorMeasure:
    """Rescale the signature blocks so the constraint targets hold exactly.

    Case "a" rescales uniformly to ``Tr = c``; case "b" solves the 2x2
    linear system in the squared block scalings so that ``Tr = c`` and
    ``Tr(S .) = f`` hold simultaneously.  The congruence preserves
    positivity; targets unreachable by positive scalings raise
    :class:`~kreinact.errors.RestorationError`.
    """
    if not (0.0 < c < f):
        raise ValidationError(f"constraint targets must satisfy 0 < c < f, got c={c}, f={f}")
    x, y = _block_scalings(*_block_traces(measure), case, c, f)
    d = np.repeat(np.sqrt([x, y]), measure.space.n)
    ops = d[None, :, None] * measure.operators * d[None, None, :]
    return measure.with_operators(ops, validate=False)


@dataclass
class MinimizeResult:
    """Last iterate with its own first-order report and the iteration trace.

    The measure is the last iterate of the loop, as logged, with no further
    restoration; the report, multipliers and action are that iterate's.
    ``converged`` is whether that report passes :func:`check_first_order`
    at the configured ``tol_el``, so a ``"certified"`` stop is converged.
    ``stop_reason`` says what ended the loop:
    ``"certified"`` (the iterate's own report passed at
    ``CERTIFY_FRACTION * tol_el``), ``"stalled"`` (no line-search trial in
    ``MAX_BACKTRACKS`` lowered the action) or ``"max_iterations"``.  Each
    ``trace`` row holds the iterate's action, constraint values, first trial
    ``step``, ``grad_norm``, ``escapes`` (always 0) and ``trials``: the
    line-search trials that iteration made, one chain eigensolve each.
    """

    measure: OperatorMeasure
    report: ELReport
    trace: list = field(default_factory=list)
    converged: bool = True
    action_value: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    case_tag: str = "a"
    stop_reason: str = "max_iterations"


def _measure_from_Ms(space, box, momenta, Ms) -> OperatorMeasure:
    sig = space.signature
    ops = sig[None, :, None] * (Ms.conj().transpose(0, 2, 1) @ Ms)
    return OperatorMeasure(space, box, momenta, ops, validate=False)


def _lbfgs_direction(grads: np.ndarray, pairs: list) -> np.ndarray:
    """L-BFGS two-loop direction ``-H grads`` under the real inner product.

    ``pairs`` holds ``(s, y, 1 / Re<s, y>)``, oldest first; the initial
    scaling ``Re<s, y> / <y, y>`` comes from the newest pair.  With no
    pairs the direction is ``-grads``.
    """
    q = grads
    coefficients = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.vdot(s, q).real)
        q = q - a * y
        coefficients.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        q = q / (rho * float(np.vdot(y, y).real))
    for (s, y, rho), a in zip(pairs, reversed(coefficients)):
        q = q + (a - rho * float(np.vdot(y, q).real)) * s
    return -q


def minimize_action(config: MinimizeConfig) -> MinimizeResult:
    """Run the constrained gradient minimization defined by ``config``."""
    space = config.space()
    box = config.momentum_box()
    grid = config.position_grid()
    momenta = box.grid_points()
    k = len(momenta)
    d = space.dim
    sig = space.signature
    delta = config.smoothing_delta
    rng = np.random.default_rng(config.seed)

    # The restoration fixes the scale of the factors, so none is chosen here.
    Ms = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))

    def restored(Ms_raw: np.ndarray) -> np.ndarray:
        # Case "a" unless its signed trace makes the bound active (or it is
        # impossible); then case "b" pins both constraints.  The restoration
        # A -> D A D acts on the factors as M -> M D.
        t11, t22 = _block_traces(_measure_from_Ms(space, box, momenta, Ms_raw))
        try:
            x, y = _block_scalings(t11, t22, "a", config.c, config.f)
            active = _bound_active(x * (t11 - t22), config.f)
        except RestorationError:
            active = True
        if active:
            x, y = _block_scalings(t11, t22, "b", config.c, config.f)
        return Ms_raw * np.repeat(np.sqrt([x, y]), space.n)[None, None, :]

    def evaluator_for(measure: OperatorMeasure, solved=None) -> QHatEvaluator:
        try:
            return QHatEvaluator(measure, grid, smoothing_delta=delta, _solved=solved)
        except NonsmoothPointError as err:
            if delta == 0.0:
                raise NonsmoothPointError(
                    "the exact Lagrangian is not differentiable at the current "
                    "iterate; rerun with a positive smoothing delta "
                    "(smoothing_delta / --smoothing-delta)",
                    xi=err.xi,
                ) from err
            raise

    def trial(Ms_raw: np.ndarray, to_beat: float):
        """``(Ms, measure, action, evaluator)`` of the restored ``Ms_raw`` if its
        action is below ``to_beat``; None for a rejected trial.  One chain
        eigensolve gives the action and, on acceptance, the gradient field;
        it is counted on the current trace row."""
        try:
            Ms_try = restored(Ms_raw)
        except RestorationError:
            return None
        measure_try = _measure_from_Ms(space, box, momenta, Ms_try)
        trace_log[-1]["trials"] += 1
        action_try, solved = _solved_action(measure_try, grid, delta)
        if not action_try < to_beat:
            return None
        try:
            # A step may land on a nondifferentiable point of the exact
            # Lagrangian; treat that as a rejected trial.
            return Ms_try, measure_try, action_try, evaluator_for(measure_try, solved)
        except NonsmoothPointError:
            return None

    Ms = restored(Ms)
    measure = _measure_from_Ms(space, box, momenta, Ms)
    current_action = action(measure, grid, delta)
    evaluator = evaluator_for(measure)
    trace_log: list = []
    previous = None  # (Ms, G) before the last accepted step
    pairs: list = []  # the last LBFGS_MEMORY curvature pairs (s, y, 1 / Re<s, y>)
    stop_reason = "max_iterations"
    certify_tol = CERTIFY_FRACTION * config.tol_el

    # The pass after the last iteration only builds the final iterate's field.
    for iteration in range(config.max_iterations + 1):
        qhats = evaluator.evaluate_many(momenta)
        mu = pushforward(measure, qhats)
        alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
        if iteration == config.max_iterations:
            break
        shifted, w, _ = _shifted_spectra(qhats, alpha, beta, space)
        grads = 4.0 * (Ms @ shifted) * sig[None, None, :]
        grad_norm = float(np.sqrt(np.sum(np.abs(grads) ** 2)))
        if previous is not None:
            s_k, y_k = Ms - previous[0], grads - previous[1]
            sy = float(np.vdot(s_k, y_k).real)
            if sy > 0:
                pairs = (pairs + [(s_k, y_k, 1.0 / sy)])[-LBFGS_MEMORY:]
        direction = _lbfgs_direction(grads, pairs)
        if pairs and not float(np.vdot(direction, grads).real) < 0:
            pairs, direction = [], -grads
        step = 1.0 if pairs else INITIAL_STEP

        total = measure.total()
        trace_val = float(np.trace(total).real)
        signed_val = float(np.trace(sig[:, None] * total).real)
        trace_log.append(
            {
                "iteration": iteration,
                "action": current_action,
                "trace": trace_val,
                "signed_trace": signed_val,
                "step": step,
                "grad_norm": grad_norm,
                # No escape steps are taken; the key and the escapes column
                # of iterations.csv stay at 0 because perfbench/workloads.py
                # reads both.
                "escapes": 0,
                "trials": 0,
            }
        )

        # The iterate's own report, assembled only once its psd margin
        # could pass.
        if w[:, 0].min() >= -certify_tol:
            report = el_residuals(
                mu, alpha, beta, momenta, qhats, case_tag, tail_magnitude=evaluator.tail_magnitude
            )
            if check_first_order(report, certify_tol)["all"]:
                stop_reason = "certified"
                break

        eta = step
        for _ in range(MAX_BACKTRACKS):
            accepted = trial(Ms + eta * direction, current_action)
            if accepted is not None:
                break
            eta *= BACKTRACK_FACTOR
        if accepted is None:
            stop_reason = "stalled"
            break
        previous = (Ms, grads)
        Ms, measure, current_action, evaluator = accepted

    if stop_reason != "certified":
        # The probes are the atom momenta, so their Qhat stack is the atoms'.
        report = el_residuals(
            mu, alpha, beta, momenta, qhats, case_tag, tail_magnitude=evaluator.tail_magnitude
        )
    final_measure = OperatorMeasure(space, box, momenta, measure.operators)
    return MinimizeResult(
        measure=final_measure,
        report=report,
        trace=trace_log,
        converged=check_first_order(report, config.tol_el)["all"],
        action_value=current_action,
        alpha=alpha,
        beta=beta,
        case_tag=case_tag,
        stop_reason=stop_reason,
    )
