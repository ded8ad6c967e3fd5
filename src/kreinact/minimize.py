"""Constrained minimization of the discretized action over atomic measures.

Atoms sit at the points of the momentum grid and carry operators in the
factorized form ``A_j = S M_j^H M_j``, so positivity costs nothing.  The
optimizer alternates projected gradient steps on the stack ``{M_j}`` with
an exact restoration of the constraints

    Tr(total) = c    (always),
    Tr(S total) <= f (restored to equality when violated),

by scaling the two signature blocks: with ``x, y > 0`` the congruence
``A -> D A D``, ``D = diag(sqrt(x) 1_n, sqrt(y) 1_n)``, moves the block
traces linearly, so the scalings solve the constraint equations in closed
form.  The gradient of the action with respect to ``M_j`` is
``4 M_j Qhat(p_j) S`` with the Fourier gradient field of the (optionally
smoothed) Lagrangian.  A stalled iterate whose shifted field
``Qhat - alpha - beta S`` has a negative psd margin at some grid point is
pushed along the rank-one positive direction built from the offending
eigenvector (an escape step), which strictly decreases the action to first
order while the restoration keeps the iterate feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .action import PositionGrid, QHatEvaluator, action
from .elverify import (
    ELReport,
    _shifted_spectra,
    check_first_order,
    el_residuals,
    lagrange_parameters,
    pushforward,
)
from .errors import NonsmoothPointError, RestorationError, ValidationError
from .homomeasure import MomentumBox, OperatorMeasure
from .krein import SignatureSpace

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
    """Validated configuration of a minimization run."""

    n: int = 1
    box_lower: tuple = (-1.0, -0.5, -0.5, -0.5)
    box_upper: tuple = (1.0, 0.5, 0.5, 0.5)
    momentum_shape: tuple = (2, 1, 1, 1)
    position_radius: float = 3.0
    position_shape: tuple = (5, 1, 1, 1)
    c: float = 1.0
    f: float = 2.0
    smoothing_delta: float = 0.0
    initial_step: float = 0.05
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    max_iterations: int = 5000
    gradient_tol: float = 1e-10
    tol_el: float = tolerances.EL_RESIDUAL
    seed: int = 0
    initial_magnitude: float = 1.0

    def __post_init__(self):
        if int(self.n) < 1:
            raise ValidationError("n must be a positive integer")
        if not (0.0 < self.c < self.f):
            raise ValidationError(
                f"constraint targets must satisfy 0 < c < f, got c={self.c}, f={self.f}"
            )
        if self.smoothing_delta < 0:
            raise ValidationError("smoothing delta must be >= 0")
        if self.initial_step <= 0 or not (0 < self.backtrack_factor < 1):
            raise ValidationError("step parameters out of range")
        if self.max_iterations < 1 or self.max_backtracks < 1:
            raise ValidationError("iteration counts must be >= 1")
        if self.position_radius <= 0:
            raise ValidationError("position box radius must be positive")
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
    return {
        "n": config.n,
        "box_lower": list(config.box_lower),
        "box_upper": list(config.box_upper),
        "momentum_shape": list(config.momentum_shape),
        "position_radius": config.position_radius,
        "position_shape": list(config.position_shape),
        "c": config.c,
        "f": config.f,
        "smoothing_delta": config.smoothing_delta,
        "initial_step": config.initial_step,
        "backtrack_factor": config.backtrack_factor,
        "max_backtracks": config.max_backtracks,
        "max_iterations": config.max_iterations,
        "gradient_tol": config.gradient_tol,
        "tol_el": config.tol_el,
        "seed": config.seed,
        "initial_magnitude": config.initial_magnitude,
    }


def config_from_dict(data: dict) -> MinimizeConfig:
    known = {f.name for f in MinimizeConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("box_lower", "box_upper", "momentum_shape", "position_shape"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return MinimizeConfig(**kwargs)


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
    """Final measure with its first-order report and iteration trace.

    ``converged`` is whether that report passes :func:`check_first_order`
    at the configured ``tol_el``.
    """

    measure: OperatorMeasure
    report: ELReport
    trace: list = field(default_factory=list)
    converged: bool = True
    action_value: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    case_tag: str = "a"


def _measure_from_Ms(space, box, momenta, Ms) -> OperatorMeasure:
    sig = space.signature
    ops = sig[None, :, None] * (Ms.conj().transpose(0, 2, 1) @ Ms)
    return OperatorMeasure(space, box, momenta, ops, validate=False)


def minimize_action(config: MinimizeConfig) -> MinimizeResult:
    """Run the projected-gradient minimization defined by ``config``."""
    space = config.space()
    box = config.momentum_box()
    grid = config.position_grid()
    momenta = box.grid_points()
    k = len(momenta)
    d = space.dim
    sig = space.signature
    delta = config.smoothing_delta
    rng = np.random.default_rng(config.seed)

    Ms = (
        rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    ) * np.sqrt(config.initial_magnitude / d)

    def restored(Ms_raw: np.ndarray) -> np.ndarray:
        # Case "a" unless it overshoots the signed-trace bound (or is
        # impossible); then case "b" pins both constraints.  The restoration
        # A -> D A D acts on the factors as M -> M D.
        t11, t22 = _block_traces(_measure_from_Ms(space, box, momenta, Ms_raw))
        try:
            x, y = _block_scalings(t11, t22, "a", config.c, config.f)
            overshoot = x * (t11 - t22) > config.f * (1.0 + tolerances.CONSTRAINT)
        except RestorationError:
            overshoot = True
        if overshoot:
            x, y = _block_scalings(t11, t22, "b", config.c, config.f)
        return Ms_raw * np.repeat(np.sqrt([x, y]), space.n)[None, None, :]

    def evaluator_for(measure: OperatorMeasure) -> QHatEvaluator:
        try:
            return QHatEvaluator(measure, grid, smoothing_delta=delta)
        except NonsmoothPointError as err:
            if delta == 0.0:
                raise NonsmoothPointError(
                    "the exact Lagrangian is not differentiable at the current "
                    "iterate; rerun with a positive smoothing delta "
                    "(smoothing_delta / --smoothing-delta)",
                    xi=err.xi,
                ) from err
            raise

    Ms = restored(Ms)
    measure = _measure_from_Ms(space, box, momenta, Ms)
    current_action = action(measure, grid, delta)
    evaluator = evaluator_for(measure)
    trace_log: list = []
    step = config.initial_step
    escapes = 0

    for iteration in range(config.max_iterations):
        qhats = evaluator.evaluate_many(momenta)
        grads = 4.0 * (Ms @ qhats) * sig[None, None, :]
        grad_norm = float(np.sqrt(np.sum(np.abs(grads) ** 2)))

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
                "escapes": escapes,
            }
        )

        if grad_norm > config.gradient_tol * max(1.0, abs(current_action)):
            accepted = False
            eta = step
            for _ in range(config.max_backtracks):
                try:
                    Ms_try = restored(Ms - eta * grads)
                except RestorationError:
                    eta *= config.backtrack_factor
                    continue
                measure_try = _measure_from_Ms(space, box, momenta, Ms_try)
                action_try = action(measure_try, grid, delta)
                if action_try < current_action:
                    try:
                        # A step may land on a nondifferentiable point of the
                        # exact Lagrangian; treat that as a rejected trial.
                        evaluator_try = evaluator_for(measure_try)
                    except NonsmoothPointError:
                        eta *= config.backtrack_factor
                        continue
                    Ms, measure, current_action = Ms_try, measure_try, action_try
                    evaluator = evaluator_try
                    step = eta / config.backtrack_factor
                    accepted = True
                    break
                eta *= config.backtrack_factor
            if accepted:
                continue

        # Stationary by gradient norm (or stalled): look for a profitable
        # escape direction where the shifted field fails positivity.
        mu = pushforward(measure, qhats)
        alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
        _, w, V = _shifted_spectra(mu.qs, alpha, beta, space)
        worst_j = int(np.argmin(w[:, 0]))
        worst_margin, worst_vec = float(w[worst_j, 0]), V[worst_j, :, 0]
        # Push the escape phase an order of magnitude inside the reporting
        # tolerance so the final report clears tol_el with headroom.
        if worst_margin >= -0.1 * config.tol_el:
            break  # first-order conditions hold

        improved = False
        base_norm = max(float(np.linalg.norm(measure.operators)), 1.0)
        eps = 0.5 * base_norm / max(k, 1)
        for _ in range(60):
            Ms_try = Ms.copy()
            H = Ms_try[worst_j].conj().T @ Ms_try[worst_j] + eps * np.outer(
                sig * worst_vec, (sig * worst_vec).conj()
            )
            H = 0.5 * (H + H.conj().T)
            w, V = np.linalg.eigh(H)
            Ms_try[worst_j] = (V * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ V.conj().T
            try:
                Ms_try = restored(Ms_try)
            except RestorationError:
                eps *= 0.5
                continue
            measure_try = _measure_from_Ms(space, box, momenta, Ms_try)
            action_try = action(measure_try, grid, delta)
            if action_try < current_action:
                try:
                    evaluator_try = evaluator_for(measure_try)
                except NonsmoothPointError:
                    eps *= 0.5
                    continue
                Ms, measure, current_action = Ms_try, measure_try, action_try
                evaluator = evaluator_try
                improved = True
                escapes += 1
                break
            eps *= 0.5
        if not improved:
            # The field still fails positivity somewhere but no profitable
            # escape step exists at this resolution; the report shows it.
            break

    # Iterates track the constraints only within the restoration band;
    # pin them exactly (matching the active case) before reporting.
    mu = pushforward(measure, evaluator.evaluate_many(momenta))
    _, _, case_tag = lagrange_parameters(mu, config.c, config.f)
    try:
        measure_exact = restore_constraints(measure, case_tag, config.c, config.f)
        evaluator_exact = evaluator_for(measure_exact)
    except (RestorationError, NonsmoothPointError):
        pass
    else:
        measure, evaluator = measure_exact, evaluator_exact
        current_action = action(measure, grid, delta)
        mu = pushforward(measure, evaluator.evaluate_many(momenta))

    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    # The probes are the atom momenta, so their Qhat stack is the atoms'.
    report = el_residuals(
        mu, alpha, beta, momenta, mu.qs, case_tag, tail_magnitude=evaluator.tail_magnitude
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
    )
