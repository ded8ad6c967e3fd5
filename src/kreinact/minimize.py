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
The step direction is the L-BFGS direction (Nocedal, Math. Comp. 35,
1980) over the last ``LBFGS_MEMORY`` (24) accepted steps ``s`` and their
gradient changes ``y``, in the real inner product ``Re<., .>`` of the
factor stack, scaled initially by ``Re<s, y> / <y, y>``.  Pairs with
``Re<s, y> <= 0`` are skipped; the memory is cleared whenever the
direction fails to descend.  The pairs are held in the compact form of
Byrd, Nocedal & Schnabel (Math. Program. 63, 1994), updated by one row
and column per accepted pair, so a step costs the same few
matrix-vector products however long the memory is.  The first trial
step is 1 while the memory holds pairs and ``INITIAL_STEP`` otherwise,
safeguarded by monotone backtracking: a trial is accepted only if it
strictly lowers the action.  Each trial makes one chain eigensolve over the position grid;
its eigenvalues and their moduli give the action, and an accepted trial
builds the next gradient field from the same solve.  What a run never
changes (the space, box, atom momenta, position grid, ``delta``,
targets, and the phase tables built from them) is held once in a
private run object, and the loop passes it bare factor and operator
stacks; public objects are built only for the initial iterate, for each
report and for the returned result.
The loop stops at the first iterate whose own first-order report passes
:func:`~kreinact.elverify.check_first_order` at ``CERTIFY_FRACTION *
tol_el`` (built only once a Frobenius bound on its support residuals and
its psd margin already clear that tolerance), and
returns that iterate with that report; whatever else ends the loop, the
last iterate is returned with the report of the field the loop built for
it.  One routine computes the restoration for the loop and for
:func:`restore_constraints`, choosing the case by the rule that also picks
the multipliers' case, :func:`~kreinact.elverify._bound_active`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tolerances
from .action import (
    PositionGrid,
    QHatEvaluator,
    _check_delta,
    _fourier_qhat,
    _gradient_field,
    _solved_action,
    _SupportTables,
    _tail_magnitude,
    action,
)
from .elverify import (
    ELReport,
    PushforwardMeasure,
    _bound_active,
    _hermitian_spectra,
    _shift,
    check_first_order,
    el_residuals,
    lagrange_parameters,
    pushforward,
)
from .errors import NonsmoothPointError, RestorationError, ValidationError, _check_count
from .homomeasure import MomentumBox, OperatorMeasure, _check_targets, _trace_functionals
from .krein import _BOUND_SLACK, SignatureSpace, _squared_frobenius

# Curvature pairs kept by the L-BFGS direction.  With 24 the n=2 reference
# run certifies in about 155 iterations, where 8 took 210-350; the compact
# form keeps the cost of a step flat in this number.
LBFGS_MEMORY = 24
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
        _check_targets(self.c, self.f)
        _check_delta(self.smoothing_delta)
        # Written so that NaN fails every range test.
        if not 0.0 < self.position_radius < math.inf:
            raise ValidationError(
                f"position_radius must be finite and > 0, got {self.position_radius!r}"
            )
        if not 0.0 <= self.tol_el < math.inf:
            raise ValidationError(f"tol_el must be finite and >= 0, got {self.tol_el!r}")
        def count(name, value, least=1):
            return _check_count(value, least, f"{name} must be an integer >= {least}, got {value!r}")

        object.__setattr__(self, "n", count("n", self.n))
        object.__setattr__(self, "max_iterations", count("max_iterations", self.max_iterations))
        object.__setattr__(self, "seed", count("seed", self.seed, 0))
        for name in ("momentum_shape", "position_shape"):
            object.__setattr__(self, name, tuple(count(f"each {name} entry", k) for k in getattr(self, name)))
        object.__setattr__(self, "box_lower", tuple(float(x) for x in self.box_lower))
        object.__setattr__(self, "box_upper", tuple(float(x) for x in self.box_upper))
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

def _restoring_factors(
    total: np.ndarray, n: int, c: float, f: float, case: str | None = None
) -> np.ndarray:
    """Diagonal ``d`` of the congruence ``A -> D A D`` of :func:`restore_constraints`.

    ``case=None`` applies the package's case rule
    (:func:`~kreinact.elverify._bound_active`): "a" unless the signed trace
    after its uniform scaling makes the bound active, or the total trace is
    not positive; "b" otherwise.
    """
    t11, t22 = float(total[:n, :n].trace().real), float(total[n:, n:].trace().real)
    tiny = 1e-14 * max(abs(t11), abs(t22), 1.0)
    u = t11 + t22
    if case is None:
        case = "a" if u > tiny and not _bound_active(c / u * (t11 - t22), f) else "b"
    if case == "a":
        if u <= tiny:
            raise RestorationError(
                "total trace is not positive; uniform rescaling cannot reach the target"
            )
        x = y = c / u
    elif case == "b":
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
    else:
        raise ValidationError(f"unknown restoration case {case!r}")
    return np.repeat(np.sqrt([x, y]), n)


def restore_constraints(measure: OperatorMeasure, case: str, c: float, f: float) -> OperatorMeasure:
    """Rescale the signature blocks so the constraint targets hold exactly.

    Case "a" rescales uniformly to ``Tr = c``; case "b" solves the 2x2
    linear system in the squared block scalings so that ``Tr = c`` and
    ``Tr(S .) = f`` hold simultaneously.  The congruence preserves
    positivity; targets unreachable by positive scalings raise
    :class:`~kreinact.errors.RestorationError`.
    """
    _check_targets(c, f)
    d = _restoring_factors(measure.total(), measure.space.n, c, f, case)
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
    trace: list
    converged: bool
    action_value: float
    alpha: float
    beta: float
    case_tag: str
    stop_reason: str


def _operators_from_Ms(space, Ms) -> np.ndarray:
    return space.signature[None, :, None] * (Ms.conj().transpose(0, 2, 1) @ Ms)


def _real_view(stack: np.ndarray) -> np.ndarray:
    """A complex stack as one real vector, so that ``u @ v = Re<u, v>``."""
    return stack.reshape(-1).view(float)


class _CurvatureMemory:
    """The last ``LBFGS_MEMORY`` accepted curvature pairs in compact form.

    The pairs ``(s_i, y_i)`` are the rows of ``S`` and ``Y``, oldest first,
    as :func:`_real_view` vectors.  With ``R`` the upper triangle of
    ``S Y^T``, ``D`` its diagonal and ``gamma = s . y / y . y`` of the newest
    pair, the inverse-Hessian product of the L-BFGS two-loop recursion over
    the same pairs is (Byrd, Nocedal & Schnabel, Math. Program. 63, 1994)

        H g = gamma g + S^T b - gamma Y^T a,
        a = R^{-1} S g,    b = R^{-T} (D a + gamma (Y Y^T a - Y g)).

    ``R^{-1}`` and ``Y Y^T`` gain one row and column per pair; when the
    oldest pair drops, both keep their trailing blocks (the inverse of a
    triangular matrix's trailing block is the trailing block of its
    inverse).  So a direction costs a few matrix-vector products, however
    many pairs are held, and nothing is rebuilt per call.  The held pairs
    are the rows ``lo:hi`` of tables with room for ``2 LBFGS_MEMORY``: a
    dropped pair only moves ``lo`` on, and the rows move back to the front
    when ``hi`` reaches the end, once every ``LBFGS_MEMORY`` pairs.
    """

    def __init__(self, size: int):
        rows = 2 * LBFGS_MEMORY
        self.S = np.zeros((rows, size))
        self.Y = np.zeros((rows, size))
        self.sy = np.zeros(rows)
        self.R_inv = np.zeros((rows, rows))
        self.YY = np.zeros((rows, rows))
        self.lo = self.hi = 0

    @property
    def count(self) -> int:
        return self.hi - self.lo

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Append the pair ``(s, y)``, dropping the oldest when full; skip it unless ``s . y > 0``."""
        sy = float(s @ y)
        if not sy > 0:
            return
        lo, hi = self.lo, self.hi
        if hi - lo == LBFGS_MEMORY:
            lo += 1
        if hi == len(self.sy):
            m = hi - lo
            for table in (self.S, self.Y, self.sy):
                table[:m] = table[lo:hi]
            for table in (self.R_inv, self.YY):
                table[:m, :m] = table[lo:hi, lo:hi]
            lo, hi = 0, m
        held = slice(lo, hi)
        # New column of R: <s_i, y> for the held pairs, then s . y.
        self.R_inv[held, hi] = (self.R_inv[held, held] @ (self.S[held] @ y)) / -sy
        self.R_inv[hi, held] = 0.0
        self.R_inv[hi, hi] = 1.0 / sy
        self.YY[hi, held] = self.YY[held, hi] = self.Y[held] @ y
        self.YY[hi, hi] = y @ y
        self.S[hi], self.Y[hi], self.sy[hi] = s, y, sy
        self.lo, self.hi = lo, hi + 1

    def clear(self) -> None:
        self.lo = self.hi = 0

    def direction(self, g: np.ndarray) -> np.ndarray:
        """The L-BFGS direction ``-H g``; ``-g`` while the memory is empty."""
        if self.hi == self.lo:
            return -g
        held, last = slice(self.lo, self.hi), self.hi - 1
        S, Y, R_inv = self.S[held], self.Y[held], self.R_inv[held, held]
        gamma = self.sy[last] / self.YY[last, last]
        a = R_inv @ (S @ g)
        b = (self.sy[held] * a + gamma * (self.YY[held, held] @ a - Y @ g)) @ R_inv
        return gamma * (a @ Y - g) - b @ S


class _Iterate(NamedTuple):
    """An iterate as bare arrays: factors ``Ms`` and operators ``A``, the field
    ``Q`` on the grid's representatives and ``qs = Qhat`` at the atoms, the
    total's ``Tr`` and ``Tr(S .)``, the multipliers, ``Qhat - alpha - beta S``
    at the atoms and the factor gradients ``G_j``."""

    Ms: np.ndarray
    A: np.ndarray
    q_field: np.ndarray
    qs: np.ndarray
    trace: float
    signed_trace: float
    alpha: float
    beta: float
    case_tag: str
    shifted: np.ndarray
    grads: np.ndarray


class _FixedSupport:
    """What a minimization run fixes, and the objective on its factor stacks.

    A run moves the factors, never the space, box, atom momenta, position
    grid, ``delta`` or targets; the support tables and the Fourier phases
    at the atom momenta are built from those once.  The loop passes bare
    factor and operator stacks through :meth:`restore`, :meth:`trial` and
    :meth:`state`; public objects are built only for what leaves it.
    """

    def __init__(self, config: MinimizeConfig):
        self.space = config.space()
        self.box = config.momentum_box()
        self.grid = config.position_grid()
        self.momenta = self.box.grid_points()
        self.delta, self.c, self.f = config.smoothing_delta, config.c, config.f
        self.support = _SupportTables.on_grid(self.momenta, self.grid)
        self.phases = self.support.fourier_phases(self.momenta)

    def measure(self, A: np.ndarray) -> OperatorMeasure:
        return OperatorMeasure(self.space, self.box, self.momenta, A, validate=False)

    def restore(self, Ms_raw: np.ndarray) -> np.ndarray:
        # The restoration A -> D A D acts on the factors as M -> M D.
        total = _operators_from_Ms(self.space, Ms_raw).sum(axis=0)
        return Ms_raw * _restoring_factors(total, self.space.n, self.c, self.f)[None, None, :]

    def trial(self, Ms_raw: np.ndarray, to_beat: float, row: dict):
        """``(action, iterate)`` of the restored ``Ms_raw`` if its action is below
        ``to_beat``; None for a rejected trial.  One chain eigensolve gives the
        action and, on acceptance, the gradient field; it is counted on ``row``."""
        try:
            Ms = self.restore(Ms_raw)
        except RestorationError:
            return None
        A = _operators_from_Ms(self.space, Ms)
        row["trials"] += 1
        value, solved = _solved_action(A, self.space.signature, self.support, self.delta)
        if not value < to_beat:
            return None
        try:
            # A step may land on a nondifferentiable point of the exact
            # Lagrangian; treat that as a rejected trial.
            q_field = _gradient_field(A, self.space, self.support, self.delta, solved)
        except NonsmoothPointError:
            return None
        return value, self.state(Ms, A, q_field)

    def state(self, Ms: np.ndarray, A: np.ndarray, q_field: np.ndarray) -> _Iterate:
        """The iterate of factors ``Ms`` with operators ``A`` and gradient field ``q_field``."""
        space = self.space
        qs = _fourier_qhat(self.phases, q_field, space.signature)
        traces = tuple(float(t.real) for t in _trace_functionals(A.sum(axis=0), space))
        # No array of an iterate is written after this, so the pushforward
        # shares them instead of copying as pushforward() does.
        mu = PushforwardMeasure(space, self.momenta, qs, A)
        alpha, beta, case_tag = lagrange_parameters(mu, self.c, self.f, _traces=traces)
        shifted = _shift(qs, alpha, beta, space)
        grads = 4.0 * (Ms @ shifted) * space.signature[None, None, :]
        return _Iterate(Ms, A, q_field, qs, *traces, alpha, beta, case_tag, shifted, grads)

    def report(self, it: _Iterate, spectra=None) -> ELReport:
        """The first-order report of an iterate, its atoms as the probes."""
        mu = pushforward(self.measure(it.A), it.qs)
        return el_residuals(mu, it.alpha, it.beta, self.momenta, mu.qs, it.case_tag,
                            tail_magnitude=_tail_magnitude(it.q_field, self.grid),
                            _atom_rows=np.arange(len(self.momenta)), _spectra=spectra)


def minimize_action(config: MinimizeConfig) -> MinimizeResult:
    """Run the constrained gradient minimization defined by ``config``."""
    run = _FixedSupport(config)
    space = run.space
    k, d = len(run.momenta), space.dim
    rng = np.random.default_rng(config.seed)

    # The restoration fixes the scale of the factors, so none is chosen here.
    Ms = run.restore(rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)))
    A = _operators_from_Ms(space, Ms)
    measure = run.measure(A)
    current_action = action(measure, run.grid, run.delta, _support=run.support)
    evaluator = QHatEvaluator(measure, run.grid, smoothing_delta=run.delta, _support=run.support)
    it = run.state(Ms, A, evaluator.q_field)
    trace_log: list = []
    previous = None  # real views of (Ms, G) before the last accepted step
    memory = _CurvatureMemory(2 * Ms.size)
    stop_reason = "max_iterations"
    certify_tol = CERTIFY_FRACTION * config.tol_el
    residual_bound = d * certify_tol**2 * (1.0 + _BOUND_SLACK)

    for iteration in range(config.max_iterations):
        spectra = None
        g = _real_view(it.grads)
        grad_norm = float(np.sqrt((np.abs(it.grads) ** 2).sum()))
        if previous is not None:
            memory.add(_real_view(it.Ms) - previous[0], g - previous[1])
        direction = memory.direction(g)
        if memory.count and not float(direction @ g) < 0:
            memory.clear()
            direction = -g
        step = 1.0 if memory.count else INITIAL_STEP
        direction = direction.view(complex).reshape(it.Ms.shape)

        row = {
            "iteration": iteration,
            "action": current_action,
            "trace": it.trace,
            "signed_trace": it.signed_trace,
            "step": step,
            "grad_norm": grad_norm,
            # No escape steps are taken; the key and the escapes column
            # of iterations.csv stay at 0 because perfbench/workloads.py
            # reads both.
            "escapes": 0,
            "trials": 0,
        }
        trace_log.append(row)

        # The iterate's own report, assembled only once it could pass.  Its
        # support residuals need ||A_j T_j||_F^2 <= d certify_tol^2, since
        # ||X||_F <= sqrt(d) ||X||_2; only then are the shifted spectra
        # computed, and the report built once the psd margin passes too.
        if _squared_frobenius(it.A @ it.shifted).max() <= residual_bound:
            w, V = _hermitian_spectra(it.shifted, space)
            spectra = (it.shifted, w, V)
            if w[:, 0].min() >= -certify_tol:
                report = run.report(it, spectra)
                if check_first_order(report, certify_tol)["all"]:
                    stop_reason = "certified"
                    break

        eta = step
        for _ in range(MAX_BACKTRACKS):
            accepted = run.trial(it.Ms + eta * direction, current_action, row)
            if accepted is not None:
                break
            eta *= BACKTRACK_FACTOR
        if accepted is None:
            stop_reason = "stalled"
            break
        previous = (_real_view(it.Ms), g)
        current_action, it = accepted
        spectra = None

    if stop_reason != "certified":
        report = run.report(it, spectra)
    return MinimizeResult(
        measure=OperatorMeasure(space, run.box, run.momenta, it.A),
        report=report,
        trace=trace_log,
        converged=check_first_order(report, config.tol_el)["all"],
        action_value=current_action,
        alpha=it.alpha,
        beta=it.beta,
        case_tag=it.case_tag,
        stop_reason=stop_reason,
    )
