"""Constrained minimization of the discretized action over atomic measures.

Atoms sit at the points of the momentum grid.  The descent runs on the
positive face: ``A_j = diag(B_j, 0)`` with ``B_j = C_j^H C_j`` and n x n
factors ``C_j``, so positivity costs nothing.  Every certified minimizer
measured lies on one positive definite n-plane, and a U(n, n) map takes
that plane to the positive block without changing the action, alpha or
the verdict, so the face is a gauge choice, not a restriction (factoring
at the rank of the solution is the idea of Burer & Monteiro, Math.
Program. 103, 2005).  On the face ``Tr(S total) = Tr(total) < f``: the
signed-trace bound is inactive, beta = 0 (case "a"), and the one scalar
``sqrt(c / sum_j ||C_j||_F^2)`` restores ``Tr(total) = c`` exactly; the
restoration acts as the retraction onto the feasible set.

With ``K(xi) = sum_j e^{i p_j . xi} B_j`` the closed chain is the Hermitian
``diag(H, 0)``, ``H = K K^H``: each line-search trial makes one batched
``eigh`` of ``H`` over the grid's kernel classes, and the n zero
eigenvalues enter the moduli as ``delta``.  An accepted trial builds the
field ``Q_11 = Phi K`` from the same solve, with
``Phi = U diag(g_i s_i / m_i) U^H`` and ``g_i = dL/dm_i`` (at
``delta = 0``, ``s / m = 1`` and ``Phi = 2H - (Tr H / n) 1``), and the
Fourier gradient ``Qhat_11`` at the atoms.  The full-space field of
``diag(B_j, 0)`` is ``diag(Q_11, 0)``: it vanishes off the positive block.
Each step starts from the gradient of the Lagrangian function
``G_j = 4 C_j (Qhat_11(p_j) - alpha)``, ``alpha = sum_j Tr(Qhat_11 B_j) / c``,
whose norm vanishes exactly where the Euler-Lagrange conditions hold on
the support.
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
strictly lowers the action.  What a run never changes (the space, box,
atom momenta, position grid, ``delta``, targets, and the phase tables
built from them) is held once in a private run object, and the loop
passes it bare n x n stacks.
The loop stops at the first iterate whose full-space first-order report
(of ``diag(B_j, 0)`` with ``Qhat = diag(Qhat_11, 0)``, at the multipliers of
:func:`~kreinact.elverify.lagrange_parameters`) passes
:func:`~kreinact.elverify.check_first_order` at ``CERTIFY_FRACTION *
tol_el``, built only once a Frobenius bound on its support residuals and
its psd margin already clear that tolerance.  Whatever ends the loop, the
returned action, multipliers and report are the full space's own: one
:func:`~kreinact.action.action` and one
:class:`~kreinact.action.QHatEvaluator` of the returned 2n x 2n measure,
so ``kreinact verify`` with the run's targets reproduces the report.
Toy seeds 0-7 certify in 4-7 iterations, the n=2 reference in 97.
:func:`restore_constraints` keeps the two-block scaling of any measure,
choosing the case by the rule that also picks the multipliers' case,
:func:`~kreinact.elverify._bound_active`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tolerances
from .action import (
    PositionGrid,
    QHatEvaluator,
    _check_delta,
    _fourier_qhat,
    _lagrangian_values,
    _moduli,
    _modulus_slopes,
    _plus_kernel,
    _SupportTables,
    _tail_magnitude,
    action,
)
from .elverify import ELReport, _bound_active, check_first_order, el_residuals, lagrange_parameters, pushforward
from .errors import RestorationError, ValidationError, _check_count, _check_real, _entries
from .homomeasure import MomentumBox, OperatorMeasure, _check_targets
from .krein import _BOUND_SLACK, SignatureSpace, _hermitize, _squared_frobenius

# Curvature pairs kept by the L-BFGS direction.  With 24 the full-space
# descent of the n=2 reference certified in about 155 iterations, where 8
# took 210-350 (97 on the face); the compact form keeps the cost of a step
# flat in this number.
LBFGS_MEMORY = 24
# First trial step while the L-BFGS memory is empty, and the backtracking
# that shrinks a rejected step.
INITIAL_STEP = 0.05
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
# An iterate stops the loop once its own report passes at this fraction
# of ``tol_el``; the headroom lets the full-space recomputation that is
# returned (and ``kreinact verify``) pass ``tol_el`` too.
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
        # The scalars are checked, not converted, so a configuration file reads back unchanged.
        _check_targets(self.c, self.f)
        _check_delta(self.smoothing_delta, "smoothing_delta")
        _check_real(self.position_radius, "position_radius", 0)
        _check_real(self.tol_el, "tol_el", 0, strict=False)

        def count(name, value, least=1):
            return _check_count(value, least, f"{name} must be an integer >= {least}, got {value!r}")

        for name, least in (("n", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, count(name, getattr(self, name), least))
        for name, value in (("momentum_shape", self.momentum_shape), ("position_shape", self.position_shape)):
            shape = _entries(value, 4, f"{name} must be four counts, got {value!r}")
            object.__setattr__(self, name, tuple(count(f"each {name} entry", k) for k in shape))
        box = self.momentum_box()
        object.__setattr__(self, "box_lower", box.lower)
        object.__setattr__(self, "box_upper", box.upper)

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

    The measure is the last iterate of the loop, ``diag(B_j, 0)`` as
    logged, with no further restoration; the report, multipliers and action
    are the full space's own of that measure.
    ``converged`` is whether that report passes :func:`check_first_order`
    at the configured ``tol_el``, so a ``"certified"`` stop is converged.
    ``stop_reason`` says what ended the loop:
    ``"certified"`` (the iterate's own report passed at
    ``CERTIFY_FRACTION * tol_el``), ``"stalled"`` (no line-search trial in
    ``MAX_BACKTRACKS`` lowered the action) or ``"max_iterations"``.  Each
    ``trace`` row holds the iterate's action, constraint values, first trial
    ``step``, ``grad_norm``, ``escapes`` (always 0) and ``trials``: the
    line-search trials that iteration made, one face ``eigh`` each.
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
    """An iterate on the face as bare n x n stacks: factors ``Cs`` and blocks
    ``B``, the field ``Q_11`` on the grid's representatives and
    ``qs = Qhat_11`` at the atoms, ``Tr B`` of the total, ``alpha``,
    ``Qhat_11 - alpha`` at the atoms and the factor gradients ``G_j``."""

    Cs: np.ndarray
    B: np.ndarray
    q_field: np.ndarray
    qs: np.ndarray
    trace: float
    alpha: float
    shifted: np.ndarray
    grads: np.ndarray


class _FixedSupport:
    """What a minimization run fixes, and the objective on its face factor stacks.

    A run moves the factors, never the space, box, atom momenta, position
    grid, ``delta`` or targets; the support tables and the Fourier phases
    at the atom momenta are built from those once.  The loop passes bare
    n x n stacks through :meth:`restore`, :meth:`solve`, :meth:`trial` and
    :meth:`state`; public objects are built only for what leaves it.
    """

    def __init__(self, config: MinimizeConfig):
        self.space = config.space()
        self.box = config.momentum_box()
        self.grid = config.position_grid()
        self.momenta = self.box.grid_points()
        self.delta, self.c, self.f = float(config.smoothing_delta), config.c, config.f
        self.support = _SupportTables(self.momenta, self.grid)
        self.phases = self.support.fourier_phases(self.momenta)

    def measure(self, A: np.ndarray) -> OperatorMeasure:
        return OperatorMeasure(self.space, self.box, self.momenta, A, validate=False)

    def embed(self, X: np.ndarray) -> np.ndarray:
        """``diag(X_j, 0)`` for each n x n matrix ``X_j`` of a stack."""
        n = self.space.n
        out = np.zeros((len(X), 2 * n, 2 * n), complex)
        out[:, :n, :n] = X
        return out

    def restore(self, Cs_raw: np.ndarray) -> np.ndarray | None:
        """``Cs_raw`` scaled to ``Tr B = c``; None where no positive scale reaches it,
        as for factors that all vanish or whose squared norm overflows."""
        # Tr(S total) = Tr total = sum_j ||C_j||_F^2 < f, so one scalar reaches Tr = c.
        total = float(_squared_frobenius(Cs_raw).sum())
        if not (total > 0.0 and np.isfinite(total)):
            return None
        return Cs_raw * np.sqrt(self.c / total)

    def solve(self, Cs: np.ndarray):
        """``(action, B, solved)`` of restored factors: one batched ``eigh`` of the
        Hermitian chains ``H = K K^H`` of the kernel classes, ``solved = (K, s, U, m)``."""
        B = Cs.conj().swapaxes(-1, -2) @ Cs
        K = _plus_kernel(B, self.support.kernel_phases)
        s, U = np.linalg.eigh(K @ K.conj().swapaxes(-1, -2))
        # The chain diag(H, 0) adds n zero eigenvalues, of modulus delta.
        m = _moduli(np.concatenate([s, np.zeros_like(s)], axis=1), self.delta)
        return self.support.integral(_lagrangian_values(m)), B, (K, s, U, m)

    def field(self, K, s, U, m) -> np.ndarray:
        """``Q_11 = Phi K`` at the representatives, ``Phi = U diag(g_i s_i / m_i) U^H``
        (``s / m = 1`` at ``delta = 0``, so ``Phi = 2H - (Tr H / n) 1`` there)."""
        n = self.space.n
        weights = _modulus_slopes(m)[:, :n] * (s / m[:, :n] if self.delta else 1.0)
        q_field = (((U * weights[:, None, :]) @ U.conj().swapaxes(-1, -2)) @ K)[self.support.kernel_class]
        fixed = self.support.origin_rows
        q_field[fixed] = _hermitize(q_field[fixed])
        return q_field

    def trial(self, Cs_raw: np.ndarray, to_beat: float, row: dict):
        """``(action, iterate)`` of the restored ``Cs_raw`` if its action is below
        ``to_beat``; None for a rejected trial, also one that cannot be restored.
        Its one ``eigh`` gives the action and, on acceptance, the gradient field;
        it is counted on ``row``."""
        row["trials"] += 1
        Cs = self.restore(Cs_raw)
        if Cs is None:
            return None
        value, B, solved = self.solve(Cs)
        if not value < to_beat:
            return None
        return value, self.state(Cs, B, self.field(*solved))

    def state(self, Cs: np.ndarray, B: np.ndarray, q_field: np.ndarray) -> _Iterate:
        """The iterate of factors ``Cs`` with blocks ``B`` and gradient field ``q_field``."""
        qs = _fourier_qhat(self.phases, q_field, np.ones(self.space.n))
        # Tr(S total) = Tr total < f: case "a", beta = 0 and alpha = sum_j Tr(Qhat_11 B_j) / c.
        alpha = float(np.einsum("jab,jba->", qs, B).real) / self.c
        shifted = qs - alpha * np.eye(self.space.n)
        trace = float(np.trace(B.sum(axis=0)).real)
        return _Iterate(Cs, B, q_field, qs, trace, alpha, shifted, 4.0 * (Cs @ shifted))

    def report(self, it: _Iterate) -> ELReport:
        """The full-space first-order report of ``diag(B_j, 0)`` with ``Qhat = diag(Qhat_11, 0)``,
        its atoms as the probes, at the full space's own multipliers."""
        mu = pushforward(self.measure(self.embed(it.B)), self.embed(it.qs))
        # Within the band of an active bound (c >= f (1 - CONSTRAINT)) these
        # take case "b", as the returned result's do, so the face's case "a"
        # cannot certify a run that the full space refuses.
        alpha, beta, case_tag = lagrange_parameters(mu, self.c, self.f)
        return el_residuals(mu, alpha, beta, self.momenta, mu.qs, case_tag,
                            tail_magnitude=_tail_magnitude(it.q_field, self.grid),
                            _atom_rows=np.arange(len(self.momenta)))



def minimize_action(config: MinimizeConfig) -> MinimizeResult:
    """Run the constrained gradient minimization defined by ``config``."""
    run = _FixedSupport(config)
    space = run.space
    k, d, n = len(run.momenta), space.dim, space.n
    rng = np.random.default_rng(config.seed)

    # The leading n x n blocks of the full-space draw, so each seed keeps its
    # random stream; the restoration fixes the scale, so none is chosen here.
    Cs = run.restore((rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)))[:, :n, :n])
    current_action, B, solved = run.solve(Cs)
    it = run.state(Cs, B, run.field(*solved))
    trace_log: list = []
    previous = None  # real views of (Cs, G) before the last accepted step
    memory = _CurvatureMemory(2 * Cs.size)
    stop_reason = "max_iterations"
    certify_tol = CERTIFY_FRACTION * config.tol_el
    residual_bound = n * certify_tol**2 * (1.0 + _BOUND_SLACK)

    for iteration in range(config.max_iterations):
        g = _real_view(it.grads)
        grad_norm = float(np.sqrt((np.abs(it.grads) ** 2).sum()))
        if previous is not None:
            memory.add(_real_view(it.Cs) - previous[0], g - previous[1])
        direction = memory.direction(g)
        if memory.count and not float(direction @ g) < 0:
            memory.clear()
            direction = -g
        step = 1.0 if memory.count else INITIAL_STEP
        direction = direction.view(complex).reshape(it.Cs.shape)

        row = {
            "iteration": iteration,
            "action": current_action,
            "trace": it.trace,
            # Tr(S total) = Tr total on the face.
            "signed_trace": it.trace,
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
        # support residuals need ||B_j T_j||_F^2 <= n certify_tol^2, since
        # ||X||_F <= sqrt(n) ||X||_2; only then are the shifted spectra
        # computed.  S(Qhat - alpha) = diag(Qhat_11 - alpha, alpha), so the
        # report is built once alpha and the block's psd margin pass too.
        if _squared_frobenius(it.B @ it.shifted).max() <= residual_bound:
            if min(np.linalg.eigvalsh(it.shifted)[:, 0].min(), it.alpha) >= -certify_tol:
                if check_first_order(run.report(it), certify_tol)["all"]:
                    stop_reason = "certified"
                    break

        eta = step
        for _ in range(MAX_BACKTRACKS):
            accepted = run.trial(it.Cs + eta * direction, current_action, row)
            if accepted is not None:
                break
            eta *= BACKTRACK_FACTOR
        if accepted is None:
            stop_reason = "stalled"
            break
        previous = (_real_view(it.Cs), g)
        current_action, it = accepted

    # The returned action, multipliers and report are the full space's own.
    measure = OperatorMeasure(space, run.box, run.momenta, run.embed(it.B))
    evaluator = QHatEvaluator(measure, run.grid, smoothing_delta=run.delta, _support=run.support)
    mu = pushforward(measure, evaluator.evaluate_many(run.momenta))
    alpha, beta, case_tag = lagrange_parameters(mu, config.c, config.f)
    report = el_residuals(mu, alpha, beta, run.momenta, mu.qs, case_tag,
                          tail_magnitude=evaluator.tail_magnitude, _atom_rows=np.arange(k))
    return MinimizeResult(
        measure=measure,
        report=report,
        trace=trace_log,
        converged=check_first_order(report, config.tol_el)["all"],
        action_value=action(measure, run.grid, run.delta, _support=run.support),
        alpha=alpha,
        beta=beta,
        case_tag=case_tag,
        stop_reason=stop_reason,
    )
