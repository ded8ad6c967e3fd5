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
``diag(H, 0)``, ``H = K K^H``.  A line-search trial works on the grid's
kernel classes alone, one row each, with no gather: it makes one batched
``eigh`` of ``H`` over them, and the n zero eigenvalues of the chain,
of modulus ``delta``, enter the Lagrangian and its slopes in closed form
(:func:`~kreinact.action._lagrangian`).  The action is one dot product of the
classes' Lagrangians with their summed weights.  An accepted trial builds
the field ``Q_11 = Phi K`` of each class from the same solve, with
``Phi = U diag(g_i s_i / m_i) U^H`` and ``g_i = dL/dm_i`` (at
``delta = 0``, ``s / m = 1`` and ``Phi = 2H - (Tr H / n) 1``), and the
Fourier gradient ``Qhat_11`` at the atoms as one phase sum over the
classes, with Fourier phases summed over each class's representatives
once per run.  The full-space field of ``diag(B_j, 0)`` is ``diag(Q_11, 0)``: it
vanishes off the positive block.
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
safeguarded by monotone backtracking.  Trials are compared at the exact
trace: the restored ``sum_j Tr B_j`` misses c by rounding, and
``dS/dTr = 2 alpha`` at every iterate, so a trial counts as
``S(B) - 2 alpha (sum_j Tr B_j - c)``, with the current iterate's alpha
and the deviation summed exactly.  It is accepted if that is at most
the current value: a strict test on the raw action stalled seeds whose
last step gained less than the action's rounding.  The trace logs the
compared value as each iterate's action, so it never rises.  What a
run never changes (the space, box, atom momenta, position grid,
``delta``, targets, and the phase tables built from them) is held once
in a private run object, and the loop passes it bare n x n stacks.
The loop stops at the first iterate whose certificate passes
:func:`~kreinact.elverify.check_first_order` at ``CERTIFY_FRACTION *
tol_el``: the validated 2n x 2n measure ``diag(B_j, 0)``, one
:class:`~kreinact.action.QHatEvaluator` of it and the first-order report
that ``elverify._certify`` builds at the run's targets, as for ``kreinact
verify``, built only once a Frobenius bound on its support residuals and
its psd margin already clear that tolerance.  A certified run returns
that certificate; whatever else ends the loop, one is built for the last
iterate.  With one :func:`~kreinact.action.action` of the measure it is
the result, so ``kreinact verify`` with the run's targets reproduces the
report.
Targets in the band of an active signed-trace bound are refused: there
case "b" gives ``beta = alpha > 0`` on the face, which fails every report.
Toy seeds 0-7 certify in 4-7 iterations, the n=2 reference in 97.
:func:`restore_constraints` keeps the two-block scaling of any measure,
in the case its caller passes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import elverify, tolerances
from .action import (
    PositionGrid,
    QHatEvaluator,
    _check_delta,
    _lagrangian,
    _moduli,
    _phase_sum,
    _SupportTables,
    action,
)
from .elverify import ELReport, _bound_active, _certify, check_first_order
from .errors import RestorationError, ValidationError, _check_count, _check_real, _entries
from .homomeasure import MomentumBox, OperatorMeasure, _check_targets
from .krein import _BOUND_SLACK, SignatureSpace, _squared_frobenius

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
# A run stops once its iterate's certificate passes at this fraction of
# ``tol_el``.  That certificate is returned, so no second report needs the
# headroom; it stays for reports of the measure that round differently
# (``kreinact verify`` with other BLAS or probes) and fixes where runs stop.
CERTIFY_FRACTION = 0.5

# Not called here: perfbench/tracing.py wraps these names as this module binds
# them, until ROADMAP item 1 spans them in kreinact.elverify.
pushforward = elverify.pushforward
lagrange_parameters = elverify.lagrange_parameters
el_residuals = elverify.el_residuals

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
        # The face holds Tr(S total) = Tr total = c, so in the band the multipliers
        # take case "b", whose beta = alpha > 0 fails the report of every face measure.
        if _bound_active(self.c, self.f):
            raise ValidationError(
                f"c={self.c} lies in the active-bound band c >= f (1 - {tolerances.CONSTRAINT:g}) "
                f"of f={self.f}, where no run on the positive face can certify"
            )
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

def restore_constraints(measure: OperatorMeasure, case: str, c: float, f: float) -> OperatorMeasure:
    """Rescale the signature blocks so the constraint targets hold exactly.

    Case "a" rescales uniformly to ``Tr = c``; case "b" solves the 2x2
    linear system in the squared block scalings so that ``Tr = c`` and
    ``Tr(S .) = f`` hold simultaneously.  The congruence ``A -> D A D``
    preserves positivity; targets unreachable by positive scalings raise
    :class:`~kreinact.errors.RestorationError`.
    """
    _check_targets(c, f)
    n, total = measure.space.n, measure.total()
    t11, t22 = float(total[:n, :n].trace().real), float(total[n:, n:].trace().real)
    tiny = 1e-14 * max(abs(t11), abs(t22), 1.0)
    if case == "a":
        if t11 + t22 <= tiny:
            raise RestorationError(
                "total trace is not positive; uniform rescaling cannot reach the target"
            )
        x = y = c / (t11 + t22)
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
    d = np.repeat(np.sqrt([x, y]), n)
    ops = d[None, :, None] * measure.operators * d[None, None, :]
    return measure.with_operators(ops, validate=False)


@dataclass
class MinimizeResult:
    """Last iterate with its certificate and the iteration trace.

    The measure is the last iterate of the loop, ``diag(B_j, 0)`` as
    logged, with no further restoration, and ``report`` its full-space
    first-order report: for a ``"certified"`` stop the one that stopped
    the loop.  ``alpha``, ``beta`` and ``case_tag`` are the report's, and
    ``action_value`` the full space's action of the measure.
    ``converged`` is whether the report passes :func:`check_first_order`
    at the configured ``tol_el``, so a ``"certified"`` stop is converged.
    ``stop_reason`` says what ended the loop:
    ``"certified"`` (the iterate's certificate passed at
    ``CERTIFY_FRACTION * tol_el``), ``"stalled"`` (no line-search trial in
    ``MAX_BACKTRACKS`` reached the current action, compared at the exact
    trace) or ``"max_iterations"``.  Each ``trace`` row holds the iterate's
    action as the line search compares it, ``S - 2 alpha (Tr - c)`` with the
    trace deviation summed exactly (the returned ``action_value`` is the
    full space's own), constraint values, first trial ``step``,
    ``grad_norm``, ``escapes`` (always 0), ``trials`` (the line-search trials
    that iteration made, one face ``eigh`` each) and the iterate's face
    multiplier ``alpha``, which its trials are compared at.
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
    ``B``, ``Tr B`` of the total, ``alpha``, ``Qhat_11 - alpha`` at the atoms
    and the factor gradients ``G_j``."""

    Cs: np.ndarray
    B: np.ndarray
    trace: float
    alpha: float
    shifted: np.ndarray
    grads: np.ndarray


class _FixedSupport:
    """What a minimization run fixes, and the objective on its face factor stacks.

    A run moves the factors, never the space, box, atom momenta, position
    grid, ``delta`` or targets; the support tables, the Fourier phases at
    the atom momenta summed over each kernel class's representatives, and
    the n x n identity are built from those once.  The loop passes bare
    n x n stacks through :meth:`restore`, :meth:`solve`, :meth:`trial` and
    :meth:`state`, one row per kernel class; public objects are built only
    by :meth:`certificate`.
    """

    def __init__(self, config: MinimizeConfig):
        self.space = config.space()
        self.box = config.momentum_box()
        self.grid = config.position_grid()
        self.momenta = self.box.grid_points()
        self.delta, self.c, self.f = float(config.smoothing_delta), config.c, config.f
        self.support = _SupportTables(self.momenta, self.grid)
        self.eye = np.eye(self.space.n)
        phases = self.support.fourier_phases(self.momenta)
        self.class_phases = np.zeros((len(phases), len(self.support.class_firsts)), complex)
        np.add.at(self.class_phases.T, self.support.kernel_class, phases.T)

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
        total = float(np.vdot(Cs_raw, Cs_raw).real)
        if not (total > 0.0 and math.isfinite(total)):
            return None
        return Cs_raw * math.sqrt(self.c / total)

    def solve(self, Cs: np.ndarray):
        """``(action, B, solved)`` of restored factors: one batched ``eigh`` of the
        Hermitian chains ``H = K K^H`` of the kernel classes, the moduli ``m`` of its
        eigenvalues ``s`` and their Lagrangian with the n zero eigenvalues of ``diag(H, 0)``
        in closed form (:func:`~kreinact.action._lagrangian`); ``solved = (K, s, U, m, slopes)``."""
        B = Cs.conj().swapaxes(-1, -2) @ Cs
        K = _phase_sum(self.support.kernel_phases, B)
        s, U = np.linalg.eigh(K @ K.conj().swapaxes(-1, -2))
        m = _moduli(s, self.delta)
        values, slopes = _lagrangian(m, self.space.n, self.delta)
        return self.support.integral(values), B, (K, s, U, m, slopes)

    def field(self, K, s, U, m, slopes) -> np.ndarray:
        """``Q_11 = Phi K`` of each kernel class, ``Phi = U diag(g_i s_i / m_i) U^H`` with
        the slopes ``g_i`` of :meth:`solve` (``s / m = 1`` at ``delta = 0``, so
        ``Phi = 2H - (Tr H / n) 1`` there).  The origin's row is not Krein symmetrized: its
        Fourier phase is real, so :meth:`state`'s ``half + half^H`` cancels the part that
        symmetrizing removes."""
        weights = slopes * (s / m if self.delta else 1.0)
        return ((U * weights[:, None, :]) @ U.conj().swapaxes(-1, -2)) @ K

    def compared(self, value: float, B: np.ndarray, alpha: float) -> float:
        """The action ``value`` of blocks ``B`` taken back to the exact trace:
        ``value - 2 alpha (sum_j Tr B_j - c)``, the deviation summed exactly."""
        excess = math.fsum([*np.diagonal(B, axis1=1, axis2=2).real.ravel().tolist(), -self.c])
        return value - 2.0 * alpha * excess

    def trial(self, Cs_raw: np.ndarray, to_beat: float, row: dict):
        """``(value, iterate)`` of the restored ``Cs_raw`` if its :meth:`compared`
        action, at the current iterate's ``row["alpha"]``, is at most ``to_beat``;
        None for a rejected trial, also one that cannot be restored.
        Its one ``eigh`` gives the action and, on acceptance, the gradient field;
        it is counted on ``row``."""
        row["trials"] += 1
        Cs = self.restore(Cs_raw)
        if Cs is None:
            return None
        value, B, solved = self.solve(Cs)
        value = self.compared(value, B, row["alpha"])
        if not value <= to_beat:
            return None
        return value, self.state(Cs, B, self.field(*solved))

    def state(self, Cs: np.ndarray, B: np.ndarray, q_field: np.ndarray) -> _Iterate:
        """The iterate of factors ``Cs`` with blocks ``B`` and the kernel classes' field ``q_field``."""
        half = _phase_sum(self.class_phases, q_field)
        qs = half + half.conj().swapaxes(-1, -2)
        # Tr(S total) = Tr total < f: case "a", beta = 0 and alpha = sum_j Tr(Qhat_11 B_j) / c,
        # the pairing of two Hermitian stacks.
        alpha = float(np.vdot(B, qs).real) / self.c
        shifted = qs - alpha * self.eye
        # sum_j Tr B_j = sum_j ||C_j||_F^2.
        trace = float(np.vdot(Cs, Cs).real)
        return _Iterate(Cs, B, trace, alpha, shifted, 4.0 * (Cs @ shifted))

    def certificate(self, B: np.ndarray) -> tuple[OperatorMeasure, ELReport]:
        """The validated measure ``diag(B_j, 0)`` and its full-space first-order report
        from the :class:`~kreinact.action.QHatEvaluator` of the measure on the run's
        tables, by :func:`~kreinact.elverify._certify` as ``kreinact verify`` builds it.
        The atoms are the box grid, so they are the probes."""
        measure = OperatorMeasure(self.space, self.box, self.momenta, self.embed(B))
        evaluator = QHatEvaluator(measure, self.grid, smoothing_delta=self.delta, _support=self.support)
        return measure, _certify(measure, evaluator.evaluate_many, self.c, self.f, evaluator.tail_magnitude)


def minimize_action(config: MinimizeConfig) -> MinimizeResult:
    """Run the constrained gradient minimization defined by ``config``."""
    run = _FixedSupport(config)
    k, d, n = len(run.momenta), run.space.dim, run.space.n
    rng = np.random.default_rng(config.seed)

    # The leading n x n blocks of the full-space draw, so each seed keeps its
    # random stream; the restoration fixes the scale, so none is chosen here.
    Cs = run.restore((rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d)))[:, :n, :n])
    value, B, solved = run.solve(Cs)
    it = run.state(Cs, B, run.field(*solved))
    current_action = run.compared(value, B, it.alpha)
    trace_log: list = []
    previous = None  # real views of (Cs, G) before the last accepted step
    memory = _CurvatureMemory(2 * Cs.size)
    stop_reason = "max_iterations"
    certify_tol = CERTIFY_FRACTION * config.tol_el
    residual_bound = n * certify_tol**2 * (1.0 + _BOUND_SLACK)

    for iteration in range(config.max_iterations):
        g = _real_view(it.grads)
        grad_norm = math.sqrt(g @ g)
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
            "alpha": it.alpha,
        }
        trace_log.append(row)

        # The iterate's certificate, built only once it could pass.  Its
        # support residuals need ||B_j T_j||_F^2 <= n certify_tol^2, since
        # ||X||_F <= sqrt(n) ||X||_2; only then are the shifted spectra
        # computed.  S(Qhat - alpha) = diag(Qhat_11 - alpha, alpha), so the
        # certificate is built once alpha and the block's psd margin pass too.
        if _squared_frobenius(it.B @ it.shifted).max() <= residual_bound:
            if min(np.linalg.eigvalsh(it.shifted)[:, 0].min(), it.alpha) >= -certify_tol:
                measure, report = run.certificate(it.B)
                if check_first_order(report, certify_tol)["all"]:
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

    if stop_reason != "certified":
        measure, report = run.certificate(it.B)
    return MinimizeResult(
        measure=measure,
        report=report,
        trace=trace_log,
        converged=check_first_order(report, config.tol_el)["all"],
        action_value=action(measure, run.grid, run.delta, _support=run.support),
        alpha=report.alpha,
        beta=report.beta,
        case_tag=report.case_tag,
        stop_reason=stop_reason,
    )
