"""Independent checks of kreinact's outputs, kept apart from the code they check.

The action is recomputed from explicitly built chains ``P P^*`` with
``scipy.linalg.eigvals`` and the pairwise form of the Lagrangian; margins,
residuals, gaps and multipliers of a first-order report are recomputed with
``scipy.linalg.eigh`` and direct products; measures and reports are read
from their JSON documents with the standard library.  Only ``Qhat`` comes
from the package, and it is checked on its own through the first-variation
identity against the action's derivative, summed point by point from
eigenvalue derivatives of the explicit chains (Richardson central
differences where eigenvalues coincide).

Every check returns a list of problems (empty when it holds), so a caller
can tell which check failed and why.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import scipy.linalg as sla

#: Acceptance 08's tolerance for the first-variation identity.
FIRST_VARIATION_TOL = 1e-5
#: Acceptance 08's difference step, used where a chain's eigenvalues coincide.
FD_STEP = 1e-5
#: Smallest eigenvalue separation, relative to the chain's norm, that is differentiated analytically.
GAP_REL = 1e-6
#: Agreement required between a report's numbers and their recomputation.
REPORT_REL = 1e-8
#: The minimizer's restoration band, relative to ``f``.
CONSTRAINT_BAND = 1e-8
#: Smallest admissible eigenvalue of ``S A`` for a positive atom (relative).
PSD_REL = 1e-10
#: Sign tolerance for ``beta <= 0``.
BETA_SIGN = 1e-9


# ---------------------------------------------------------------------------
# Inputs read without the package
# ---------------------------------------------------------------------------

def read_measure(path):
    """``(n, momenta (k,4), operators (k,2n,2n))`` from a measure document."""
    with open(path) as fh:
        doc = json.load(fh)
    atoms = doc["atoms"]
    d = 2 * int(doc["n"])
    momenta = np.array([a["p"] for a in atoms], float).reshape(len(atoms), 4)
    ops = np.array(
        [np.array(a["A"]["re"], float) + 1j * np.array(a["A"]["im"], float) for a in atoms]
    ).reshape(len(atoms), d, d)
    return int(doc["n"]), momenta, ops


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_iterations(path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def signature(n: int) -> np.ndarray:
    return np.concatenate([np.ones(n), -np.ones(n)])


def trapezoid_grid(radius: float, shape):
    """Points and weights of the trapezoidal grid on ``[-radius, radius]^4``."""
    axes, weights = [], []
    for k in shape:
        if k == 1:
            axes.append(np.zeros(1))
            weights.append(np.array([2.0 * radius]))
            continue
        axes.append(np.linspace(-radius, radius, k))
        w = np.full(k, 2.0 * radius / (k - 1))
        w[[0, -1]] /= 2.0
        weights.append(w)
    points = np.array(np.meshgrid(*axes, indexing="ij")).reshape(4, -1).T
    w = np.prod(np.array(np.meshgrid(*weights, indexing="ij")).reshape(4, -1), axis=0)
    return points, w


# ---------------------------------------------------------------------------
# Action
# ---------------------------------------------------------------------------

def explicit_action(n, momenta, ops, points, weights, delta) -> float:
    """``sum_xi w(xi) (1/4n) sum_ij (m_i - m_j)^2`` from explicit chains."""
    S = np.diag(signature(n))
    total = 0.0
    for xi, w in zip(points, weights):
        P = -np.tensordot(np.exp(1j * (momenta @ xi)), ops, axes=1)
        chain = P @ (S @ P.conj().T @ S)
        m = np.sqrt(np.abs(sla.eigvals(chain)) ** 2 + delta**2)
        total += w * np.sum((m[:, None] - m[None, :]) ** 2) / (4 * n)
    return float(total)


def check_action(value, n, momenta, ops, points, weights, delta, rel=1e-9) -> list:
    reference = explicit_action(n, momenta, ops, points, weights, delta)
    if not abs(value - reference) <= rel * max(abs(reference), 1.0):
        return [f"action {value!r} differs from the explicit-chain action {reference!r}"]
    return []


def random_symmetric_directions(n, k, rng) -> np.ndarray:
    """``k`` Krein-symmetric operators ``S H`` with ``H`` Hermitian."""
    d = 2 * n
    X = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return signature(n)[None, :, None] * (0.5 * (X + X.conj().transpose(0, 2, 1)))


def richardson(f, h) -> float:
    """Richardson-extrapolated central difference of ``f`` at 0."""
    c1 = (f(h) - f(-h)) / (2.0 * h)
    c2 = (f(h / 2.0) - f(-h / 2.0)) / h
    return (4.0 * c2 - c1) / 3.0


def _krein_adjoint(X, sig):
    return sig[..., :, None] * np.swapaxes(X.conj(), -1, -2) * sig[..., None, :]


def _lagrangian(chain, n, delta) -> float:
    m = np.sqrt(np.abs(sla.eigvals(chain)) ** 2 + delta**2)
    return float(np.sum(m**2) - np.sum(m) ** 2 / (2 * n))


def first_variation(n, momenta, ops, points, weights, delta, qhats, directions) -> tuple:
    """Worst relative gap of ``dS/dtau = 2 sum_j Re Tr(Qhat(p_j) E_j)`` over ``directions``.

    The derivative of the action ``S = sum_xi w(xi) L(xi)`` along ``A + tau E``
    is summed point by point from explicitly built chains ``C = P P^*``.
    Where the chain's eigenvalues are apart (by more than ``GAP_REL`` of
    ``|C|``) each eigenvalue moves by ``l^* dC r / l^* r`` with left and right
    eigenvectors from ``scipy.linalg.eig``.  A difference quotient of the
    whole action cannot stand in for this: near a chain whose eigenvalues
    almost collide the action has a branch point, seen as close as 1e-8
    along a random direction, and quotients of any step from 1e-5 down to
    3e-8 then miss the derivative by up to 1e-3, while below that rounding
    in the nearly colliding eigenvalues takes over.  Where the eigenvalues
    coincide (the degenerate chains of a minimizer's iterate) ``L(xi)`` is
    differenced instead, by acceptance 08's Richardson central difference
    with step ``FD_STEP``.  The gap is relative to the larger of the two
    derivatives.  Returns ``(gap, number of grid points differenced)``.
    """
    sig = signature(n)
    phases = np.exp(1j * (points @ momenta.T))
    Ps = -np.tensordot(phases, ops, axes=1)
    P_adj = _krein_adjoint(Ps, sig)
    chains = Ps @ P_adj
    lams, left, right = [], [], []
    apart = np.ones(len(points), bool)
    for x, chain in enumerate(chains):
        lam, vl, vr = sla.eig(chain, left=True, right=True)
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
        apart[x] = gaps.min() > GAP_REL * max(float(sla.norm(chain, 2)), 1e-300)
        lams.append(lam)
        left.append(vl / np.einsum("ai,ai->i", vl.conj(), vr).conj()[None, :])
        right.append(vr)
    lams, left, right = np.array(lams), np.array(left), np.array(right)
    m = np.sqrt(np.abs(lams) ** 2 + delta**2)
    worst = 0.0
    for Es in directions:
        dPs = -np.tensordot(phases, Es, axes=1)
        dchains = dPs @ P_adj + Ps @ _krein_adjoint(dPs, sig)
        dlams = np.einsum("xai,xab,xbi->xi", left.conj(), dchains, right)
        dm = (lams.conj() * dlams).real / m
        dL = 2.0 * np.sum(m * dm, axis=1) - np.sum(m, axis=1) * np.sum(dm, axis=1) / n
        for x in np.nonzero(~apart)[0]:
            dL[x] = richardson(
                lambda tau: _lagrangian((Ps[x] + tau * dPs[x]) @ _krein_adjoint(Ps[x] + tau * dPs[x], sig), n, delta),
                FD_STEP,
            )
        derivative = float(np.dot(weights, dL))
        predicted = 2.0 * float(np.einsum("jab,jba->", qhats, Es).real)
        worst = max(worst, abs(derivative - predicted) / max(abs(derivative), abs(predicted), 1e-12))
    return worst, int(np.count_nonzero(~apart))


def first_variation_holds(gap: float) -> bool:
    return gap <= FIRST_VARIATION_TOL


# ---------------------------------------------------------------------------
# First-order report
# ---------------------------------------------------------------------------

def multipliers(qhats, ops, sig, c, f):
    """``(alpha, beta, case)`` from the moment system of the stationarity condition.

    Pairing ``Qhat - alpha - beta S`` with the atoms and summing gives
    ``I1 = alpha c + beta f`` and ``I2 = alpha f + beta c`` with
    ``I1 = sum Tr(q A)`` and ``I2 = sum Tr(S q A)`` (real part); with the
    signed trace strictly below ``f`` only the first holds, with ``beta = 0``.
    """
    I1 = sum(float(np.trace(q @ A).real) for q, A in zip(qhats, ops))
    signed = float(sum(np.trace(sig[:, None] * A).real for A in ops))
    if signed < f - CONSTRAINT_BAND * f:
        return I1 / c, 0.0, "a"
    I2 = sum(float(np.trace(sig[:, None] * q @ A).real) for q, A in zip(qhats, ops))
    det = f * f - c * c
    return (f * I2 - c * I1) / det, (f * I1 - c * I2) / det, "b"


def _hermitian(X):
    return 0.5 * (X + X.conj().T)


def _gap(T, sig) -> float:
    """Smallest |eigenvalue| of ``sqrt(S T) S sqrt(S T)``; 0 unless ``S T`` is psd."""
    w, V = sla.eigh(_hermitian(sig[:, None] * T))
    if w[0] < -1e-10 * max(abs(w[0]), abs(w[-1]), 1e-300):
        return 0.0
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    return float(np.min(np.abs(sla.eigh(_hermitian(root @ (sig[:, None] * root)), eigvals_only=True))))


def first_order(qhat, probes, momenta, ops, sig, alpha, beta) -> dict:
    """Margins, gaps and annihilation residuals at multipliers ``(alpha, beta)``."""
    shift = alpha * np.eye(len(sig)) + beta * np.diag(sig)
    out = {"probe_margins": [], "probe_gaps": [], "residual_left": [],
           "residual_right": [], "atom_gaps": []}
    for p in probes:
        T = qhat(p) - shift
        out["probe_margins"].append(float(sla.eigh(_hermitian(sig[:, None] * T), eigvals_only=True)[0]))
        out["probe_gaps"].append(_gap(T, sig))
    for p, A in zip(momenta, ops):
        T = qhat(p) - shift
        out["residual_left"].append(float(sla.svdvals(T @ A)[0]))
        out["residual_right"].append(float(sla.svdvals(A @ T)[0]))
        out["atom_gaps"].append(_gap(T, sig))
    return {k: np.array(v) for k, v in out.items()}


def verdict(values: dict, beta: float, tol: float) -> bool:
    """The first-order conditions at absolute tolerance ``tol``."""
    residual = max(values["residual_left"].max(initial=0.0), values["residual_right"].max(initial=0.0))
    return bool(
        values["probe_margins"].min(initial=np.inf) >= -tol
        and residual <= tol
        and values["atom_gaps"].max(initial=0.0) <= tol
        and values["atom_gaps"].min(initial=np.inf) <= values["probe_gaps"].min(initial=np.inf) + tol
        and beta <= BETA_SIGN
    )


def check_report(report: dict, qhat, momenta, ops, sig, c, f) -> tuple:
    """Problems of a report document against its recomputation, and the recomputed values.

    Multipliers come from the moment system, margins and residuals from
    ``Qhat`` and the atoms directly; each is compared with the report.
    """
    problems = []
    qhats = np.array([qhat(p) for p in momenta])
    alpha, beta, case = multipliers(qhats, ops, sig, c, f)
    scale = max(float(report["qhat_scale"]), 1.0)
    if case != report["case_tag"]:
        problems.append(f"case {report['case_tag']!r}, recomputed {case!r}")
    for name, mine in (("alpha", alpha), ("beta", beta)):
        if not abs(report[name] - mine) <= REPORT_REL * scale:
            problems.append(f"{name} {report[name]!r}, recomputed {mine!r}")
    probes = np.array([e["p"] for e in report["probes"]], float).reshape(-1, 4)
    values = first_order(qhat, probes, momenta, ops, sig, report["alpha"], report["beta"])
    reported = {
        "probe_margins": [e["psd_margin"] for e in report["probes"]],
        "probe_gaps": [e["gap"] for e in report["probes"]],
        "residual_left": [e["residual_left"] for e in report["atoms"]],
        "residual_right": [e["residual_right"] for e in report["atoms"]],
        "atom_gaps": [e["gap"] for e in report["atoms"]],
    }
    for name, column in reported.items():
        column = np.asarray(column, float)
        if column.shape != values[name].shape:
            problems.append(f"{name}: {column.shape} entries, recomputed {values[name].shape}")
        elif not np.all(np.abs(column - values[name]) <= REPORT_REL * scale):
            worst = float(np.max(np.abs(column - values[name])))
            problems.append(f"{name} differs from its recomputation by {worst:.3e}")
    return problems, values


# ---------------------------------------------------------------------------
# Properties of a minimizer run
# ---------------------------------------------------------------------------

def check_iterates(rows, c, f) -> list:
    """Logged iterates keep ``Tr = c``, ``Tr(S .) <= f`` and a non-increasing action."""
    problems = []
    band = CONSTRAINT_BAND * f
    for row in rows:
        if abs(row["trace"] - c) > band or row["signed_trace"] > f + band:
            problems.append(f"iterate {int(row['iteration'])} leaves the constraint band")
            break
    actions = [row["action"] for row in rows]
    rises = [i for i in range(1, len(actions)) if actions[i] > actions[i - 1]]
    if rises:
        problems.append(f"logged action increases at iteration {rises[0]}")
    return problems


def check_positive(ops, sig) -> list:
    problems = []
    for j, A in enumerate(ops):
        H = sig[:, None] * A
        scale = max(float(sla.svdvals(A)[0]), 1.0)
        if np.abs(H - H.conj().T).max() > PSD_REL * scale:
            problems.append(f"atom {j}: S A is not Hermitian")
        elif sla.eigh(_hermitian(H), eigvals_only=True)[0] < -PSD_REL * scale:
            problems.append(f"atom {j} is not positive")
    return problems


# ---------------------------------------------------------------------------
# Pointwise solutions
# ---------------------------------------------------------------------------

def check_pointwise(q, A_ref, solution, sig, recovered) -> list:
    """Properties of a pointwise solution for ``a = Tr A_ref``, ``b = Tr(S A_ref)``.

    The solution must be positive and feasible, no worse than the feasible
    ``A_ref``, satisfy its own stationarity conditions, and ``recovered`` (the
    multipliers recovered from the solution alone) must equal its own.
    """
    problems = []
    A = solution.A
    d = len(sig)
    scale = max(float(sla.svdvals(q)[0]), 1.0)
    a = float(np.trace(A_ref).real)
    b = float(np.trace(sig[:, None] * A_ref).real)
    problems += check_positive([A], sig)
    if abs(np.trace(A).real - a) > 1e-9 * max(b, 1.0) or abs(np.trace(sig[:, None] * A).real - b) > 1e-9 * max(b, 1.0):
        problems.append("solution misses the trace targets")
    objective = float(np.trace(q @ A).real)
    if abs(objective - solution.objective) > 1e-9 * scale * max(b, 1.0):
        problems.append(f"objective {solution.objective!r} is not Tr(qA) = {objective!r}")
    if objective > float(np.trace(q @ A_ref).real) + 1e-9 * scale * max(b, 1.0):
        problems.append("solution is worse than the feasible atom it replaces")
    T = q - solution.alpha * np.eye(d) - solution.beta * np.diag(sig)
    if sla.svdvals(A @ T)[0] > 1e-6 * scale * max(b, 1.0):
        problems.append("solution does not annihilate q - alpha - beta S")
    if sla.eigh(_hermitian(sig[:, None] * T), eigvals_only=True)[0] < -1e-8 * scale:
        problems.append("q - alpha - beta S is not positive")
    alpha, beta = recovered
    if abs(alpha - solution.alpha) > 1e-6 * scale or abs(beta - solution.beta) > 1e-6 * scale:
        problems.append(f"recovered multipliers {recovered} differ from ({solution.alpha}, {solution.beta})")
    return problems
