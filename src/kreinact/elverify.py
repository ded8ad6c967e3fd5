"""First-order verification: multipliers, residuals, and the support gap.

Given a measure and the Fourier gradient field ``Qhat`` stacked over its
atom momenta, this module pushes the measure forward to atoms
``(Qhat(p_j), A_j)``, extracts the Lagrange parameters ``(alpha, beta)``
from the active constraint case, and assembles from those atoms and a
``Qhat`` stack over the probe points a report of the first-order
conditions:

(i)   ``Qhat(p) - alpha - beta S`` is positive for every probe ``p``
      (psd margin of the Hermitian representative),
(ii)  each support atom annihilates the shifted operator (both products),
(iii) the support gap ``g(p)`` — the largest symmetric spectral interval
      around zero avoided by the shifted operator with definite outer
      eigenspaces — vanishes on the support.

Every function takes ``Qhat`` values, never the field itself, so a caller
evaluates each momentum once (one ``QHatEvaluator.evaluate_many``) and the
report's spectra are batched over the stacks.  The constraint-restoring
first-order coefficients (``kappa``) for block scalings live here as well,
since they produce the multiplier formulas.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import InfeasibleProblemError, ValidationError
from .homomeasure import OperatorMeasure
from .krein import SignatureSpace

__all__ = [
    "PushforwardMeasure",
    "ELReport",
    "pushforward",
    "kappa_coefficients",
    "lagrange_parameters",
    "el_residuals",
    "support_gap",
    "gap_of_operator",
    "beta_sign_check",
    "check_first_order",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "report_to_csv",
]

REPORT_FORMAT = "kreinact-elreport"
REPORT_VERSION = 1


@dataclass(frozen=True)
class PushforwardMeasure:
    """Atoms ``(q_j, A_j)`` of the measure pushed through the gradient field."""

    space: SignatureSpace
    momenta: np.ndarray
    qs: np.ndarray
    operators: np.ndarray

    def total(self) -> np.ndarray:
        if len(self.operators) == 0:
            return np.zeros((self.space.dim, self.space.dim), complex)
        return self.operators.sum(axis=0)

    def trace_pairing(self) -> float:
        """``sum_j Tr(q_j A_j)`` (real for symmetric/positive pairs)."""
        return float(sum(np.trace(q @ A).real for q, A in zip(self.qs, self.operators)))


@dataclass(frozen=True)
class ELReport:
    """First-order condition report at multipliers ``(alpha, beta)``.

    Margins and gaps are tabulated over the probe points; annihilation
    residuals (both product orders, spectral norm) over the support atoms.
    ``qhat_scale`` (sup of ``||Qhat(p)||`` over probes) sets relative
    tolerances; ``tail_magnitude`` reports the gradient-kernel size at the
    position-box boundary when known.
    """

    alpha: float
    beta: float
    case_tag: str
    probe_points: np.ndarray
    probe_margins: np.ndarray
    probe_gaps: np.ndarray
    atom_points: np.ndarray
    atom_residual_left: np.ndarray
    atom_residual_right: np.ndarray
    atom_gaps: np.ndarray
    atom_norms: np.ndarray
    qhat_scale: float
    tail_magnitude: float | None = None


def _qhat_stack(qs, count: int, space: SignatureSpace, what: str) -> np.ndarray:
    """``qs`` as an array, checked to stack one ``Qhat`` per point."""
    qs = np.asarray(qs)
    expected = (count, space.dim, space.dim)
    if qs.shape != expected:
        raise ValidationError(f"{what} must stack one Qhat per point, shape {expected}; got {qs.shape}")
    return qs


def pushforward(measure: OperatorMeasure, qs) -> PushforwardMeasure:
    """Pair each atom with its gradient-field value ``qs[j] = Qhat(p_j)``, in atom order."""
    return PushforwardMeasure(
        space=measure.space,
        momenta=measure.momenta.copy(),
        qs=_qhat_stack(qs, measure.n_atoms, measure.space, "pushforward qs"),
        operators=measure.operators.copy(),
    )


def kappa_coefficients(case: str, direction: np.ndarray, space: SignatureSpace, c: float, f: float):
    """First-order block-scaling rates that keep the constraints preserved.

    For a measure variation with rate operator ``direction`` (the
    derivative of the total operator), scaling the two signature blocks at
    rates ``kappa_1, kappa_2`` cancels the first variation of the trace
    constraint (case "a") or of both trace and signed-trace constraints
    (case "b").  The totals enter only through their constraint values
    ``c`` and ``f``.
    """
    direction = space.check_operator(direction)
    tr = float(np.trace(direction).real)
    trs = float(np.trace(space.signature[:, None] * direction).real)
    if case == "a":
        if c == 0:
            raise ValidationError("case a requires a nonzero trace target")
        kappa = -tr / (2.0 * c)
        return kappa, kappa
    if case == "b":
        if f <= 0 or abs(f) == abs(c):
            raise ValidationError("case b requires 0 < c < f (f != ±c)")
        kappa1 = -(trs + tr) / (2.0 * (f + c))
        kappa2 = -(trs - tr) / (2.0 * (f - c))
        return kappa1, kappa2
    raise ValidationError(f"unknown constraint case {case!r}")


def lagrange_parameters(mu: PushforwardMeasure, c: float, f: float):
    """Multipliers ``(alpha, beta, case_tag)`` from the pushforward atoms.

    The signed trace of the total decides the case: strictly below ``f``
    the dimension-type constraint is inactive (case "a", ``beta = 0``);
    on the boundary both constraints are active (case "b") and the
    multipliers solve the 2x2 moment system built from ``Tr(q_j A_j)``
    and ``Tr(½{q_j, S} A_j)``.
    """
    if not (0 < c < f):
        raise ValidationError(f"constraint targets must satisfy 0 < c < f, got c={c}, f={f}")
    sig = mu.space.signature
    total = mu.total()
    v = float(np.trace(sig[:, None] * total).real)
    band = tolerances.CONSTRAINT * f
    if v > f + band:
        raise InfeasibleProblemError(
            f"signed trace {v} exceeds the constraint bound {f}"
        )
    I1 = mu.trace_pairing()
    if v < f - band:
        return I1 / c, 0.0, "a"
    I2 = 0.0
    for q, A in zip(mu.qs, mu.operators):
        anti = 0.5 * (q * sig[None, :] + sig[:, None] * q)
        I2 += float(np.trace(anti @ A).real)
    denom = f * f - c * c
    alpha = (f * I2 - c * I1) / denom
    beta = (f * I1 - c * I2) / denom
    return alpha, beta, "b"


def _shifted_spectra(qhats: np.ndarray, alpha: float, beta: float, space: SignatureSpace):
    """Shifted field over a stack of ``Qhat`` and its Hermitian spectra.

    Returns ``(T, w, V)``: ``T = Qhat - alpha - beta S`` and the batched
    ``eigh`` of the Hermitian representatives ``S T``, eigenvalues ascending.
    """
    shift = alpha * np.eye(space.dim) + beta * np.diag(space.signature).astype(complex)
    T = qhats - shift
    that = space.signature[None, :, None] * T
    w, V = np.linalg.eigh(0.5 * (that + that.conj().transpose(0, 2, 1)))
    return T, w, V


def _gaps(w: np.ndarray, V: np.ndarray, space: SignatureSpace, psd_tol: float = tolerances.PSD) -> np.ndarray:
    """Support gap of each operator from the stacked spectra ``(w, V)`` of ``S T``."""
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1e-300)
    root = (V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ V.conj().transpose(0, 2, 1)
    Y = root @ (space.signature[None, :, None] * root)
    y = np.linalg.eigvalsh(0.5 * (Y + Y.conj().transpose(0, 2, 1)))
    return np.where(w[:, 0] < -psd_tol * scale, 0.0, np.abs(y).min(axis=1))


def gap_of_operator(T: np.ndarray, space: SignatureSpace, psd_tol: float = tolerances.PSD) -> float:
    """Support gap of a Krein-symmetric operator ``T``.

    ``g`` is the largest ``lam >= 0`` such that the spectrum of ``T``
    avoids ``(-lam, lam)`` and all spectral points beyond are carried by
    definite eigenspaces of the matching sign.  Those conditions hold for
    some positive ``lam`` only when the Hermitian representative
    ``That = S T`` is psd, in which case the spectrum of ``T`` equals the
    (real) spectrum of ``sqrt(That) S sqrt(That)`` with the definiteness
    built in, so ``g`` is its smallest absolute eigenvalue.  Operators
    failing the psd condition — or positive ones with nontrivial kernel —
    have ``g = 0``.
    """
    T = space.check_operator(T)
    _, w, V = _shifted_spectra(T[None], 0.0, 0.0, space)
    return float(_gaps(w, V, space, psd_tol)[0])


def support_gap(qhat, alpha: float, beta: float, space: SignatureSpace) -> float:
    """``g(p)`` of the shifted gradient field ``Qhat(p) - alpha - beta S``, given ``Qhat(p)``."""
    _, w, V = _shifted_spectra(space.check_operator(qhat)[None], alpha, beta, space)
    return float(_gaps(w, V, space)[0])


def el_residuals(
    mu: PushforwardMeasure,
    alpha: float,
    beta: float,
    probe_points: np.ndarray,
    probe_qs: np.ndarray,
    case_tag: str,
    tail_magnitude: float | None = None,
) -> ELReport:
    """Assemble the first-order condition report (report-only, no pass/fail).

    The support atoms and their ``Qhat`` come from ``mu``, the pushforward
    that gave the multipliers; ``probe_qs`` stacks ``Qhat`` over the probes.
    """
    space = mu.space
    probe_points = np.atleast_2d(np.asarray(probe_points, float))
    probe_qs = _qhat_stack(probe_qs, len(probe_points), space, "el_residuals probe_qs")
    qhat_scale = float(
        np.linalg.norm(np.concatenate([probe_qs, mu.qs]), 2, axis=(1, 2)).max(initial=0.0)
    )

    _, w_probe, V_probe = _shifted_spectra(probe_qs, alpha, beta, space)
    T, w_atom, V_atom = _shifted_spectra(mu.qs, alpha, beta, space)
    A = mu.operators

    return ELReport(
        alpha=float(alpha),
        beta=float(beta),
        case_tag=case_tag,
        probe_points=probe_points,
        probe_margins=w_probe[:, 0],
        probe_gaps=_gaps(w_probe, V_probe, space),
        atom_points=mu.momenta.copy(),
        atom_residual_left=np.linalg.norm(T @ A, 2, axis=(1, 2)),
        atom_residual_right=np.linalg.norm(A @ T, 2, axis=(1, 2)),
        atom_gaps=_gaps(w_atom, V_atom, space),
        atom_norms=np.linalg.norm(A, 2, axis=(1, 2)),
        qhat_scale=qhat_scale,
        tail_magnitude=tail_magnitude,
    )


def beta_sign_check(report: ELReport, tol: float = tolerances.BETA_SIGN) -> bool:
    """True iff the dimension-constraint multiplier satisfies ``beta <= 0``."""
    return report.beta <= tol


def check_first_order(report: ELReport, tol_el: float = tolerances.EL_RESIDUAL) -> dict:
    """Boolean summary of the report against the absolute tolerance ``tol_el``.

    The tolerance is absolute (the caller sets it to match the scale of the
    problem): minimum probe margin >= -tol_el, support residual norms and
    support gaps <= tol_el, and the minimum of the gap function over the
    probes is attained on the support up to tol_el.
    """
    tol = float(tol_el)
    margin_ok = bool(report.probe_margins.min(initial=np.inf) >= -tol)
    support_ok = bool(
        max(
            report.atom_residual_left.max(initial=0.0),
            report.atom_residual_right.max(initial=0.0),
        )
        <= tol
    )
    gap_support_ok = bool(report.atom_gaps.max(initial=0.0) <= tol)
    gap_min = float(report.probe_gaps.min(initial=np.inf))
    gap_attained = len(report.atom_gaps) == 0 or bool(
        report.atom_gaps.min(initial=np.inf) <= gap_min + tol
    )
    beta_ok = beta_sign_check(report)
    return {
        "psd_margin": margin_ok,
        "support_residuals": support_ok,
        "support_gap": gap_support_ok,
        "gap_attained_on_support": gap_attained,
        "beta_sign": beta_ok,
        "all": bool(
            margin_ok and support_ok and gap_support_ok and gap_attained and beta_ok
        ),
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _floats(values) -> list:
    return [float(v) for v in np.asarray(values).ravel()]


def report_to_dict(report: ELReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "alpha": report.alpha,
        "beta": report.beta,
        "case_tag": report.case_tag,
        "qhat_scale": report.qhat_scale,
        "tail_magnitude": report.tail_magnitude,
        "probes": [
            {"p": _floats(p), "psd_margin": float(m), "gap": float(g)}
            for p, m, g in zip(report.probe_points, report.probe_margins, report.probe_gaps)
        ],
        "atoms": [
            {
                "p": _floats(p),
                "residual_left": float(left),
                "residual_right": float(right),
                "gap": float(g),
                "norm": float(norm),
            }
            for p, left, right, g, norm in zip(
                report.atom_points,
                report.atom_residual_left,
                report.atom_residual_right,
                report.atom_gaps,
                report.atom_norms,
            )
        ],
    }


def report_from_dict(data: dict) -> ELReport:
    if data.get("format") != REPORT_FORMAT:
        raise ValidationError(f"not a report document: format={data.get('format')!r}")
    if data.get("version") != REPORT_VERSION:
        raise ValidationError(f"unsupported report version {data.get('version')!r}")
    probes = data.get("probes", [])
    atoms = data.get("atoms", [])
    return ELReport(
        alpha=float(data["alpha"]),
        beta=float(data["beta"]),
        case_tag=str(data["case_tag"]),
        probe_points=np.asarray([e["p"] for e in probes], float).reshape(len(probes), 4),
        probe_margins=np.asarray([e["psd_margin"] for e in probes], float),
        probe_gaps=np.asarray([e["gap"] for e in probes], float),
        atom_points=np.asarray([e["p"] for e in atoms], float).reshape(len(atoms), 4),
        atom_residual_left=np.asarray([e["residual_left"] for e in atoms], float),
        atom_residual_right=np.asarray([e["residual_right"] for e in atoms], float),
        atom_gaps=np.asarray([e["gap"] for e in atoms], float),
        atom_norms=np.asarray([e.get("norm", 1.0) for e in atoms], float),
        qhat_scale=float(data["qhat_scale"]),
        tail_magnitude=None
        if data.get("tail_magnitude") is None
        else float(data["tail_magnitude"]),
    )


def save_report(report: ELReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=1)
        fh.write("\n")


def load_report(path) -> ELReport:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValidationError(f"report file {path} is not valid JSON: {err}") from err
    return report_from_dict(data)


def report_to_csv(report: ELReport, path) -> None:
    """CSV of (p, g(p), psd margin) over the probe points."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p0", "p1", "p2", "p3", "gap", "psd_margin"])
        for p, g, m in zip(report.probe_points, report.probe_gaps, report.probe_margins):
            writer.writerow([repr(float(x)) for x in p] + [repr(float(g)), repr(float(m))])
