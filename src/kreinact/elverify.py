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
report's spectra are batched over the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import InfeasibleProblemError, ValidationError, _check_real, _four_vector
from .homomeasure import (
    OperatorMeasure,
    _check_format,
    _check_targets,
    _read_document,
    _trace_functionals,
    _write_document,
    _write_table,
)
from .krein import (
    SignatureSpace,
    _congruence,
    _hermitian_form,
    _max_spectral_norm,
    _require_symmetric,
    _root,
)

__all__ = [
    "PushforwardMeasure",
    "ELReport",
    "pushforward",
    "lagrange_parameters",
    "el_residuals",
    "support_gap",
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


def _sum_in_atom_order(values: np.ndarray) -> float:
    """Left-to-right sum of per-atom terms.

    ``np.sum`` adds eight or more terms pairwise, which rounds differently;
    a running sum adds them in atom order, to the bit as a loop over the
    atoms would.
    """
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


@dataclass(frozen=True)
class PushforwardMeasure:
    """Atoms ``(q_j, A_j)`` of the measure pushed through the gradient field."""

    space: SignatureSpace
    momenta: np.ndarray
    qs: np.ndarray
    operators: np.ndarray

    def total(self) -> np.ndarray:
        return self.operators.sum(axis=0)

    def trace_pairing(self) -> float:
        """``sum_j Tr(q_j A_j)`` (real for symmetric/positive pairs)."""
        return _sum_in_atom_order((self.qs @ self.operators).trace(axis1=1, axis2=2).real)


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


def _bound_active(signed_trace: float, f: float) -> bool:
    """Whether the signed-trace bound ``Tr(S total) <= f`` counts as active.

    The one case rule of the package: from ``f (1 - CONSTRAINT)`` upward
    the multipliers take case "b" and the minimizer's restoration pins
    ``Tr(S total) = f``; below it both use case "a".
    """
    return signed_trace >= f - tolerances.CONSTRAINT * f


def lagrange_parameters(mu: PushforwardMeasure, c: float, f: float):
    """Multipliers ``(alpha, beta, case_tag)`` from the pushforward atoms.

    The signed trace of the total decides the case (``_bound_active``):
    below the bound the dimension-type constraint is inactive (case "a",
    ``beta = 0``); on it both constraints are active (case "b") and the
    multipliers solve the 2x2 moment system built from ``Tr(q_j A_j)``
    and ``Tr(½{q_j, S} A_j)``.  A trace off ``c`` by more than the band of the
    signed-trace check raises :class:`~kreinact.errors.InfeasibleProblemError`.
    """
    _check_targets(c, f)
    t, v = (float(x.real) for x in _trace_functionals(mu.total(), mu.space))
    if abs(t - c) > tolerances.CONSTRAINT * f:
        raise InfeasibleProblemError(f"trace {t} misses the constraint target c = {c}")
    if v > f + tolerances.CONSTRAINT * f:
        raise InfeasibleProblemError(
            f"signed trace {v} exceeds the constraint bound {f}"
        )
    I1 = mu.trace_pairing()
    if not _bound_active(v, f):
        return I1 / c, 0.0, "a"
    sig = mu.space.signature
    anti = 0.5 * (mu.qs * sig[None, None, :] + sig[None, :, None] * mu.qs)
    I2 = _sum_in_atom_order((anti @ mu.operators).trace(axis1=1, axis2=2).real)
    denom = f * f - c * c
    alpha = (f * I2 - c * I1) / denom
    beta = (f * I1 - c * I2) / denom
    return alpha, beta, "b"


def _shift(qhats: np.ndarray, alpha: float, beta: float, space: SignatureSpace) -> np.ndarray:
    """The shifted field ``T = Qhat - alpha - beta S`` over a stack of ``Qhat``."""
    return qhats - (alpha * np.eye(space.dim) + beta * space.signature_matrix)


def _hermitian_spectra(T: np.ndarray, space: SignatureSpace):
    """``(w, V)``: the batched ``eigh`` of the Hermitian representatives ``S T``, eigenvalues ascending."""
    return np.linalg.eigh(_hermitian_form(T, space.signature))


def _gaps(w: np.ndarray, V: np.ndarray, space: SignatureSpace) -> np.ndarray:
    """Support gap of each operator from the stacked spectra ``(w, V)`` of ``S T``.

    ``g`` is the largest ``lam >= 0`` such that the spectrum of ``T``
    avoids ``(-lam, lam)`` and all spectral points beyond are carried by
    definite eigenspaces of the matching sign.  Those conditions hold for
    some positive ``lam`` only when ``S T`` is psd, in which case the
    spectrum of ``T`` equals the (real) spectrum of
    ``sqrt(S T) S sqrt(S T)`` with the definiteness built in, so ``g`` is
    its smallest absolute eigenvalue.  Operators failing the psd
    condition, or positive ones with nontrivial kernel, have ``g = 0``;
    the congruence is formed only for the operators that pass, by the
    root and congruence of :func:`~kreinact.krein.positive_spectrum`.
    """
    scale = np.maximum(np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])), 1e-300)
    psd = ~(w[:, 0] < -tolerances.PSD * scale)
    gaps = np.zeros(len(psd))
    Y = _congruence(_root(w[psd], V[psd]), space.signature)
    gaps[psd] = np.abs(np.linalg.eigvalsh(Y)).min(axis=1)
    return gaps


def support_gap(qhat, alpha: float, beta: float, space: SignatureSpace) -> float:
    """``g(p)`` of the shifted gradient field ``Qhat(p) - alpha - beta S``, given a symmetric ``Qhat(p)``."""
    qhat = _require_symmetric(qhat, space, "support_gap Qhat")
    T = _shift(qhat[None], alpha, beta, space)
    return float(_gaps(*_hermitian_spectra(T, space), space)[0])


def el_residuals(
    mu: PushforwardMeasure,
    alpha: float,
    beta: float,
    probe_points: np.ndarray,
    probe_qs: np.ndarray,
    case_tag: str,
    tail_magnitude: float | None = None,
    *,
    _atom_rows=None,
) -> ELReport:
    """Assemble the first-order condition report (report-only, no pass/fail).

    The support atoms and their ``Qhat`` come from ``mu``, the pushforward
    that gave the multipliers; ``probe_qs`` stacks ``Qhat`` over the probes.
    Every spectrum is computed once, over one stack of rows: the probes'
    rows, where ``_atom_rows`` indexes the atoms among them
    (``probe_qs[_atom_rows]`` is ``mu.qs`` to the bit), else the probes'
    rows followed by the atoms'.
    """
    space = mu.space
    probe_points = _four_vector(np.atleast_2d(probe_points), "probe points", ndim=2)
    rows = _qhat_stack(probe_qs, len(probe_points), space, "el_residuals probe_qs")
    probes = len(rows)
    if _atom_rows is None:
        rows = np.concatenate([rows, mu.qs])
        _atom_rows = np.arange(probes, len(rows))
    T = _shift(rows, alpha, beta, space)
    w, V = _hermitian_spectra(T, space)
    gaps = _gaps(w, V, space)
    T = T[_atom_rows]
    A = mu.operators
    k = len(A)
    # The spectral norms of the residuals T A and A T and of the atoms, from one stacked SVD.
    norms = np.linalg.svd(np.concatenate([T @ A, A @ T, A]), compute_uv=False)[:, 0]

    return ELReport(
        alpha=float(alpha),
        beta=float(beta),
        case_tag=case_tag,
        probe_points=probe_points,
        probe_margins=w[:probes, 0],
        probe_gaps=gaps[:probes],
        atom_points=mu.momenta.copy(),
        atom_residual_left=norms[:k],
        atom_residual_right=norms[k : 2 * k],
        atom_gaps=gaps[_atom_rows],
        atom_norms=norms[2 * k :],
        qhat_scale=_max_spectral_norm(rows),
        tail_magnitude=tail_magnitude,
    )


def _certify(measure: OperatorMeasure, qhats_at, c: float, f: float, tail_magnitude: float | None) -> ELReport:
    """The first-order report of ``measure`` at the targets ``(c, f)``, for
    ``kreinact verify`` and the minimizer's certificate alike.

    The probes are the box grid and the atoms, each once and ascending: a
    stable sort of the stacked rows keeps the first of equal rows, a grid
    row before an atom.  ``qhats_at(probes)`` stacks ``Qhat`` over them, and
    the atoms' rows of that stack give the pushforward and its multipliers,
    so each spectrum is solved once.  ``tail_magnitude`` is the field's,
    None for a constant one."""
    grid_points = measure.box.grid_points()
    rows = np.vstack([grid_points, measure.momenta])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.concatenate([[True], (rows[1:] != rows[:-1]).any(axis=1)])
    inverse = np.empty(len(rows), int)
    inverse[order] = np.cumsum(first) - 1
    probes = rows[first]
    qhats = qhats_at(probes)
    atom_rows = inverse[len(grid_points):]
    mu = pushforward(measure, qhats[atom_rows])
    alpha, beta, case_tag = lagrange_parameters(mu, c, f)
    return el_residuals(mu, alpha, beta, probes, qhats, case_tag, tail_magnitude=tail_magnitude,
                        _atom_rows=atom_rows)


def beta_sign_check(report: ELReport) -> bool:
    """True iff the dimension-constraint multiplier satisfies ``beta <= 0``."""
    return report.beta <= tolerances.BETA_SIGN


def check_first_order(report: ELReport, tol_el: float = tolerances.EL_RESIDUAL) -> dict:
    """Boolean summary of the report against the absolute tolerance ``tol_el``.

    The tolerance is absolute (the caller sets it to match the scale of the
    problem): minimum probe margin >= -tol_el, support residual norms and
    support gaps <= tol_el, and the minimum of the gap function over the
    probes is attained on the support up to tol_el.  The support is the
    atoms that carry mass: the gap checks skip atoms of norm at most
    ``ZERO_EIGENVALUE`` times the largest, which annihilate any operator.
    """
    tol = _check_real(tol_el, "tol_el (--tol-el)", 0, strict=False)
    margin_ok = bool(report.probe_margins.min(initial=np.inf) >= -tol)
    support_ok = bool(
        max(
            report.atom_residual_left.max(initial=0.0),
            report.atom_residual_right.max(initial=0.0),
        )
        <= tol
    )
    norms = report.atom_norms
    support_gaps = report.atom_gaps[norms > tolerances.ZERO_EIGENVALUE * norms.max(initial=0.0)]
    gap_support_ok = bool(support_gaps.max(initial=0.0) <= tol)
    gap_min = float(report.probe_gaps.min(initial=np.inf))
    gap_attained = len(support_gaps) == 0 or bool(support_gaps.min() <= gap_min + tol)
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

# The report document, stated once: its scalars in document order, each with the
# reader of its value, then per probe and per atom entry each key and its ELReport column.
_SCALARS = {"alpha": float, "beta": float, "case_tag": str, "qhat_scale": float,
            "tail_magnitude": lambda value: None if value is None else float(value)}
_ENTRIES = {
    "probes": {"p": "probe_points", "psd_margin": "probe_margins", "gap": "probe_gaps"},
    "atoms": {"p": "atom_points", "residual_left": "atom_residual_left",
              "residual_right": "atom_residual_right", "gap": "atom_gaps", "norm": "atom_norms"},
}
# Keys a document may omit, and what they read as; reports from before norms were recorded lack "norm".
_DEFAULTS = {"tail_magnitude": None, "probes": [], "atoms": [], "norm": 1.0}


def _entry(doc: dict, key: str):
    return doc.get(key, _DEFAULTS[key]) if key in _DEFAULTS else doc[key]


def report_to_dict(report: ELReport) -> dict:
    doc = {"format": REPORT_FORMAT, "version": REPORT_VERSION}
    doc.update((key, getattr(report, key)) for key in _SCALARS)
    for name, columns in _ENTRIES.items():
        values = [np.asarray(getattr(report, column), float).tolist() for column in columns.values()]
        doc[name] = [dict(zip(columns, entry)) for entry in zip(*values)]
    return doc


def report_from_dict(data: dict) -> ELReport:
    _check_format(data, REPORT_FORMAT, REPORT_VERSION, "report")
    fields = {key: read(_entry(data, key)) for key, read in _SCALARS.items()}
    for name, columns in _ENTRIES.items():
        entries = _entry(data, name)
        for key, column in columns.items():
            values = np.asarray([_entry(entry, key) for entry in entries], float)
            fields[column] = values.reshape(len(entries), 4) if key == "p" else values
    return ELReport(**fields)


def save_report(report: ELReport, path) -> None:
    _write_document(path, report_to_dict(report))


def load_report(path) -> ELReport:
    return _read_document(path, "report", report_from_dict)


def report_to_csv(report: ELReport, path) -> None:
    """CSV of (p, g(p), psd margin) over the probe points."""
    rows = zip(report.probe_points.tolist(), report.probe_gaps.tolist(), report.probe_margins.tolist())
    _write_table(path, ["p0", "p1", "p2", "p3", "gap", "psd_margin"], [[*p, g, m] for p, g, m in rows])
