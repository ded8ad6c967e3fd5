"""Shared generators and independent oracles for the test suite.

Oracles here deliberately use different numerical routes than the library
(dense general eigensolvers, bisection on semidefiniteness, partition
enumeration, finite differences, direct search in a factorized
parametrization) so agreement is evidence, not tautology.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest
import scipy.linalg as sla

from kreinact import (
    MomentumBox,
    NonsmoothPointError,
    OperatorMeasure,
    PointwiseProblem,
    SignatureSpace,
    ValidationError,
    constraint_values,
    kernel_P,
    krein_adjoint,
)
from kreinact.action import _lagrangian, _moduli
from kreinact.krein import _adjoint, _hermitize
from kreinact.minimize import _FixedSupport

UNIT_BOX = ((-1.0, -0.5, -0.5, -0.5), (1.0, 0.5, 0.5, 0.5))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


@contextlib.contextmanager
def unprivileged(directory):
    """Run the block as the user ``nobody`` when the tests run as root.

    Root writes to a read-only file regardless of its mode; ``nobody`` is
    refused as any other user is.  The effective user id alone changes, and
    the block should use paths relative to ``directory``, the working
    directory, which is opened to other users for the purpose.
    """
    if os.geteuid() != 0:
        yield
        return
    os.chmod(directory, 0o755)
    try:
        os.seteuid(65534)
    except PermissionError:
        pytest.skip("root that cannot change its user id writes to read-only files")
    try:
        yield
    finally:
        os.seteuid(0)


def random_matrix(space: SignatureSpace, rng: np.random.Generator, scale: float = 1.0):
    d = space.dim
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_symmetric(space: SignatureSpace, rng: np.random.Generator, scale: float = 1.0):
    M = random_matrix(space, rng, scale)
    return 0.5 * (M + krein_adjoint(M, space))


def random_positive(space: SignatureSpace, rng: np.random.Generator, scale: float = 1.0,
                    rank: int | None = None):
    d = space.dim
    r = d if rank is None else rank
    M = scale * (rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d)))
    return space.signature[:, None] * (M.conj().T @ M)


def unit_momentum_box(shape=(2, 1, 1, 1)) -> MomentumBox:
    return MomentumBox(UNIT_BOX[0], UNIT_BOX[1], shape)


def random_measure_for(space: SignatureSpace, rng: np.random.Generator, n_atoms: int = 2,
                       shape=(2, 1, 1, 2), scale: float = 1.0) -> OperatorMeasure:
    box = MomentumBox(UNIT_BOX[0], UNIT_BOX[1], shape)
    pts = box.grid_points()
    idx = rng.choice(len(pts), size=n_atoms, replace=False)
    ops = [random_positive(space, rng, scale) for _ in range(n_atoms)]
    return OperatorMeasure(space, box, pts[np.sort(idx)], ops)


def assert_feasible(measure: OperatorMeasure, c: float, f: float, case_tag: str) -> None:
    """Acceptance 09's feasibility rule for a minimizer's measure.

    ``Tr = c``; the signed trace equals ``f`` in case "b" and is at most
    ``f`` in case "a"; all to 1e-12.
    """
    values = constraint_values(measure)
    assert values.trace == pytest.approx(c, abs=1e-12)
    if case_tag == "b":
        assert values.mod_dim == pytest.approx(f, abs=1e-12)
    else:
        assert values.mod_dim <= f + 1e-12


def fixed_support(config) -> _FixedSupport:
    """The run object of a minimization with ``config``, as ``minimize_action`` builds it."""
    box = config.momentum_box()
    return _FixedSupport(config.space(), box, box.grid_points(), config.position_grid(),
                         config.smoothing_delta, config.c, config.f)


def representative_field(run, q_class: np.ndarray) -> np.ndarray:
    """The field of a minimization run's face at its grid's representatives, gathered
    from the rows ``q_class`` of its kernel classes, the origin's row Krein
    symmetrized as the full space's field is (on the positive block, hermitized)."""
    q_field = q_class[run.support.kernel_class]
    fixed = run.support.origin_rows
    q_field[fixed] = _hermitize(q_field[fixed])
    return q_field


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues via the dense general solver, sorted by (real, imag)."""
    lam = sla.eig(np.asarray(A, dtype=complex))[0]
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


def oracle_positive_eigenvalues(A: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Real sorted spectrum of a positive operator, via the general solver."""
    lam = oracle_eigenvalues(A)
    scale = max(float(np.abs(lam).max(initial=0.0)), 1.0)
    assert np.abs(lam.imag).max(initial=0.0) <= tol * scale
    return np.sort(lam.real)


def _is_psd(H: np.ndarray, tol: float) -> bool:
    w = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
    return bool(w[0] >= -tol)


def oracle_gap_bisection(T: np.ndarray, space: SignatureSpace, iters: int = 200) -> float:
    """Support gap by bisection: largest g with S·T - g·S and S·T + g·S psd.

    Independent of the spectral route used by the library.
    """
    S = np.diag(space.signature).astype(complex)
    That = space.signature[:, None] * np.asarray(T, dtype=complex)
    That = 0.5 * (That + That.conj().T)
    scale = max(float(np.linalg.norm(That, 2)), 1.0)
    tol = 1e-12 * scale
    if not _is_psd(That, tol):
        return 0.0

    def feasible(g: float) -> bool:
        return _is_psd(That - g * S, tol) and _is_psd(That + g * S, tol)

    hi = scale
    while feasible(hi) and hi < 1e6 * scale:
        hi *= 2.0
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# Relative step of the finite-difference gradient kernel, and the relative gap of
# its one-sided derivatives above which it suspects a kink.
FD_STEP = 1e-5
KINK_REL = 0.05


def _fd_gradient(Pp, xi, space: SignatureSpace, delta: float) -> np.ndarray:
    """``Q(xi)`` by finite differences, from one stacked eigensolve.

    ``M = Q(xi)`` satisfies ``dL(-xi) = 2 Re Tr(M dP_+(-xi))``.  The kernel
    ``Pp = P_+(-xi)`` is perturbed along every unit direction ``E_ba`` and
    ``i E_ba`` at the steps ``t h``, ``t`` in (1, -1, 1/2, -1/2, 1/4, -1/4),
    and each directional derivative is the Richardson value ``(4 c2 - c1)/3``
    of the central differences at ``h`` and ``h/2``.  Unequal one-sided
    derivatives at ``h`` suggest a kink; it is confirmed at ``h/4`` before
    raising: a genuine slope jump persists as the step shrinks, while smooth
    high-curvature points (and flat plateaus, where the chain has equal
    moduli and the Lagrangian vanishes identically) see the disagreement
    shrink with it.
    """
    d = space.dim
    norm = float(np.linalg.norm(Pp, 2))
    h = FD_STEP * max(norm, 1.0)
    # Values of L carry eigensolver noise ~ eps_mach * ||chain||; below the
    # corresponding derivative floor a direction is numerically flat.  The
    # floor shrinks with the chain, so small chains keep small derivatives.
    floor = 1e-11 * norm**2 / h
    units = np.eye(d * d).reshape(d * d, d, d)  # units[b*d + a] = E_ba
    directions = np.concatenate([units, 1j * units])
    steps = h * np.array([1.0, 0.5, 0.25])
    t = np.stack([steps, -steps], axis=1).reshape(-1, 1, 1, 1)
    X = np.concatenate([Pp[None], (Pp + t * directions).reshape(-1, d, d)])
    L = _lagrangian(_moduli(np.linalg.eigvals(X @ _adjoint(X, space.signature)), delta))[0]
    f0, f = L[0], L[1:].reshape(3, 2, -1)  # (step, sign, direction)
    fwd = (f[:, 0] - f0) / steps[:, None]
    bwd = (f0 - f[:, 1]) / steps[:, None]
    gap = np.abs(fwd - bwd)
    slope = np.maximum(np.abs(fwd[0]), np.abs(bwd[0]))
    flat = slope <= floor
    if np.any(~flat & (gap[0] > KINK_REL * slope + floor) & (gap[2] > 0.5 * gap[0])):
        raise NonsmoothPointError("one-sided derivatives of the Lagrangian disagree (kink)", xi=xi)
    c1 = (f[0, 0] - f[0, 1]) / (2 * h)
    c2 = (f[1, 0] - f[1, 1]) / h
    deriv = np.where(flat, 0.0, (4.0 * c2 - c1) / 3.0).reshape(2, d, d)
    return 0.5 * (deriv[0] - 1j * deriv[1]).T


def oracle_gradient_field(measure: OperatorMeasure, points, delta: float = 0.0) -> np.ndarray:
    """The gradient kernel ``Q`` at each row of ``points`` by finite differences of the
    chain Lagrangian, independent of the eigenvector route of the package.

    Each point's estimate is averaged with the Krein adjoint of its
    reflection's, as ``Q(xi)^* = Q(-xi)``; the origin takes one.  A confirmed
    kink raises :class:`NonsmoothPointError` carrying the point of the estimate.
    """
    field = []
    for xi in np.atleast_2d(np.asarray(points, float)):
        estimates = [_fd_gradient(-kernel_P(measure, -x), x, measure.space, delta)
                     for x in ((xi, -xi) if xi.any() else (xi,))]
        field.append(0.5 * (estimates[0] + krein_adjoint(estimates[-1], measure.space)))
    return np.array(field)


def central_difference(fn, x0: float, h: float) -> float:
    return (fn(x0 + h) - fn(x0 - h)) / (2.0 * h)


def richardson_derivative(fn, x0: float, h: float) -> float:
    c1 = central_difference(fn, x0, h)
    c2 = central_difference(fn, x0, h / 2.0)
    return (4.0 * c2 - c1) / 3.0


def _project_columns(M: np.ndarray, n: int, a: float, b: float, rng) -> np.ndarray:
    """Scale the two column groups of M so A = S M^H M meets both constraints.

    Column group norms satisfy Tr(A) = s_+ - s_- and Tr(SA) = s_+ + s_-
    with s_± the squared norms of the first/last n columns, so the targets
    pin them to (b+a)/2 and (b-a)/2 exactly.
    """
    M = M.copy()
    targets = (0.5 * (b + a), 0.5 * (b - a))
    for group, target in zip((slice(0, n), slice(n, 2 * n)), targets):
        cur = float(np.sum(np.abs(M[:, group]) ** 2))
        if cur <= 1e-300:
            if target <= 0.0:
                M[:, group] = 0.0
                continue
            fill = rng.standard_normal(M[:, group].shape) + 1j * rng.standard_normal(
                M[:, group].shape
            )
            M[:, group] = fill
            cur = float(np.sum(np.abs(M[:, group]) ** 2))
        M[:, group] *= np.sqrt(max(target, 0.0) / cur)
    return M


def brute_force(
    problem: PointwiseProblem,
    samples: int = 400,
    refinements: int = 6,
    seed: int = 0,
) -> float:
    """Best objective found by random search plus local refinement.

    Works in the parametrization ``A = S M^H M`` (positivity for free) with
    exact constraint projection by column-group scaling, and refines the
    best random starts with a quasi-Newton local search on the projected
    objective.  Serves as an independent cross-check of :func:`solve`.
    """
    space = problem.space
    if space.n > 2:
        raise ValidationError("the brute-force oracle is limited to n <= 2")
    a, b = problem.a, problem.b
    n, d = space.n, space.dim
    if b == 0.0:
        return 0.0
    sig = space.signature
    qS = problem.q * sig[None, :]
    rng = np.random.default_rng(seed)

    def objective_of(M: np.ndarray) -> float:
        return float(np.real(np.trace(qS @ M.conj().T @ M)))

    def unpack(x: np.ndarray) -> np.ndarray:
        half = d * d
        return (x[:half] + 1j * x[half:]).reshape(d, d)

    def pack(M: np.ndarray) -> np.ndarray:
        return np.concatenate([M.real.ravel(), M.imag.ravel()])

    def projected_objective(x: np.ndarray) -> float:
        return objective_of(_project_columns(unpack(x), n, a, b, rng))

    best: list = []
    for _ in range(samples):
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        M = _project_columns(M, n, a, b, rng)
        best.append((objective_of(M), M))
    best.sort(key=lambda pair: pair[0])

    # Imported here, not at module level: only this oracle needs
    # scipy.optimize, so test runs that never call it skip its import time.
    import scipy.optimize

    best_val = best[0][0]
    for _, M0 in best[:refinements]:
        res = scipy.optimize.minimize(
            projected_objective,
            pack(M0),
            method="L-BFGS-B",
            options={"maxiter": 300},
        )
        candidate = objective_of(_project_columns(unpack(res.x), n, a, b, rng))
        best_val = min(best_val, candidate)
    return best_val
