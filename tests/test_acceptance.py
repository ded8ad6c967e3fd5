"""Acceptance suite: ten end-to-end guarantees, each with a printed gate line.

Every test checks one headline behavior of the package at an explicit
tolerance and runtime budget, prints a single line of the form

    acceptance 03 [PASS] solver vs grid search: ...

and asserts the same predicate.  Run with ``pytest -s tests/test_acceptance.py``
to see all ten gate lines.
"""

import math
import time

import numpy as np

import kreinact as ka
from conftest import (
    brute_force,
    make_rng,
    oracle_eigenvalues,
    random_measure_for,
    random_positive,
    random_symmetric,
    unit_momentum_box,
)
from kreinact.cli import main as cli_main

SP1 = ka.SignatureSpace(1)
SP2 = ka.SignatureSpace(2)
ROTATION_Q = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def gate(number: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance {number:02d} [{verdict}] {name}: {detail}")
    return ok


def test_acceptance_01_rotation_closed_form():
    """Rotation coefficient: solve() reproduces the closed form at 1e-10."""
    t0 = time.perf_counter()
    worst = 0.0
    for a in (-0.9, -0.5, 0.0, 0.5, 0.9):
        sol = ka.solve(ka.PointwiseProblem(space=SP1, q=ROTATION_Q, a=a, b=1.0))
        r = math.sqrt(1.0 - a * a)
        expected_A = 0.5 * np.array([[a + 1.0, r], [-r, a - 1.0]], dtype=complex)
        worst = max(
            worst,
            abs(sol.alpha - a / r),
            abs(sol.beta + 1.0 / r),
            float(np.abs(sol.A - expected_A).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert gate(
        1,
        "rotation closed form",
        ok,
        f"max abs deviation {worst:.2e} (tol 1e-10), {elapsed:.3f}s (budget 1s)",
    )


def test_acceptance_02_signature_coefficient_sweep():
    """Signature coefficient: a(alpha) = sign(alpha), beta = 1 - |alpha|, jump at 0."""
    qsig = np.diag(SP1.signature).astype(complex)
    worst = 0.0
    for alpha in np.linspace(-2.0, 2.0, 41):
        alpha = float(alpha)
        if alpha == 0.0:
            continue
        val = ka.a_of_alpha(qsig, SP1, alpha)
        expected_a = 1.0 if alpha > 0 else -1.0
        worst = max(
            worst,
            abs(val.a_min - expected_a),
            abs(val.a_max - expected_a),
            abs(ka.beta_of_alpha(qsig, SP1, alpha) - (1.0 - abs(alpha))),
        )
    at_zero = ka.a_of_alpha(qsig, SP1, 0.0)
    worst = max(
        worst,
        abs(at_zero.a_min + 1.0),
        abs(at_zero.a_max - 1.0),
        abs(ka.beta_of_alpha(qsig, SP1, 0.0) - 1.0),
    )
    ok = worst <= 1e-10 and at_zero.degenerate
    assert gate(
        2,
        "signature coefficient sweep",
        ok,
        f"max abs deviation {worst:.2e} (tol 1e-10), jump interval "
        f"[{at_zero.a_min:+.3f}, {at_zero.a_max:+.3f}] at alpha=0",
    )


def test_acceptance_03_solver_matches_grid_search():
    """200 random interior problems: solve() vs brute_force() within 1e-4."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        rng = make_rng(3000 + seed)
        q = random_symmetric(SP1, rng)
        b = float(rng.uniform(0.2, 3.0))
        a = b * float(rng.uniform(-0.999, 0.999))
        problem = ka.PointwiseProblem(space=SP1, q=q, a=a, b=b)
        sol = ka.solve(problem)
        ref = brute_force(problem, samples=250, refinements=4, seed=seed)
        worst = max(worst, abs(sol.objective - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    assert gate(
        3,
        "solver vs grid search",
        ok,
        f"200 problems, max objective gap {worst:.2e} (tol 1e-4), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_04_a_of_alpha_monotone():
    """a(alpha) nondecreasing on 100 random q per n in {1, 2}, strict off saturation."""
    checked = violations = strict_violations = 0
    for n in (1, 2):
        sp = ka.SignatureSpace(n)
        for seed in range(100):
            rng = make_rng(1000 * n + seed)
            q = random_symmetric(sp, rng)
            radius = float(np.abs(q).sum(axis=1).max()) + 1.0
            alphas = np.linspace(-2.0 * radius, 2.0 * radius, 25)
            vals = [ka.a_of_alpha(q, sp, float(al)) for al in alphas]
            for prev, nxt in zip(vals, vals[1:]):
                checked += 1
                if prev.a_max > nxt.a_min + 1e-12 * max(1.0, abs(prev.a_max)):
                    violations += 1
                if max(abs(prev.a), abs(nxt.a)) < 1.0 - 1e-6 and not (nxt.a > prev.a):
                    strict_violations += 1
    ok = violations == 0 and strict_violations == 0 and checked >= 4800
    assert gate(
        4,
        "a(alpha) monotone",
        ok,
        f"{checked} interval pairs, {violations} violations, "
        f"{strict_violations} strictness violations",
    )


def test_acceptance_05_positive_operator_suite():
    """Spectral laws of positive operators on >= 1000 random instances + fixtures."""
    instances = 0
    worst_imag = 0.0
    label_fail = annihilate_fail = 0
    for n in (1, 2):
        sp = ka.SignatureSpace(n)
        sig = sp.signature
        for seed in range(250):
            rng = make_rng(5000 + 10 * seed + n)

            A = random_positive(sp, rng)
            instances += 1
            lam = oracle_eigenvalues(A)
            scale = max(1.0, float(np.abs(lam).max()))
            worst_imag = max(worst_imag, float(np.abs(lam.imag).max()) / scale)
            for val, _mult, label in ka.classified_spectrum(A, sp):
                if abs(val) > 1e-8 * scale and label != (1 if val > 0 else -1):
                    label_fail += 1

            # Rank-deficient positive K and a neutral rank-one B built from
            # its kernel: the trace pairing vanishes, so the product must too.
            K = random_positive(sp, rng, rank=n)
            instances += 1
            u = np.linalg.eigh(sig[:, None] * K)[1][:, 0]
            w = sig * u
            B = sig[:, None] * np.outer(w, w.conj())
            instances += 1
            try:
                annihilates = ka.product_annihilates(K, B, sp)
            except ka.ValidationError:
                annihilates = False
            prod = float(np.linalg.norm(K @ B, 2))
            bound = 1e-9 * max(1.0, np.linalg.norm(K, 2) * np.linalg.norm(B, 2))
            if not annihilates or prod > bound:
                annihilate_fail += 1
            # Negative control: a generic positive pair has nonzero pairing.
            if ka.product_annihilates(K, A, sp):
                annihilate_fail += 1

    sea = ka.dirac_sea_fixture(
        1.0, [[-math.sqrt(2.0), 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    )
    sea_parts = ka.decompose(sea)
    sea_total = sum(m for _, m in ka.variation_measure(sea))
    sea_stray = max(
        sum(m for _, m in ka.variation_measure(sea_parts.particle)),
        sum(m for _, m in ka.variation_measure(sea_parts.neutral)),
    )
    sea_ok = sea_stray <= 1e-12 * sea_total and sea_total > 0

    nil = ka.massless_fixture([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    nil_parts = ka.decompose(nil)
    nil_total = sum(m for _, m in ka.variation_measure(nil))
    nil_stray = max(
        sum(m for _, m in ka.variation_measure(nil_parts.particle)),
        sum(m for _, m in ka.variation_measure(nil_parts.sea)),
    )
    nil_ok = nil_stray <= 1e-12 * nil_total and nil_total > 0

    ok = (
        instances >= 1000
        and worst_imag <= 1e-9
        and label_fail == 0
        and annihilate_fail == 0
        and sea_ok
        and nil_ok
    )
    assert gate(
        5,
        "positive-operator spectral suite",
        ok,
        f"{instances} instances, max rel imag {worst_imag:.2e}, "
        f"{label_fail} eigenspace label failures, {annihilate_fail} annihilation "
        f"failures, sea stray mass {sea_stray:.2e}, nilpotent stray mass {nil_stray:.2e}",
    )


def test_acceptance_06_modulus_sum_dominated():
    """Eigenvalue-modulus sum <= signed trace on >= 1000 random measures."""
    worst = -np.inf
    count = 0
    for seed in range(500):
        for n in (1, 2):
            sp = ka.SignatureSpace(n)
            rng = make_rng(6000 + 2 * seed + (n - 1))
            measure = random_measure_for(sp, rng, n_atoms=2)
            cv = ka.constraint_values(measure)
            excess = (cv.dim_sum - cv.mod_dim) / max(abs(cv.mod_dim), 1e-300)
            worst = max(worst, excess)
            count += 1
    ok = count >= 1000 and worst <= 1e-9
    assert gate(
        6,
        "modulus sum dominated by signed trace",
        ok,
        f"{count} measures, worst relative excess {worst:.2e} (tol 1e-9)",
    )


def test_acceptance_07_translation_and_scaling():
    """Action is translation invariant (1e-12) and quartic under scaling (1e-10)."""
    grid = ka.PositionGrid.from_box(2.0, (3, 1, 1, 3))
    worst_shift = worst_scale = 0.0
    for seed in range(5):
        rng = make_rng(7000 + seed)
        measure = random_measure_for(SP1, rng, n_atoms=2, shape=(2, 1, 1, 2))
        base = ka.action(measure, grid)
        assert base > 0.0
        shift = rng.uniform(-0.3, 0.3, size=4)
        shifted = ka.action(ka.translate(measure, shift), grid)
        worst_shift = max(worst_shift, abs(shifted - base) / base)
        for lam in (0.5, 2.0):
            scaled = ka.action(ka.scale(measure, lam), grid)
            worst_scale = max(worst_scale, abs(scaled - lam**4 * base) / (lam**4 * base))
    ok = worst_shift <= 1e-12 and worst_scale <= 1e-10
    assert gate(
        7,
        "translation invariance and quartic scaling",
        ok,
        f"worst translation error {worst_shift:.2e} (tol 1e-12), "
        f"worst scaling error {worst_scale:.2e} (tol 1e-10)",
    )


def test_acceptance_08_first_variation_identity():
    """dS/dtau matches 2 sum Tr(Qhat dA) to 1e-5 relative, 50 random directions."""
    t0 = time.perf_counter()
    rng = make_rng(8000)
    box = ka.MomentumBox((-1.0, -0.8, -0.8, -0.8), (1.0, 0.8, 0.8, 0.8), (3, 3, 3, 3))
    measure = ka.random_measure(SP1, box, 81, rng)
    grid = ka.PositionGrid.from_box(2.5, (5, 5, 5, 5))
    base_action = ka.action(measure, grid)
    evaluator = ka.QHatEvaluator(measure, grid)
    qhats = evaluator.evaluate_many(measure.momenta)
    base_ops = np.asarray(measure.operators)

    def action_along(Es):
        def f(tau):
            shifted = measure.with_operators(base_ops + tau * Es, validate=False)
            return ka.action(shifted, grid)

        return f

    worst = 0.0
    h = 1e-5
    for direction in range(50):
        Es = np.stack([random_symmetric(SP1, rng) for _ in range(measure.n_atoms)])
        f = action_along(Es)
        c1 = (f(h) - f(-h)) / (2.0 * h)
        c2 = (f(h / 2.0) - f(-h / 2.0)) / h
        fd = (4.0 * c2 - c1) / 3.0
        predicted = 2.0 * float(np.einsum("jab,jba->", qhats, Es).real)
        denom = max(abs(fd), abs(predicted), 1e-9 * max(1.0, abs(base_action)))
        worst = max(worst, abs(fd - predicted) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 300.0
    assert gate(
        8,
        "first-variation identity",
        ok,
        f"50 directions on a 3^4 momentum / 5^4 position grid, worst relative "
        f"gap {worst:.2e} (tol 1e-5), {elapsed:.1f}s (budget 300s)",
    )


def test_acceptance_09_toy_minimization():
    """The 2-atom toy minimization converges and passes the first-order report."""
    t0 = time.perf_counter()
    config = ka.MinimizeConfig(n=1, c=0.5, f=1.0, seed=0, smoothing_delta=1e-2)
    result = ka.minimize_action(config)
    elapsed = time.perf_counter() - t0

    cv = ka.constraint_values(result.measure)
    feasibility = abs(cv.trace - config.c)
    if result.case_tag == "b":
        feasibility = max(feasibility, abs(cv.mod_dim - config.f))
    else:
        feasibility = max(feasibility, max(0.0, cv.mod_dim - config.f))

    report = result.report
    checks = ka.check_first_order(report, config.tol_el)
    margin = float(report.probe_margins.min())
    residual = max(
        float(report.atom_residual_left.max()),
        float(report.atom_residual_right.max()),
    )
    ok = (
        result.converged
        and feasibility <= 1e-12
        and margin >= -1e-6
        and residual <= 1e-6
        and checks["gap_attained_on_support"]
        and checks["beta_sign"]
        and checks["all"]
        and elapsed < 600.0
    )
    assert gate(
        9,
        "toy minimization end-to-end",
        ok,
        f"converged={result.converged} case={result.case_tag!r} "
        f"action={result.action_value:.6f} feasibility {feasibility:.2e} "
        f"(tol 1e-12), margin {margin:.2e} (>= -1e-6), residual {residual:.2e} "
        f"(<= 1e-6), beta {report.beta:+.2e} (<= 0), {elapsed:.1f}s (budget 600s)",
    )


def test_acceptance_10_stationary_round_trip(tmp_path):
    """Measures built from pointwise solutions pass verification at 1e-10."""
    box = unit_momentum_box((2, 1, 1, 2))
    pts = box.grid_points()
    cases = [
        ("rotation", SP1, ROTATION_Q, 0.3, 1.0),
        ("random-n1", SP1, random_symmetric(SP1, make_rng(101)), 0.45, 1.2),
        ("random-n2", SP2, random_symmetric(SP2, make_rng(102)), 0.35, 1.0),
    ]
    worst_report = 0.0
    worst_recovery = 0.0
    all_rc_zero = True
    for name, sp, q, a, b in cases:
        sol = ka.solve(ka.PointwiseProblem(space=sp, q=q, a=a, b=b))
        measure = ka.OperatorMeasure(sp, box, pts[:2], [sol.A, sol.A])
        mpath = tmp_path / f"{name}-measure.json"
        qpath = tmp_path / f"{name}-q.json"
        rpath = tmp_path / f"{name}-report.json"
        ka.save_measure(measure, mpath)
        ka.save_operator(q, sp, qpath)
        rc = cli_main(
            ["verify", str(mpath), "--q-file", str(qpath), "--out", str(rpath)]
        )
        all_rc_zero = all_rc_zero and rc == 0
        report = ka.load_report(rpath)
        worst_report = max(
            worst_report,
            -float(report.probe_margins.min()),
            float(report.atom_residual_left.max()),
            float(report.atom_residual_right.max()),
            float(report.atom_gaps.max()),
        )
        alpha, beta = ka.lagrange_from_point(q, sol.A, sp, strict=True)
        worst_recovery = max(
            worst_recovery, abs(alpha - sol.alpha), abs(beta - sol.beta)
        )
    ok = all_rc_zero and worst_report <= 1e-10 and worst_recovery <= 1e-9
    assert gate(
        10,
        "stationary measure round trip",
        ok,
        f"3 fixtures, verify rc all zero={all_rc_zero}, worst report residual "
        f"{worst_report:.2e} (tol 1e-10), worst multiplier recovery error "
        f"{worst_recovery:.2e} (tol 1e-9)",
    )
