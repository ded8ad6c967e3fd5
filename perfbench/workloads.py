"""The benchmark's three workloads.

Each workload prepares its inputs from the workload seed when constructed
(the set-up), runs one *round* of operations through the package's public
functions (timing only those calls), and checks a round's outputs with
the independent oracles in :mod:`oracles`.  A round is always the same set
of operations, so the share of failed operations is the same in every run.

- ``toy_minimize``: ``kreinact minimize`` then ``kreinact verify`` through
  ``cli.main`` on the n=1 two-atom toy problem, for the fixed panel of
  problem seeds 0-7.  An operation fails when the first-order conditions,
  recomputed here, miss ``tol_el`` (the minimizer stops when its line
  search collapses, not at stationarity).
- ``n2_descent``: ``minimize_action`` on the n=2 reference problem, capped
  past the iteration where the closed-chain spectra become degenerate, then
  ``kreinact verify`` of the capped iterate.  The descent fails when the
  first-variation identity misses acceptance 08's tolerance (the
  finite-difference gradient fallback is inaccurate at degenerate chains).
- ``certify``: ``kreinact verify`` through ``cli.main`` on a random n=2
  measure with 27 atoms on a 1125-point position grid, then the pointwise
  ``solve`` at every atom.  The measure is not stationary, so the "fail"
  verdict is the correct output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics

import numpy as np

import kreinact as ka
import oracles

SMOOTHING = 1e-2
SMOOTHING_ARG = "0.01"
RUN_FILES = ("config.json", "iterations.csv", "measure.json", "report.json", "report.csv", "status.json")


def quiet(fn, *args):
    """Call ``fn`` with its standard output discarded (the CLI prints summaries)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Round:
    """Timings and outputs of one round of a workload.

    ``op_s`` is the round's operation time per problem (a toy round solves
    eight different problems, whose times differ severalfold, so their mean is
    the steady figure); ``verify_s`` holds one entry per verify call;
    ``minimize_s`` the time of each minimizer call through the CLI.
    """

    def __init__(self):
        self.op_s = 0.0
        self.verify_s: list = []
        self.minimize_s: list = []
        self.outputs: list = []
        self.iterations = 0
        self.escapes = 0


class ToyMinimize:
    """``kreinact minimize`` + ``kreinact verify`` on the toy problem, seeds 0-7."""

    name = "toy_minimize"
    panel = tuple(range(8))
    c, f = 0.5, 1.0
    radius, shape = 3.0, (5, 1, 1, 1)
    max_iterations = 2000
    tol_el = 1e-6
    # A verify call takes milliseconds here; repeats spread its samples over the round.
    verify_repeats = 3

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        panel = (0, 3) if smoke else self.panel
        # Consecutive problem seeds from the workload seed, wrapping inside
        # the fixed panel: every round covers the whole panel.
        start = seed % len(panel)
        self.order = panel[start:] + panel[:start]
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.grid = ka.PositionGrid.from_box(self.radius, self.shape)
        self.points, self.weights = oracles.trapezoid_grid(self.radius, self.shape)
        self.common = ["--c", repr(self.c), "--f", repr(self.f), "--smoothing-delta", SMOOTHING_ARG]
        # The converging seeds stop within 1615-1806 iterations; the cap
        # stops the two seeds that cycle through escape steps 2.5 times
        # sooner than the default 5000, and they still fail.
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump({"max_iterations": self.max_iterations}, fh)

    def run_dir(self, problem_seed: int) -> str:
        return os.path.join(self.workdir, f"seed{problem_seed}")

    def minimize_argv(self, problem_seed: int, out: str) -> list:
        return ["minimize", "--config", self.config_path, "--out", out, "--seed", str(problem_seed)] + self.common

    def run_round(self, clock) -> Round:
        rnd = Round()
        for s in self.order:
            out = self.run_dir(s)
            verify_argv = ["verify", os.path.join(out, "measure.json"), *self.common,
                           "--position-radius", repr(self.radius), "--position-grid", "5,1,1,1",
                           "--out", os.path.join(out, "verify.json")]
            rc_min, seconds = clock.time(quiet, ka.main, self.minimize_argv(s, out))
            rnd.minimize_s.append(seconds)
            for _ in range(self.verify_repeats):
                rc_ver, seconds = clock.time(quiet, ka.main, verify_argv)
                rnd.verify_s.append(seconds)
            rnd.outputs.append((s, rc_min, rc_ver))
        rnd.op_s = sum(rnd.minimize_s) / len(rnd.minimize_s)
        return rnd

    def check_round(self, rnd: Round):
        problems, failed = [], 0
        for s, rc_min, rc_ver in rnd.outputs:
            out = self.run_dir(s)
            rows = oracles.read_iterations(os.path.join(out, "iterations.csv"))
            rnd.iterations += len(rows)
            rnd.escapes += int(rows[-1]["escapes"])
            where = f"{self.name} seed {s}"
            n, momenta, ops = oracles.read_measure(os.path.join(out, "measure.json"))
            sig = oracles.signature(n)
            status = oracles.read_json(os.path.join(out, "status.json"))
            found = oracles.check_iterates(rows, self.c, self.f)
            found += oracles.check_positive(ops, sig)
            found += oracles.check_action(status["action"], n, momenta, ops, self.points, self.weights, SMOOTHING)
            measure = ka.load_measure(os.path.join(out, "measure.json"))
            evaluator = ka.QHatEvaluator(measure, self.grid, smoothing_delta=SMOOTHING)
            qhats = np.array([evaluator(p) for p in momenta])
            gap, _ = oracles.first_variation(
                n, momenta, ops, self.points, self.weights, SMOOTHING, qhats,
                [oracles.random_symmetric_directions(n, len(ops), self.rng) for _ in range(10)],
            )
            if not oracles.first_variation_holds(gap):
                found.append(f"first-variation gap {gap:.2e}")
            report_problems, values = oracles.check_report(
                oracles.read_json(os.path.join(out, "report.json")), evaluator, momenta, ops, sig, self.c, self.f)
            found += report_problems
            stationary = oracles.verdict(values, status["beta"], self.tol_el)
            if status["checks"]["all"] != stationary:
                found.append(f"status says checks pass={status['checks']['all']}, recomputed {stationary}")
            if rc_min != (0 if status["converged"] and stationary else 2):
                found.append(f"minimize exit code {rc_min} disagrees with its status")
            verify_problems, _ = oracles.check_report(
                oracles.read_json(os.path.join(out, "verify.json")), evaluator, momenta, ops, sig, self.c, self.f)
            found += verify_problems
            if rc_ver != (0 if stationary else 2):
                found.append(f"verify exit code {rc_ver}, recomputed verdict pass={stationary}")
            problems += [f"{where}: {p}" for p in found]
            failed += not stationary
        return problems, len(rnd.outputs), failed

    def check_run(self, rnd: Round) -> list:
        """Once per run: rerun the fastest panel seed and compare the run directories byte for byte."""
        s = self.order[int(np.argmin(rnd.minimize_s))]
        again = os.path.join(self.workdir, "rerun")
        quiet(ka.main, self.minimize_argv(s, again))
        problems = []
        for name in RUN_FILES:
            with open(os.path.join(self.run_dir(s), name), "rb") as a, open(os.path.join(again, name), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{self.name} seed {s}: {name} differs on rerun")
        return problems


class N2Descent:
    """Capped ``minimize_action`` on the n=2 reference problem, then ``kreinact verify``."""

    name = "n2_descent"
    c, f = 0.5, 1.0
    radius, shape = 3.0, (7, 3, 3, 1)
    cap = 260
    tol_el = 1e-6
    # Two descents per round, each followed by four verify calls, so that
    # the medians come from samples spread over the round.
    descents = 2
    verify_repeats = 4

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.workdir = workdir
        self.config = ka.MinimizeConfig(
            n=2, c=self.c, f=self.f, momentum_shape=(3, 2, 1, 1), position_shape=self.shape,
            position_radius=self.radius, smoothing_delta=SMOOTHING,
            max_iterations=20 if smoke else self.cap,
        )
        self.grid = self.config.position_grid()
        self.points, self.weights = oracles.trapezoid_grid(self.radius, self.shape)
        k = len(self.config.momentum_box().grid_points())
        # Fixed directions: the failing check's inputs do not depend on the seed.
        fixed = np.random.default_rng(self.cap)
        self.directions = [oracles.random_symmetric_directions(2, k, fixed) for _ in range(10)]
        self.measure_path = os.path.join(workdir, "capped.json")
        self.report_path = os.path.join(workdir, "verify.json")

    def run_round(self, clock) -> Round:
        rnd = Round()
        argv = ["verify", self.measure_path, "--c", repr(self.c), "--f", repr(self.f),
                "--smoothing-delta", SMOOTHING_ARG, "--position-radius", repr(self.radius),
                "--position-grid", ",".join(map(str, self.shape)), "--out", self.report_path]
        descent_s, results = [], []
        for _ in range(self.descents):
            result, seconds = clock.time(ka.minimize_action, self.config)
            results.append(result)
            descent_s.append(seconds)
            ka.save_measure(result.measure, self.measure_path)
            for _ in range(self.verify_repeats):
                rc, seconds = clock.time(quiet, ka.main, argv)
                rnd.verify_s.append(seconds)
        rnd.op_s = statistics.median(descent_s)
        rnd.iterations += sum(len(r.trace) for r in results)
        rnd.escapes += sum(int(r.trace[-1]["escapes"]) for r in results)
        rnd.outputs.append((results, rc))
        return rnd

    def check_round(self, rnd: Round):
        problems, failed = [], 0
        for results, rc in rnd.outputs:
            result = results[0]
            found = [
                "repeated descent returned a different measure"
                for again in results[1:]
                if not (np.array_equal(again.measure.operators, result.measure.operators)
                        and again.trace == result.trace)
            ]
            found += oracles.check_iterates(result.trace, self.c, self.f)
            n, momenta, ops = oracles.read_measure(self.measure_path)
            sig = oracles.signature(n)
            if not (np.array_equal(momenta, result.measure.momenta) and np.array_equal(ops, result.measure.operators)):
                found.append("saved measure differs from the returned one")
            found += oracles.check_positive(ops, sig)
            found += oracles.check_action(result.action_value, n, momenta, ops, self.points, self.weights, SMOOTHING)
            evaluator = ka.QHatEvaluator(result.measure, self.grid, smoothing_delta=SMOOTHING)
            qhats = np.array([evaluator(p) for p in momenta])
            own_problems, values = oracles.check_report(
                ka.report_to_dict(result.report), evaluator, momenta, ops, sig, self.c, self.f)
            found += own_problems
            verify_problems, _ = oracles.check_report(
                oracles.read_json(self.report_path), evaluator, momenta, ops, sig, self.c, self.f)
            found += verify_problems
            stationary = oracles.verdict(values, result.beta, self.tol_el)
            if rc != (0 if stationary else 2):
                found.append(f"verify exit code {rc}, recomputed verdict pass={stationary}")
            problems += [f"{self.name}: {p}" for p in found]
            gap, _ = oracles.first_variation(n, momenta, ops, self.points, self.weights, SMOOTHING,
                                             qhats, self.directions)
            # The repeated descents return the same iterate, checked above.
            failed += len(results) * (not oracles.first_variation_holds(gap))
        return problems, self.descents * (1 + self.verify_repeats) * len(rnd.outputs), failed

    def check_run(self, rnd: Round) -> list:
        return []


class Certify:
    """``kreinact verify`` of a random n=2 measure, then pointwise ``solve`` at every atom."""

    name = "certify"
    c, f = 0.5, 1.0
    radius = 2.5
    tol_el = 1e-6

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        atoms, shape = (8, "3,3,1,1") if smoke else (27, "3,3,3,1")
        self.shape = (5, 5, 1, 1) if smoke else (5, 5, 5, 9)
        self.rng = np.random.default_rng(seed)
        self.measure_path = os.path.join(workdir, "measure.json")
        self.report_path = os.path.join(workdir, "report.json")
        quiet(ka.main, ["fixture", "random", "--n", "2", "--atoms", str(atoms), "--grid", shape,
                        "--seed", str(seed), "--out", self.measure_path])
        # A random measure's trace has either sign; rescale the signature
        # blocks (a congruence, so the atoms stay positive) to Tr = c and
        # Tr(S .) = f with 0 < c < f, the targets verify derives from it.
        self.measure = ka.restore_constraints(ka.load_measure(self.measure_path), "b", self.c, self.f)
        ka.save_measure(self.measure, self.measure_path)
        self.grid = ka.PositionGrid.from_box(self.radius, self.shape)
        self.evaluator = ka.QHatEvaluator(self.measure, self.grid, smoothing_delta=SMOOTHING)
        self.qhats = self.evaluator.evaluate_many(self.measure.momenta)
        space = self.measure.space
        self.problems = [
            ka.PointwiseProblem(space=space, q=q, a=float(np.trace(A).real),
                                b=float(np.trace(space.signature[:, None] * A).real))
            for q, A in zip(self.qhats, self.measure.operators)
        ]
        self.argv = ["verify", self.measure_path, "--smoothing-delta", SMOOTHING_ARG,
                     "--position-radius", repr(self.radius), "--position-grid",
                     ",".join(map(str, self.shape)), "--out", self.report_path]
        self.checked = None  # (exit code, report bytes, solutions) of the last round checked in full

    def run_round(self, clock) -> Round:
        rnd = Round()
        rc, verify_s = clock.time(quiet, ka.main, self.argv)
        solutions, solve_s = clock.time(lambda: [ka.solve(problem) for problem in self.problems])
        rnd.op_s = verify_s + solve_s
        rnd.verify_s.append(verify_s)
        with open(self.report_path, "rb") as fh:
            rnd.outputs.append((rc, fh.read(), solutions))
        return rnd

    def check_round(self, rnd: Round):
        problems = []
        for rc, report_bytes, solutions in rnd.outputs:
            if self.checked is not None and self._same_as_checked(report_bytes, solutions):
                continue
            problems += [f"{self.name}: {p}" for p in self._check_outputs(rc, report_bytes, solutions)]
            self.checked = (rc, report_bytes, solutions)
        return problems, len(rnd.outputs) * (1 + len(self.problems)), 0

    def _same_as_checked(self, report_bytes, solutions) -> bool:
        """Outputs identical to those of a round already checked in full."""
        _, ref_bytes, ref_solutions = self.checked
        return report_bytes == ref_bytes and all(
            np.array_equal(s.A, r.A) and s.alpha == r.alpha and s.beta == r.beta and s.objective == r.objective
            for s, r in zip(solutions, ref_solutions)
        )

    def _check_outputs(self, rc, report_bytes, solutions) -> list:
        n, momenta, ops = oracles.read_measure(self.measure_path)
        sig = oracles.signature(n)
        report = json.loads(report_bytes)
        found, values = oracles.check_report(report, self.evaluator, momenta, ops, sig, self.c, self.f)
        stationary = oracles.verdict(values, report["beta"], self.tol_el)
        if rc != (0 if stationary else 2):
            found.append(f"verify exit code {rc}, recomputed verdict pass={stationary}")
        space = self.measure.space
        for j, (q, A, sol) in enumerate(zip(self.qhats, ops, solutions)):
            recovered = ka.lagrange_from_point(q, sol.A, space, strict=True)
            found += [f"atom {j}: {p}" for p in oracles.check_pointwise(q, A, sol, sig, recovered)]
        return found

    def check_run(self, rnd: Round) -> list:
        """Once per run: the action and ``Qhat`` that the verdict rests on."""
        n, momenta, ops = oracles.read_measure(self.measure_path)
        points, weights = oracles.trapezoid_grid(self.radius, self.shape)
        found = oracles.check_action(ka.action(self.measure, self.grid, SMOOTHING), n, momenta, ops,
                                     points, weights, SMOOTHING)
        directions = [oracles.random_symmetric_directions(n, len(ops), self.rng) for _ in range(3)]
        gap, _ = oracles.first_variation(n, momenta, ops, points, weights, SMOOTHING, self.qhats, directions)
        if not oracles.first_variation_holds(gap):
            found.append(f"first-variation gap {gap:.2e}")
        return [f"{self.name}: {p}" for p in found]


WORKLOADS = {w.name: w for w in (ToyMinimize, N2Descent, Certify)}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
