"""Smoke test of the benchmark: reduced-size runs, and checks that can fail.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kreinact as ka  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def test_benchmark_refuses_a_checkout_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py", "oracles.py"):
        (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check fails on a deliberately corrupted output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A random positive n=1 measure with its verify report and Qhat."""
    out = tmp_path_factory.mktemp("small")
    rng = np.random.default_rng(5)
    box = ka.MomentumBox((-1.0,) * 4, (1.0,) * 4, (3, 1, 1, 1))
    measure = ka.restore_constraints(ka.random_measure(ka.SignatureSpace(1), box, 3, rng), "b", 0.5, 1.0)
    ka.save_measure(measure, out / "m.json")
    workloads.quiet(ka.main, ["verify", str(out / "m.json"), "--smoothing-delta", "0.01",
                              "--position-grid", "5,3,1,1", "--out", str(out / "r.json")])
    grid = ka.PositionGrid.from_box(3.0, (5, 3, 1, 1))
    evaluator = ka.QHatEvaluator(measure, grid, smoothing_delta=workloads.SMOOTHING)
    n, momenta, ops = oracles.read_measure(out / "m.json")
    return {
        "measure": measure, "grid": grid, "evaluator": evaluator, "n": n, "momenta": momenta,
        "ops": ops, "sig": oracles.signature(n), "report": oracles.read_json(out / "r.json"),
        "rng": rng,
    }


def test_corrupted_qhat_fails_the_first_variation_identity(small):
    qhats = np.array([small["evaluator"](p) for p in small["momenta"]])
    directions = [oracles.random_symmetric_directions(1, len(qhats), small["rng"]) for _ in range(3)]
    action = (small["n"], small["momenta"], small["ops"], *oracles.trapezoid_grid(3.0, (5, 3, 1, 1)),
              workloads.SMOOTHING)
    assert oracles.first_variation_holds(oracles.first_variation(*action, qhats, directions)[0])
    corrupted = qhats * (1.0 + 1e-3)
    assert not oracles.first_variation_holds(oracles.first_variation(*action, corrupted, directions)[0])


def test_first_variation_derivative_matches_difference_quotients(small, monkeypatch):
    """The eigenvalue-derivative oracle agrees with differences of the explicit action."""
    qhats = np.array([small["evaluator"](p) for p in small["momenta"]])
    points, weights = oracles.trapezoid_grid(3.0, (5, 3, 1, 1))
    action = (small["n"], small["momenta"], small["ops"], points, weights, workloads.SMOOTHING)
    directions = [oracles.random_symmetric_directions(1, len(qhats), small["rng"]) for _ in range(3)]
    for Es in directions:
        quotient = oracles.richardson(
            lambda tau: oracles.explicit_action(small["n"], small["momenta"], small["ops"] + tau * Es,
                                                points, weights, workloads.SMOOTHING), 1e-5)
        gap, differenced = oracles.first_variation(*action, qhats, [Es])
        assert differenced == 0
        assert abs(quotient - 2.0 * np.einsum("jab,jba->", qhats, Es).real) <= 1e-7 * abs(quotient)
        assert gap <= 1e-10
    monkeypatch.setattr(oracles, "GAP_REL", np.inf)
    gap, differenced = oracles.first_variation(*action, qhats, directions)
    assert differenced == len(points) and gap <= 1e-7


def _check(small, report, qhat=None):
    problems, _ = oracles.check_report(report, qhat or small["evaluator"], small["momenta"],
                                       small["ops"], small["sig"], 0.5, 1.0)
    return problems


@pytest.mark.parametrize("field", ["alpha", "margin", "residual", "gap"])
def test_corrupted_report_fails_its_recomputation(small, field):
    assert _check(small, small["report"]) == []
    report = json.loads(json.dumps(small["report"]))
    if field == "alpha":
        report["alpha"] += 1e-4
    elif field == "margin":
        report["probes"][1]["psd_margin"] += 1e-4
    elif field == "residual":
        report["atoms"][0]["residual_left"] *= 1.001
    else:
        report["atoms"][2]["gap"] += 1e-4
    assert _check(small, report)


def test_corrupted_qhat_fails_the_report_recomputation(small):
    def shifted(p):
        return small["evaluator"](p) + 1e-4 * np.eye(2)

    assert _check(small, small["report"], shifted)


def test_corrupted_action_fails_the_explicit_chain_oracle(small):
    value = ka.action(small["measure"], small["grid"], workloads.SMOOTHING)
    points, weights = oracles.trapezoid_grid(3.0, (5, 3, 1, 1))
    args = (small["n"], small["momenta"], small["ops"], points, weights, workloads.SMOOTHING)
    assert oracles.check_action(value, *args) == []
    assert oracles.check_action(value * (1 + 1e-6), *args)


def test_corrupted_pointwise_solution_fails_its_properties(small):
    space = small["measure"].space
    q, A = small["evaluator"](small["momenta"][0]), small["ops"][0]
    problem = ka.PointwiseProblem(space=space, q=q, a=float(np.trace(A).real),
                                  b=float(np.trace(small["sig"][:, None] * A).real))
    solution = ka.solve(problem)
    recovered = ka.lagrange_from_point(q, solution.A, space)
    assert oracles.check_pointwise(q, A, solution, small["sig"], recovered) == []
    scaled = dataclasses.replace(solution, A=1.01 * solution.A)
    assert oracles.check_pointwise(q, A, scaled, small["sig"], recovered)
    shifted = dataclasses.replace(solution, alpha=solution.alpha + 1e-3)
    assert oracles.check_pointwise(q, A, shifted, small["sig"], recovered)


def test_iterate_properties_fail_on_a_bad_log():
    rows = [{"iteration": i, "action": 2.0 - i, "trace": 0.5, "signed_trace": 1.0} for i in range(3)]
    assert oracles.check_iterates(rows, 0.5, 1.0) == []
    assert oracles.check_iterates(rows[:2] + [dict(rows[2], action=5.0)], 0.5, 1.0)
    assert oracles.check_iterates(rows[:2] + [dict(rows[2], signed_trace=1.01)], 0.5, 1.0)
    assert oracles.check_iterates(rows[:2] + [dict(rows[2], trace=0.51)], 0.5, 1.0)


def test_non_positive_atom_fails():
    sig = oracles.signature(1)
    assert oracles.check_positive([np.diag([1.0, -0.5])], sig) == []
    assert oracles.check_positive([np.diag([1.0, 0.5])], sig)
