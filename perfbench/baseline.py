#!/usr/bin/env python3
"""Run every workload on ten seeds and write ``perfbench/BENCH_baseline.json``.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json`` it makes ten untraced runs with
seeds 1-10 and one traced run with seed 1, each for the run length
that ``BENCHMARK.json`` fixes.  For every end-to-end metric it records the
values, their median and quartiles (``statistics.quantiles(n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound.  It also records the attempted and failed operation
counts, the per-layer metrics of the traced run, and the machine.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), machine, lines[:-2]


def summarize(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    doc = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in names:
        results = []
        for seed in range(1, RUNS + 1):
            result, doc["machine"], _ = run(name, seed, seconds, 0)
            results.append(result)
            print(f"{name} seed {seed}: " + json.dumps(result), flush=True)
        traced, _, notes = run(name, 1, seconds, 1)
        print(f"{name} traced: " + json.dumps(traced), flush=True)
        entry = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                m["name"]: dict(
                    summarize([r["metrics"][m["name"]]["value"] for r in results], m["bound"]),
                    unit=m["unit"],
                )
                for m in spec["end_to_end"]
            },
            "per_layer": traced["metrics"],
            "tracing": notes,
        }
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", flush=True)
    path = os.path.join(HERE, "BENCH_baseline.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
