#!/usr/bin/env python3
"""kreinact benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload toy_minimize --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout and driven only
through its public functions.  BLAS threads are pinned to one in this
process (and inherited by the set-up processes) before numpy is imported.

With ``--trace 0`` the run repeats whole rounds of the workload until
``--seconds`` have passed and reports the end-to-end metrics, times in
seconds at a reference machine speed (see ``clock.py``).  With
``--trace 1`` it spends half the time on untraced rounds and half on
traced ones, reports the per-layer metrics per traced round, and writes the
spans and the tracing overhead (traced minus untraced round time) to
``perfbench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced problem sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help="prepare the inputs and exit")
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def timed_setups(args, clock) -> list:
    """Times of complete set-ups, each in a fresh interpreter (import included)."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        if args.smoke:
            cmd.append("--smoke")
        env = dict(os.environ, PERFBENCH_WORKDIR=os.path.join(OUT, f"{args.workload}-setup{i}"))
        proc, seconds = clock.time(lambda: subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120), ticks=False)
        times.append(seconds)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def run_rounds(workload, clock, seconds: float):
    """Whole rounds until ``seconds`` have passed (at least one); checked after each.

    Also returns the peak resident set in MB read after the first round and
    before its check: set-up plus the package's own calls, not the checks.
    """
    rounds, problems, attempted, failed = [], [], 0, 0
    peak_rss_mb = None
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round(clock)
        rnd.wall_s = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, n_ops, n_failed = workload.check_round(rnd)
        rounds.append(rnd)
        problems += found
        attempted += n_ops
        failed += n_failed
        if time.perf_counter() >= t_end:
            return rounds, problems, attempted, failed, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kreinact", "__init__.py")):
        print(f"error: no kreinact package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, workloads.fresh_dir(os.environ["PERFBENCH_WORKDIR"]), smoke=args.smoke)
        return 0

    clock = Clock()
    setup_times = [] if args.trace else timed_setups(args, clock)
    workdir = workloads.fresh_dir(os.path.join(OUT, f"{args.workload}-seed{args.seed}"))
    workload = cls(args.seed, workdir, smoke=args.smoke)

    if args.trace:
        rounds, found, attempted, failed, _ = run_rounds(workload, clock, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced, found_t, attempted_t, failed_t, _ = run_rounds(workload, clock, args.seconds / 2)
        problems = found + found_t + workload.check_run(rounds[0])
        attempted += attempted_t
        failed += failed_t
        per_round = len(traced)
        metrics = tracer.layer_metrics({
            "iterations": sum(r.iterations for r in traced),
            "escapes": sum(r.escapes for r in traced),
        })
        for entry in metrics.values():
            entry["value"] /= per_round
        overhead = (statistics.mean(r.wall_s for r in traced)
                    - statistics.mean(r.wall_s for r in rounds))
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), {
            "workload": args.workload, "seed": args.seed, "machine": machine(),
            "untraced_rounds": len(rounds), "traced_rounds": per_round,
            "tracing_overhead_s_per_round": overhead, "per_layer_per_round": metrics,
        })
        print(f"tracing overhead {overhead:.4f} s per round "
              f"({len(rounds)} untraced, {per_round} traced rounds)")
    else:
        rounds, problems, attempted, failed, peak_rss_mb = run_rounds(workload, clock, args.seconds)
        problems += workload.check_run(rounds[0])
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(r.op_s for r in rounds),
            "verify_s": statistics.median(t for r in rounds for t in r.verify_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        samples = {"setup_s": setup_times, "op_s": [r.op_s for r in rounds],
                   "verify_s": [t for r in rounds for t in r.verify_s], "raw_wall_s": clock.raw}
        json.dump(dict(result, machine=machine(), problems=problems, samples=samples), fh, indent=1)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
