"""Benchmark entry point for eisperiods.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cocycle-sweep, lattice-check, lvalue-invariant (see README.md).
Each round of a workload runs in a fresh Python process (``round.py``), so
every round pays the program's cold caches as an ``eisp`` user does.  With
``--trace 0`` rounds repeat until ``--seconds`` have passed (at least one);
the end-to-end metrics are medians over rounds, and ``setup_s`` is the first
round's cold set-up.  With ``--trace 1`` one untraced and one traced round
run, and the per-layer metrics come from the traced one; the tracing
overhead is the traced wall time minus the untraced one.

Prints the environment, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.  Exits non-zero without that line if
a round cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNDIR = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("cocycle-sweep", "lattice-check", "lvalue-invariant")
TIME_LIMIT_S = 170.0  # every run must end within 180 s
# a fixed string-hash seed, so dict and set layouts do not vary between rounds
ROUND_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: int, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundError("no time left for a round")
    cmd = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--rundir", RUNDIR, "--spawned-at", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=ROUND_ENV, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the round
        raise RoundError(f"{workload} round exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eisperiods benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, t, deadline) for t in (0, 1)]
        else:
            rounds = []
            while True:
                rounds.append(run_round(args.workload, args.seed, 0, deadline))
                elapsed = time.monotonic() - start
                if elapsed >= args.seconds or elapsed * (len(rounds) + 1) / len(rounds) > TIME_LIMIT_S:
                    break
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    problems = [msg for r in rounds for msg in r["errors"] + r["check_failures"]]
    for msg in problems:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({
        "environment": rounds[0]["environment"],
        "rounds": len(rounds),
        "measured_wall_s": [r["measured_wall_s"] for r in rounds],
        "speed_scale": [r["speed_scale"] for r in rounds],
    }))

    if args.trace:
        untraced, traced = rounds
        values = dict(traced["per_layer"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.per_layer_names()}
        print(f"bench: spans written to {traced['spans_file']}", file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": rounds[0]["setup_s"], "unit": "s"}}
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(r[name] for r in rounds), "unit": unit}

    result = {
        "correct": not any(r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
