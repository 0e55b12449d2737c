"""One round of a workload in a fresh Python process.

A round builds the workload's inputs from the seed, runs every operation
once, measures the span from the first operation to the last, then checks
the outputs.  With ``--trace 1`` the calls into each module's public
functions are timed as well.  The last line on stdout is the round's result
as JSON; ``run.py`` starts the rounds and combines them.

    python3 bench/round.py --workload cocycle-sweep --seed 1 --trace 0 \\
        --rundir .bench_runs --spawned-at <time.time() of the caller>
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def environment(exact) -> dict:
    import mpmath

    qq = exact.QQ
    return {
        "python": platform.python_version(),
        "rational_backend": f"{qq.__module__}.{qq.__name__}",
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_counters(workload, modules: dict) -> dict:
    """Counters read from outside the program once the round ends."""
    polylog_cached = getattr(modules["numerics"], "_polylog_cached", None)
    gamma_cache = getattr(modules["lseries"], "_GAMMA_CACHE", None)
    return {
        "cli.report_bytes": workload.report_bytes,
        "numerics.polylog_cache_hits": polylog_cached.cache_info().hits if polylog_cached else 0,
        "lseries.gamma_cache_entries": len(gamma_cache) if gamma_cache is not None else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    import probe
    import workloads  # imports eisperiods and mpmath: part of set-up

    os.makedirs(args.rundir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=args.rundir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.operations()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(workloads.MODULES, [workloads])
        setup_s = time.time() - args.spawned_at

        outputs, errors = {}, []
        speed = probe.SpeedProbe(tracer.exclude if tracer else None)
        speed.start()
        w0, c0 = time.perf_counter(), time.process_time()
        for index, (label, fn) in enumerate(ops):
            if tracer:
                tracer.op = index
            try:
                outputs[label] = fn()
            except Exception as exc:  # a failing operation is counted, not fatal
                errors.append(f"{label}: {exc!r}")
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed.stop()
        wall_s -= speed.probe_wall
        cpu_s -= speed.probe_cpu
        scale = speed.scale()

        result = {
            "setup_s": setup_s * scale,
            "measured_setup_s": setup_s,
            "wall_s": wall_s * scale,
            "cpu_s": cpu_s * scale,
            "measured_wall_s": wall_s,
            "measured_cpu_s": cpu_s,
            "speed_scale": scale,
            "speed_samples": len(speed.samples),
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(ops),
            "failed": len(errors),
            "errors": errors,
        }
        if tracer:
            tracer.uninstall()
            layer = tracer.metrics()
            layer.update(layer_counters(workload, workloads.MODULES))
            layer["exact.rationals_made"] = tracer.rationals[0]
            layer["trace.spans"] = len(tracer.span_start)
            result["per_layer"] = layer
            spans = os.path.join(args.rundir, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
            tracer.write_spans(spans, [label for label, _ in ops])
            result["spans_file"] = os.path.relpath(spans)
        result["check_failures"] = workload.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment(workloads.exact)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
