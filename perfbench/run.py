"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lut_sweep --seed 1 --seconds 20 --trace 0

Runs one workload (``lut_sweep``, ``segment_serve``, ``decode_stream`` or
``finetune``, see ``BENCHMARK.json``) against the program in ``src/``,
checks its outputs against references that do not use the code under
test, and prints two JSON lines: a detail record (environment
fingerprint, sample counts, checks, counters), then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the program's layers, reports
the per-layer metrics and the tracing overhead, and writes every span to
``.perfbench/traces/``.  ``--size tiny`` shrinks the work for the
benchmark's own test.

Every timed metric is a median or percentile over many operations or
windows spread across the run.  Times of CPU-bound work are scaled to a
reference host speed (see ``harness.py``); the detail record keeps the
raw times beside them.
"""

from __future__ import annotations

import os
import sys
import time

STARTED = time.perf_counter()

# One BLAS thread for every workload, fixed before numpy is imported, so
# the serving worker, the client thread and BLAS never compete for the
# two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lut_sweep", "segment_serve", "decode_stream", "finetune")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def end_to_end(ctx, outcome, harness) -> dict:
    return {
        "setup_s": ctx.setup_s(),
        "throughput_per_s": statistics.median(ctx.rates()),
        "latency_p50_ms": ctx.latency_percentile(50),
        "latency_p90_ms": ctx.latency_percentile(90),
        "peak_rss_mb": ctx.peak_rss_mb,
        "success_rate": (outcome.attempted - outcome.failed) / outcome.attempted,
        "approx_mse": outcome.approx_mse,
    }


def per_layer(ctx, outcome, harness) -> tuple:
    self_times = ctx.tracer.self_times_ms(ctx.scale)
    values = {name: statistics.median(times) for name, times in self_times.items()}
    values.update(outcome.counters)
    on, off = ctx.latencies_ms(recorded=True), ctx.latencies_ms(recorded=False)
    if on and off:
        values["tracing.overhead_pct"] = 100.0 * (statistics.median(on) / statistics.median(off) - 1.0)
    calls = {name: len(times) for name, times in sorted(self_times.items())}
    return values, calls


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import harness

    ctx = harness.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        tiny=args.size == "tiny", root=ROOT, started=STARTED,
        tracer=harness.Tracer() if args.trace else None,
    )
    ctx.tick(force=True)
    try:
        outcome = importlib.import_module(args.workload).run(ctx)
    finally:
        ctx.cleanup()
        if ctx.tracer is not None:
            ctx.tracer.unwrap_all()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "environment": harness.fingerprint(),
        "operation": outcome.op_unit,
        "operations": len(ctx.ops),
        "latency_ms": {"p%d" % q: harness.percentile(ctx.latencies_ms(), q)
                       for q in (10, 25, 50, 75, 90, 99)},
        "raw_latency_ms": {"p%d" % q: harness.percentile(
            [(end - start) * 1e3 for start, end, *_ in ctx.ops], q) for q in (50, 90)},
        "raw_window_rate_per_s": statistics.median(
            [units / ctx.busy(start, end) for start, end, units, _ in ctx.windows]),
        "windows": len(ctx.windows),
        "window_rate_per_s": {"p%d" % q: harness.percentile(ctx.rates(), q)
                              for q in (10, 25, 50, 75, 90)},
        "speed_reference": ctx.speed(),
        "imports_s": ctx.imports_end - STARTED,
        "setup_reps_s": [end - start for start, end in ctx.setup_reps],
        "checks": outcome.checks,
        "counters": outcome.counters,
        **outcome.detail,
    }
    if ctx.tracer is None:
        values = end_to_end(ctx, outcome, harness)
        wanted = spec["end_to_end"]
    else:
        values, detail["span_calls"] = per_layer(ctx, outcome, harness)
        wanted = spec["per_layer"]
        trace_path = ROOT / ".perfbench" / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
        ctx.tracer.write(trace_path, STARTED)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    # A layer this workload never enters reports 0.
    metrics = {
        metric["name"]: {"value": float(values.get(metric["name"], 0.0)),
                         "unit": metric["unit"]}
        for metric in wanted
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": all(outcome.checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
