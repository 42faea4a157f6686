"""Pieces shared by the workloads: fixed LUTs, quality, instrumentation."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

from harness import Tracer


def fixed_luts(operators: Iterable[str]) -> Dict[str, object]:
    """Uniform-breakpoint 8-entry FXP pwls, one per operator.

    The model workloads deploy these instead of searched LUTs, so a change
    to the genetic search can never change a model's outputs.
    """
    from repro.core.pwl import fit_pwl, uniform_breakpoints
    from repro.functions.registry import get_function

    luts = {}
    for operator in operators:
        fn = get_function(operator)
        pwl = fit_pwl(fn.fn, uniform_breakpoints(*fn.search_range, 8), fn.search_range)
        luts[operator] = pwl.to_fixed_point(5)
    return luts


def geometric_mean(values: Sequence[float]) -> float:
    """Log-average: every cell's relative error counts equally.

    The Table 3 MSEs span three orders of magnitude (DIV/RSQRT ~1e-6,
    GELU/HSWISH ~1e-4), so an arithmetic mean would hide the small cells.
    """
    return math.exp(sum(math.log(value) for value in values) / len(values))


def lut_quality(luts: Dict[str, object]) -> float:
    """Geometric mean of the Table 3 MSE of each deployed LUT."""
    from repro.experiments.protocol import average_mse

    return geometric_mean([average_mse(op, pwl) for op, pwl in sorted(luts.items())])


def instrument_graph(tracer: Tracer, pass_nodes: Dict[str, list]) -> None:
    """Spans around tracing and graph optimisation, node counts per pass."""
    from repro.graph import executor, passes

    tracer.wrap(executor, "trace", "graph.trace.trace_ms")
    tracer.wrap(executor.CompiledTrainStep, "_trace", "graph.trace.trace_ms")
    tracer.wrap(executor, "optimize", "graph.passes.optimize_ms")
    # optimize() looks passes up in this table, so the counts hook there.
    table = vars(passes)["_PASS_TABLE"]
    for pass_name in list(table):
        def record(args, result, pass_name=pass_name):
            pass_nodes.setdefault(pass_name, []).append(len(result.nodes))
        tracer.wrap(table, pass_name, None, record)


def pass_counters(pass_nodes: Dict[str, list]) -> Dict[str, float]:
    """Mean nodes out of each pass over every graph the run optimised."""
    from repro.graph import passes

    counters = {}
    for pass_name in vars(passes)["_PASS_TABLE"]:
        counts = pass_nodes.get(pass_name, [])
        counters["graph.passes.%s.nodes_out" % pass_name] = (
            sum(counts) / len(counts) if counts else 0.0
        )
    return counters
