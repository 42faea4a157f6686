"""The benchmark's own test: every workload at a tiny size, run twice.

Not collected by the repository's test run; invoke it directly::

    python3 -m pytest perfbench/selftest.py -q

For each workload it runs the benchmark untraced and traced, twice each,
and asserts that the reference checks pass, that every metric named in
``BENCHMARK.json`` is printed with its unit, and that every counter which
must repeat exactly does.  It also checks that the benchmark refuses to
run, without printing a result, when the program's source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PASSES = ["graph.passes.%s.nodes_out" % name for name in ("fold", "fuse", "dce", "fuse_chains")]
# Per-layer counts that depend only on the seed, never on timing.
EXACT = {
    "lut_sweep": ["core.fitness.rows", "core.genetic.cache_hit_ratio",
                  "experiments.jobs.builds", "experiments.jobs.deduped",
                  "experiments.jobs.cache_hits"],
    "segment_serve": ["graph.executor.plan_nodes"] + PASSES,
    "decode_stream": ["graph.executor.decode_plan_nodes",
                      "graph.executor.decode_compiles"] + PASSES,
    "finetune": ["graph.executor.train_plan_nodes", "graph.executor.train_peak_live",
                 "graph.executor.plan_nodes"] + PASSES,
}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "detail" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_repeat(workload):
    untraced = [result(workload, 0) for _ in range(2)]
    traced = [result(workload, 1) for _ in range(2)]
    for out, wanted in [(r, SPEC["end_to_end"]) for r in untraced] + \
                       [(r, SPEC["per_layer"]) for r in traced]:
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True
        assert out["attempted"] >= 1 and out["failed"] == 0
        assert {name: m["unit"] for name, m in out["metrics"].items()} == \
            {m["name"]: m["unit"] for m in wanted}
    for run in untraced:
        assert all(m["value"] > 0 for m in run["metrics"].values())
    assert untraced[0]["metrics"]["approx_mse"] == untraced[1]["metrics"]["approx_mse"]
    first, second = (r["metrics"] for r in traced)
    for name in EXACT[workload]:
        assert first[name]["value"] == second[name]["value"], name
    assert any(first[name]["value"] > 0 for name in EXACT[workload])


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "lut_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
