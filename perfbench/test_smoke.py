"""Smoke test of the benchmark: every workload at minimal size, both modes.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
It takes about two minutes (verify_suite's set-up alone is ~2 s a trial).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("cli_cold", "verify_suite", "records_mix", "eval_wide")
END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "fail_ratio", "peak_rss_mb",
              "host_factor", "norm_ops_per_s", "norm_latency_p50_ms")
CONTRACT = ("setup_s", "norm_ops_per_s", "norm_latency_p50_ms", "peak_rss_mb")


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("report: ")
    return json.loads(lines[-2][len("report: "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_and_units(workload):
    report, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # attempted and failed count cases, so they do not depend on the run's length
    assert result["attempted"] == report["distinct_cases"]
    assert result["failed"] == sum(report["failure_kinds"].values())
    assert set(result["metrics"]) == set(CONTRACT)
    for name in END_TO_END:
        assert report["end_to_end"][name]["unit"], name
    for name in CONTRACT:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    report, result = bench(workload, 1)
    metrics = result["metrics"]
    assert [name for name, _ in tracer.PER_LAYER] == list(metrics)
    assert all(m["unit"] for m in metrics.values())
    assert metrics["trace.overhead_ratio"]["value"] > 0
    if workload in ("records_mix", "eval_wide"):
        assert metrics["specfun.quadrature.calls"]["value"] == 0
        assert metrics["specfun.inner_product.calls"]["value"] == 0
    if workload in ("verify_suite", "eval_wide"):
        assert metrics["output.render.calls"]["value"] == 0
    imports = [m["value"] for name, m in metrics.items() if name.startswith("import.")]
    if workload == "cli_cold":
        assert metrics["import.total_ms"]["value"] > 0 and metrics["cli.main_ms"]["value"] > 0
    else:
        assert all(v == 0 for v in imports)
    if workload != "cli_cold":
        spans = np.load(ROOT / report["trace_file"])
        assert_well_formed(spans)


def assert_well_formed(spans):
    parent, start, end, op = spans["parent"], spans["start"], spans["end"], spans["op"]
    assert len(start) > 0
    assert np.all(end >= start)
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    assert np.all(p < child), "a parent opens before its children"
    assert np.all(start[child] >= start[p]) and np.all(end[child] <= end[p]), "children nest inside parents"
    assert np.all(op[child] == op[p]), "children share their parent's operation"
    assert np.all(spans["self"] >= 0), "self time is never negative"
