"""Smoke test of the benchmark: every workload at tiny size, through the
same checks and the same tracer, in a few seconds.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def test_end_to_end_metrics_for_every_workload():
    result = smoke(0)
    assert result["correct"] and result["failed"] == 0
    for workload in ("census", "scan", "queries"):
        for name, unit in declared("end_to_end").items():
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0, (workload, name)


def test_per_layer_metrics_and_trace_accounting():
    metrics = {k: v["value"] for k, v in smoke(1)["metrics"].items()}
    for workload in ("census", "scan", "queries"):
        for name in declared("per_layer"):
            assert f"{workload}.{name}" in metrics, (workload, name)
    assert metrics["census.sweep.calls"] == 2
    assert metrics["scan.density.discs_classified"] > 0
    for workload in ("census", "scan"):
        assert metrics[f"{workload}.finitefield.make_field_calls"] == 0
        assert metrics[f"{workload}.dihedral.eigen_coeff_calls"] == 0
    assert metrics["queries.finitefield.make_field_calls"] > 0
    assert metrics["queries.sweep.calls"] == 0
    for workload in ("census", "scan", "queries"):
        self_sum = sum(v for k, v in metrics.items() if k.startswith(workload) and k.endswith(".self_s"))
        assert abs(self_sum - metrics[f"{workload}.trace.wall_s"]) < 0.01 * metrics[f"{workload}.trace.wall_s"]
