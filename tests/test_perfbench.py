"""Smoke tests of the benchmark harness: the gated untraced run and the
traced run, whose per-layer spans are patched in by attribute name."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result


def test_untraced_default_task_run_reports_every_gated_metric():
    result = _run("default-task", 0)
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for entry in declared:
        value = result["metrics"][entry["name"]]["value"]
        assert math.isfinite(value), entry["name"]


def test_traced_mid_predict_run_records_layer_spans():
    metrics = _run("mid-predict", 1)["metrics"]
    for name in ("circuit.lqcg.s", "circuit.gqcg.s", "grad.forward.s"):
        assert metrics[name]["value"] > 0, name
    # the traced round trains one epoch of two 64-row steps, and each step
    # builds its class states once: the gradient's class_state_trace span
    # binds. A forward call builds them only when its memo misses, so the
    # forward's class_state_matrix binding is checked in tests/test_circuit.py.
    assert metrics["circuit.class_states.calls"]["value"] >= 2, metrics
