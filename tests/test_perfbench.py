"""Smoke test of the traced benchmark run: the per-layer spans it patches in
by attribute name still reach the code the library runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_mid_predict_run_records_layer_spans():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mid-predict", "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    for name in ("circuit.lqcg.s", "circuit.gqcg.s", "grad.forward.s"):
        assert metrics[name]["value"] > 0, name
