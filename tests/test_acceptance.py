"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion. Tolerances and thresholds are pinned here; the
end-to-end learning thresholds were frozen after a single calibration
run of the default synthetic task and its linear-probe oracle.
"""

import json
import time

import numpy as np

import hqcg
from hqcg import (
    Statevector,
    amplitude_encode,
    apply_gate,
    build_model,
    direct_fidelity,
    generate_synthetic,
    inner_product,
    required_qubits,
    swap_test_fidelity,
)
from hqcg.circuit import apply_param_circuit, fused_blocks, rotation_matrices
from hqcg.cli import main
from hqcg.grad import loss_and_gradients
from hqcg.baseline import MLPModel, mlp_gradients, mlp_param_count
from oracles import (
    central_difference,
    circuit_matrix,
    finite_diff_oracle,
    linear_probe_class_aucs,
    random_gate,
    random_state_vector,
)


def _criterion(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_simulator_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        state = random_state_vector(rng, n)
        gates = [random_gate(rng, n) for _ in range(int(rng.integers(1, 51)))]
        out = Statevector(n, state)
        for g in gates:
            out = apply_gate(out, g)
        expected = circuit_matrix(n, gates) @ state
        worst = max(worst, float(np.abs(out.amplitudes - expected).max()))

    norm_worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        out = Statevector(n, random_state_vector(rng, n))
        for _ in range(50):
            out = apply_gate(out, random_gate(rng, n))
        norm_worst = max(norm_worst,
                         abs(float(np.linalg.norm(out.amplitudes)) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and norm_worst <= 1e-9 and elapsed < 30
    _criterion(1, ok, f"dense-oracle dev {worst:.2e} (<=1e-10), "
                      f"norm drift {norm_worst:.2e} (<=1e-9), {elapsed:.1f}s (<30s)")


def test_criterion_2_swap_test_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_inner = 0.0
    worst_direct = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        psi = Statevector(n, random_state_vector(rng, n))
        phi = Statevector(n, random_state_vector(rng, n))
        estimate = swap_test_fidelity(psi, phi)  # 2 * P(ancilla=0) - 1
        squared_overlap = abs(inner_product(psi, phi)) ** 2
        worst_inner = max(worst_inner, abs(estimate - squared_overlap))
        worst_direct = max(worst_direct, abs(estimate - direct_fidelity(psi, phi)))
    elapsed = time.perf_counter() - start
    ok = worst_inner <= 1e-9 and worst_direct <= 1e-9 and elapsed < 10
    _criterion(2, ok, f"|2P(0)-1 - |<psi|phi>|^2| {worst_inner:.2e}, "
                      f"vs direct {worst_direct:.2e} (<=1e-9), {elapsed:.1f}s (<10s)")


def test_criterion_3_encoding():
    ok_qubits = required_qubits(30000) == 15
    rng = np.random.default_rng(1003)
    worst_scale = 0.0
    worst_round = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 200))
        v = rng.normal(size=length)
        if np.linalg.norm(v) == 0:
            continue
        n = required_qubits(length)
        a = amplitude_encode(v, n).amplitudes
        b = amplitude_encode(rng.uniform(0.1, 10.0) * v, n).amplitudes
        worst_scale = max(worst_scale, float(np.abs(a - b).max()))
        recovered = (a[:length] * np.linalg.norm(v)).real
        rel = np.abs(recovered - v) / np.maximum(np.abs(v), 1e-30)
        worst_round = max(worst_round, float(rel.max()))
    ok = ok_qubits and worst_scale <= 1e-9 and worst_round <= 1e-9
    _criterion(3, ok, f"required_qubits(30000)={required_qubits(30000)} (=15), "
                      f"scale dev {worst_scale:.2e}, round-trip rel {worst_round:.2e} "
                      f"(<=1e-9, 1000 signals)")


def test_criterion_4_gradient_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    quantum_ok = True
    worst_ratio = 0.0
    for batch_index in range(20):
        model = build_model(6, 3, 3, seed=int(rng.integers(1 << 31)))
        signals = rng.normal(size=(3, 48))
        labels = (rng.random((3, 3)) < 0.5).astype(float)
        _, analytic = loss_and_gradients(model, signals, labels)
        fd = finite_diff_oracle(model, signals, labels, eps=1e-5)
        tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
        err = np.abs(analytic - fd)
        worst_ratio = max(worst_ratio, float((err / tol).max()))
        quantum_ok &= bool((err <= tol).all())

    mlp_ok = True
    widths = (12, 6, 6, 3)
    for _ in range(20):
        theta = rng.normal(scale=0.5, size=mlp_param_count(widths))
        model = MLPModel(widths, theta)
        signals = rng.normal(size=(3, 12))
        labels = (rng.random((3, 3)) < 0.5).astype(float)
        _, analytic = mlp_gradients(model, signals, labels)
        # saturated sigmoids make the BCE curvature huge; a small step keeps
        # the central-difference truncation term under the contract floor
        fd = central_difference(
            lambda th: mlp_gradients(MLPModel(widths, th), signals, labels)[0],
            theta, 1e-7)
        tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
        mlp_ok &= bool((np.abs(analytic - fd) <= tol).all())
    elapsed = time.perf_counter() - start
    ok = quantum_ok and mlp_ok and elapsed < 120
    _criterion(4, ok, f"quantum n=6 g=3 C=3 worst err/tol {worst_ratio:.3f} "
                      f"over 20 batches, MLP contract "
                      f"{'held' if mlp_ok else 'violated'}, {elapsed:.1f}s (<120s)")


def test_criterion_5_structural_counts(capsys):
    assert main(["inspect", "--qubits", "16", "--group-size", "4",
                 "--classes", "8"]) == 0
    out = capsys.readouterr().out
    ok = ("LQCG: 16 gates, 48 params" in out
          and "GQCG: 4 gates, 12 params" in out
          and "class states: 8 x 48 = 384 params" in out
          and "total: 444 params" in out)
    with capsys.disabled():
        _criterion(5, ok, "inspect(n=16, g=4, C=8) reports 16/48, 4/12, 384, 444")


def test_criterion_6_zero_parameter_identity():
    rng = np.random.default_rng(1006)
    model = build_model(8, 4, 2, theta=np.zeros(3 * 8 + 3 * 2 + 3 * 8 * 2))
    lqcg, gqcg = fused_blocks(model, rotation_matrices(model.theta.reshape(-1, 3)))[1]
    worst = 0.0
    for _ in range(100):
        amps = random_state_vector(rng, 8)[None, :]
        out = apply_param_circuit(amps, model.lqcg, lqcg)
        out = apply_param_circuit(out, model.gqcg, gqcg)
        worst = max(worst, float(np.abs(out - amps).max()))
    ok = worst <= 1e-12
    _criterion(6, ok, f"theta=0 layer composition deviates {worst:.2e} "
                      f"from identity (<=1e-12, 100 states)")


def test_criterion_7_end_to_end_learning(tmp_path, capsys):
    start = time.perf_counter()
    # learnability oracle first: least-squares probe on the raw signals
    spec = hqcg.SyntheticSpec(num_classes=4, signal_len=256,
                              num_samples=2000, seed=7)
    dataset = generate_synthetic(spec)
    signals = np.stack([s.values for s in dataset.samples])
    labels = np.stack([s.labels for s in dataset.samples]).astype(float)
    probe_auc = min(linear_probe_class_aucs(signals, labels))
    assert probe_auc >= 0.95, f"task not linearly learnable: {probe_auc}"

    data_dir = tmp_path / "task"
    assert main(["synth", "--classes", "4", "--len", "256", "--samples", "2000",
                 "--seed", "7", "--out", str(data_dir)]) == 0
    run_dir = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(run_dir),
                 "--model", "quantum", "--qubits", "8", "--group-size", "4",
                 "--lr", "0.01", "--epochs", "30", "--batch-size", "64",
                 "--seed", "7"]) == 0
    metrics = json.loads((run_dir / "metrics.json").read_text())
    final = metrics["final"]
    elapsed = time.perf_counter() - start
    ok = (final["val_accuracy"] >= 0.90 and final["val_auc"] >= 0.95
          and elapsed < 900)
    with capsys.disabled():
        _criterion(7, ok, f"probe AUC {probe_auc:.3f} (>=0.95), "
                          f"val accuracy {final['val_accuracy']:.4f} (>=0.90), "
                          f"macro AUC {final['val_auc']:.4f} (>=0.95), "
                          f"{elapsed:.0f}s (<900s)")


def test_criterion_8_comparison_methodology(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["synth", "--classes", "4", "--len", "64", "--samples", "300",
                 "--seed", "11", "--out", str(data_dir)]) == 0
    args = ["compare", "--data", str(data_dir), "--qubits", "6",
            "--group-size", "3", "--epochs", "5", "--batch-size", "32",
            "--seed", "11"]
    for name in ("runA", "runB"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()

    identical = True
    rows_ok = True
    for kind in ("quantum", "classical"):
        for name in ("model.json", "metrics.json", "curves.csv"):
            identical &= (tmp_path / "runA" / kind / name).read_bytes() == \
                (tmp_path / "runB" / kind / name).read_bytes()
        curves = (tmp_path / "runA" / kind / "curves.csv").read_text().splitlines()
        rows_ok &= curves[0] == "epoch,split,loss,accuracy,auc,lr"
        rows_ok &= len(curves) == 1 + 2 * 5  # header + per-epoch train/val rows
    ok = identical and rows_ok
    with capsys.disabled():
        _criterion(8, ok, "compare emits both TrainReports with plottable "
                          "curves; reruns bitwise identical")


def test_criterion_9_command_determinism(tmp_path, capsys):
    pairs = {}
    for name in ("d1", "d2"):
        data_dir = tmp_path / name
        assert main(["synth", "--classes", "3", "--len", "32", "--samples",
                     "80", "--seed", "13", "--out", str(data_dir)]) == 0
        run_dir = tmp_path / (name + "_run")
        assert main(["train", "--data", str(data_dir), "--out", str(run_dir),
                     "--qubits", "6", "--group-size", "3", "--epochs", "3",
                     "--batch-size", "16", "--seed", "13"]) == 0
        eval_dir = tmp_path / (name + "_eval")
        assert main(["eval", "--model-path", str(run_dir / "model.json"),
                     "--data", str(data_dir), "--out", str(eval_dir)]) == 0
        csv = tmp_path / (name + "_pred.csv")
        assert main(["predict", "--model-path", str(run_dir / "model.json"),
                     "--data", str(data_dir), "--csv", str(csv)]) == 0
        pairs[name] = {
            "dataset": (data_dir / "dataset.csv").read_bytes(),
            "manifest": (data_dir / "manifest.json").read_bytes(),
            "model": (run_dir / "model.json").read_bytes(),
            "metrics": (run_dir / "metrics.json").read_bytes(),
            "curves": (run_dir / "curves.csv").read_bytes(),
            "eval": (eval_dir / "metrics.json").read_bytes(),
            "pred": csv.read_bytes(),
        }
    capsys.readouterr()
    ok = pairs["d1"] == pairs["d2"]
    with capsys.disabled():
        _criterion(9, ok, "synth/train/eval/predict reruns are byte-identical "
                          "across all output files")
