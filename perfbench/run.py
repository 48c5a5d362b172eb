#!/usr/bin/env python3
"""One benchmark run of the hqcg classifier on one workload.

    python3 perfbench/run.py --workload default-task --seed 1 --seconds 30 --trace 0

Each workload builds its data from ``--seed``, then times set-up (data
generation, CSV save and load, model build, one warm-up forward) and whole
rounds of one training phase (``train_loop`` with ``loss_and_gradients``)
plus one predict phase (``forward_batch``): as many rounds as come nearest
to ``--seconds``, and at least one. The outputs of the last round are
checked against the reference in ``reference.py``. With ``--trace 1`` the run
records spans around the calls into each hqcg module and reports per-layer
figures for one traced round instead, with the tracing overhead measured
against the untraced round that follows it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine facts, gate verdicts and per-round details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

from spans import Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    qubits: int
    group_size: int
    num_classes: int
    signal_len: int
    samples: int         # CSV round trip, then split 80/20 into train/val
    predict_extra: int   # further samples predicted; 0 predicts the dataset
    batch_size: int
    epochs: int
    predict_passes: int  # forward_batch passes over the predict set per round
    learning_check: bool


WORKLOADS = {
    # The criterion-7 recipe; per-call overhead dominates at 256 amplitudes.
    "default-task": Workload(8, 4, 4, 256, 2000, 0, 64, 30, 20, True),
    # 64 KiB states, a predict set eight CHUNK_ROWS chunks long.
    "mid-predict": Workload(12, 4, 4, 4096, 160, 2048, 64, 1, 1, False),
    # The paper's geometry: one gradient step of 16 samples per round. Not in
    # BENCHMARK.json: its predict throughput differs between processes.
    "paper-scale": Workload(16, 4, 8, 30000, 20, 0, 16, 1, 3, False),
}
SETUP_REPS = 3
VAL_FRACTION = 0.2
LR_MAX = 0.01
GATE_ROWS = 4
PERTURB = 1e-3
MIN_VAL_AUC = 0.95  # criterion 7


def limit_threads() -> None:
    """One BLAS thread and at most nproc chunk workers, set before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.setdefault("HQCG_THREADS", str(min(4, nproc)))


def machine_facts() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "HQCG_THREADS": os.environ["HQCG_THREADS"],
        "map_rows_workers": hqcg.parallel.thread_count(),
    }


@dataclass
class Data:
    train: object
    val: object
    signals: object  # predict set
    labels: object


def set_up(w: Workload, seed: int, work_dir: Path, timed) -> tuple[float, Data]:
    """Generate, save, load, build and warm up; returns (seconds, data)."""
    start = time.perf_counter()
    spec = hqcg.SyntheticSpec(num_classes=w.num_classes, signal_len=w.signal_len,
                              num_samples=w.samples + w.predict_extra, seed=seed)
    full = timed("data.generate", hqcg.generate_synthetic)(spec)
    dataset = hqcg.Dataset(full.samples[: w.samples], w.num_classes, w.signal_len)
    timed("data.save", hqcg.save_dataset)(
        dataset, work_dir, replace(spec, num_samples=w.samples))
    loaded = timed("data.load", hqcg.load_dataset)(work_dir)
    train, val = hqcg.split(loaded, 1.0 - VAL_FRACTION, seed)
    signals, labels, _ = hqcg.stack_samples(
        full.samples[w.samples :] if w.predict_extra else loaded.samples)
    model = hqcg.build_model(w.qubits, w.group_size, w.num_classes, seed=seed)
    hqcg.forward_batch(model, signals[: w.batch_size])
    return time.perf_counter() - start, Data(train, val, signals, labels)


class StepClock:
    """Times each training step: gradient call through the AdamW update."""

    def __init__(self, loss_grad_fn, adamw_fn):
        self._loss_grad_fn = loss_grad_fn
        self._adamw_fn = adamw_fn
        self._start = 0.0
        self._rows = 0
        self.rates: list[float] = []  # samples per second of each step

    def loss_grad(self, model, signals, labels):
        self._start = time.perf_counter()
        self._rows = len(signals)
        return self._loss_grad_fn(model, signals, labels)

    def adamw(self, *args, **kwargs):
        out = self._adamw_fn(*args, **kwargs)
        self.rates.append(self._rows / (time.perf_counter() - self._start))
        return out


@dataclass
class Round:
    run_s: float
    pass_rates: list[float]
    report: object
    model: object
    probs: object


def run_round(w: Workload, seed: int, data: Data, clock: StepClock, predict_fn) -> Round:
    model = hqcg.build_model(w.qubits, w.group_size, w.num_classes, seed=seed)
    cfg = hqcg.TrainConfig(lr_max=LR_MAX, epochs=w.epochs,
                           batch_size=w.batch_size, seed=seed)
    start = time.perf_counter()
    model, report = hqcg.train_loop(model, data.train.samples, data.val.samples,
                                    cfg, clock.loss_grad, predict_fn)
    rates = []
    for _ in range(w.predict_passes):
        t0 = time.perf_counter()
        probs = predict_fn(model, data.signals)
        rates.append(len(data.signals) / (time.perf_counter() - t0))
    return Round(time.perf_counter() - start, rates, report, model, probs)


def gate(w: Workload, seed: int, data: Data, last: Round) -> dict[str, bool]:
    """Reference checks on seeded rows of the last round's outputs."""
    import numpy as np  # numpy loads only after limit_threads has run
    from reference import check, circuit_gates
    rng = np.random.default_rng([seed, 1])
    rows = np.sort(rng.choice(len(data.signals), GATE_ROWS, replace=False))
    signals, labels = data.signals[rows], data.labels[rows]
    model = last.model
    loss, grads = hqcg.loss_and_gradients(model, signals, labels)
    theta = model.theta.copy()
    moved = theta.copy()
    moved[rng.integers(3 * len(circuit_gates(w.qubits, w.group_size)))] += PERTURB
    perturbed = hqcg.build_model(w.qubits, w.group_size, w.num_classes, theta=moved)
    verdicts = check((w.qubits, w.group_size, w.num_classes), theta, signals,
                     labels, last.probs[rows], loss, grads,
                     hqcg.forward_batch(perturbed, signals), rng)
    if w.learning_check:
        verdicts["learning_val_auc"] = last.report.final.val_auc >= MIN_VAL_AUC
    return verdicts


def traced_patches(tracer, clock: StepClock):
    """(module, attribute, wrapper) for every layer boundary the trace records."""
    c, g, t, q = hqcg.circuit, hqcg.grad, hqcg.train, hqcg.qstate

    def kernel_bytes(args, out):
        return args[0].nbytes + out.nbytes

    def trace_bytes(args, out):
        return sum(a.nbytes for a in out[2])

    def layer_name(amps, circuit, theta):
        return "circuit.lqcg" if circuit.param_offset == 0 else "circuit.gqcg"

    def map_rows(fn, rows, threads=None):
        with tracer.span("parallel.map_rows") as rec:
            chunk = tracer.wrap("circuit.fidelity", fn, parent=rec["id"])
            return hqcg.parallel.map_rows(chunk, rows, threads)

    patches = [
        (c, "encode_rows", tracer.wrap("encoding.encode_rows", hqcg.encoding.encode_rows)),
        (g, "encode_rows", tracer.wrap("encoding.encode_rows", hqcg.encoding.encode_rows)),
        (c, "apply_param_circuit", tracer.wrap(layer_name, c.apply_param_circuit)),
        (c, "class_state_matrix", tracer.wrap("circuit.class_states", c.class_state_matrix)),
        (g, "class_state_trace", tracer.wrap("circuit.class_states", c.class_state_trace)),
        (c, "map_rows", map_rows),
        (g, "_forward_trace", tracer.wrap("grad.forward", g._forward_trace, trace_bytes)),
        (t, "evaluate", tracer.wrap("train.evaluate", t.evaluate)),
        (t, "adamw_step", clock.adamw),
    ]
    for name in ("accuracy", "macro_auc", "bce_rows"):
        patches.append((t, name, tracer.wrap("train.metrics", getattr(t, name))))
    for mod in (c, g):
        for name in ("apply_controlled_matrix", "apply_single_matrix"):
            patches.append((mod, name, tracer.wrap("qstate.kernel", getattr(q, name),
                                                   kernel_bytes)))
    return patches


def layer_metrics(setup_spans: dict, spans: dict, traced_s: float,
                  untraced_s: float, span_count: int) -> dict:
    def get(name, key="self_s"):
        return spans.get(name, {}).get(key, 0)

    figures = {
        "data.generate.s": (setup_spans["data.generate"]["self_s"], "s"),
        "data.save.s": (setup_spans["data.save"]["self_s"], "s"),
        "data.load.s": (setup_spans["data.load"]["self_s"], "s"),
        "encoding.encode_rows.s": (get("encoding.encode_rows"), "s"),
        "encoding.encode_rows.calls": (get("encoding.encode_rows", "calls"), "count"),
        "circuit.lqcg.s": (get("circuit.lqcg"), "s"),
        "circuit.gqcg.s": (get("circuit.gqcg"), "s"),
        "circuit.class_states.s": (get("circuit.class_states"), "s"),
        "circuit.class_states.calls": (get("circuit.class_states", "calls"), "count"),
        "circuit.fidelity.s": (get("circuit.fidelity"), "s"),
        "circuit.forward_batch.s": (get("circuit.forward_batch"), "s"),
        "circuit.forward_batch.calls": (get("circuit.forward_batch", "calls"), "count"),
        "qstate.kernel.calls": (get("qstate.kernel", "calls"), "count"),
        "qstate.kernel.s": (get("qstate.kernel"), "s"),
        "qstate.kernel.bytes": (get("qstate.kernel", "bytes"), "B"),
        "parallel.map_rows.s": (get("parallel.map_rows"), "s"),
        "parallel.chunks": (get("circuit.fidelity", "calls"), "count"),
        "grad.forward.s": (get("grad.forward"), "s"),
        "grad.backward.s": (get("grad.loss_and_gradients"), "s"),
        "grad.trace_bytes": (get("grad.forward", "max_bytes"), "B"),
        "train.adamw.s": (get("train.adamw"), "s"),
        "train.evaluate.s": (get("train.evaluate"), "s"),
        "train.metrics.s": (get("train.metrics"), "s"),
        "trace.run_s": (traced_s, "s"),
        "trace.untraced_run_s": (untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        "trace.spans": (span_count, "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    w = WORKLOADS[args.workload]
    # paper-scale validates on 4 rows, so some classes have one label value
    warnings.filterwarnings("ignore", message=".*single label value")

    tracer = Tracer() if args.trace else None
    adamw_step = hqcg.train.adamw_step
    clock = StepClock(hqcg.loss_and_gradients, adamw_step)

    def timed(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    info = {"workload": args.workload, "seed": args.seed, "machine": machine_facts()}
    try:
        reps = [set_up(w, args.seed, work_dir, timed)
                for _ in range(1 if tracer else SETUP_REPS)]
        data = reps[-1][1]
        info["setup_s"] = [s for s, _ in reps]
        with patched([(hqcg.train, "adamw_step", clock.adamw)]):
            rounds = [run_round(w, args.seed, data, clock, hqcg.forward_batch)]
            if tracer:
                setup_spans = tracer.summary()
                mark = tracer.last_id()
                traced_clock = StepClock(
                    tracer.wrap("grad.loss_and_gradients", hqcg.loss_and_gradients),
                    tracer.wrap("train.adamw", adamw_step))
                with patched(traced_patches(tracer, traced_clock)):
                    traced = run_round(
                        w, args.seed, data, traced_clock,
                        tracer.wrap("circuit.forward_batch", hqcg.forward_batch))
                # the first round warms up; the overhead is measured against this one
                rounds += [traced, run_round(w, args.seed, data, clock,
                                             hqcg.forward_batch)]
            else:
                # whole rounds, as many as come nearest to --seconds
                for _ in range(round(args.seconds / rounds[0].run_s) - 1):
                    rounds.append(run_round(w, args.seed, data, clock,
                                            hqcg.forward_batch))
        verdicts = gate(w, args.seed, data, rounds[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info["rounds"] = len(rounds)
    info["run_s"] = [r.run_s for r in rounds]
    info["predict_samples_per_s"] = [x for r in rounds for x in r.pass_rates]
    info["final_val_accuracy"] = rounds[-1].report.final.val_accuracy
    info["final_val_auc"] = rounds[-1].report.final.val_auc
    info["gate"] = verdicts
    ops = len(clock.rates) + sum(len(r.pass_rates) for r in rounds) + len(verdicts)
    failed = sum(not ok for ok in verdicts.values())
    if tracer:
        spans = tracer.summary(since=mark)
        metrics = layer_metrics(setup_spans, spans, traced.run_s, rounds[-1].run_s,
                                len(tracer.spans) - mark)
        ops += len(traced_clock.rates)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(info["setup_s"]), "unit": "s"},
            "run_s": {"value": statistics.median(info["run_s"]), "unit": "s"},
            "train_samples_per_s": {"value": statistics.median(clock.rates), "unit": "1/s"},
            "predict_samples_per_s": {
                "value": statistics.median(info["predict_samples_per_s"]), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hqcg
        import hqcg.parallel
    except ImportError as err:
        print(f"perfbench: cannot import hqcg from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if Path(hqcg.__file__).resolve().parent != ROOT / "src" / "hqcg":
        print(f"perfbench: hqcg imported from {hqcg.__file__}, not from this checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
