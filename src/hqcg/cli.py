"""Command-line entry point.

Commands: synth, train, eval, predict, inspect, compare. Every command is
a deterministic function of its flags and seed; reruns write byte-identical
files. Exit codes: 0 success, 2 usage/config/data problems, 3 numeric
failure during training or evaluation. A .lock file guards each output
directory against concurrent writers (delete it if a crash leaves it
behind). If --config names a JSON file, its entries override the
corresponding flags.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain
from pathlib import Path

import numpy as np

from . import baseline, circuit, grad
from .data import Dataset, SyntheticSpec, generate_synthetic, is_json_type, \
    load_dataset, read_json_object, save_dataset, split, stack_samples, write_json, \
    write_lines
from .encoding import required_qubits
from .errors import ConfigError, DataFormatError, EmptyDatasetError, HqcgError, \
    NumericError
from .train import TrainConfig, evaluate, train_loop, write_curves_csv, \
    write_metrics_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@contextmanager
def _output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output directory is in use (lock file {lock} exists; "
            "delete it if a previous run crashed)"
        ) from None
    os.close(fd)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


# --- checkpoints -----------------------------------------------------------


def save_model(path, kind: str, model, meta: dict) -> None:
    doc = dict(meta)
    doc["kind"] = kind
    doc["theta"] = [float(v) for v in model.theta]
    write_json(path, doc)


def _require(doc: dict, field: str, kind: type, item: type | None = None):
    """``doc[field]`` of JSON type ``kind``; a list's entries of type ``item``."""
    if field not in doc:
        raise DataFormatError(f"checkpoint missing field '{field}'")
    value = doc[field]
    if not is_json_type(value, kind) or (
            item is not None and not all(is_json_type(v, item) for v in value)):
        what = kind.__name__ if item is None else f"list[{item.__name__}]"
        raise DataFormatError(f"checkpoint field '{field}' must be of type {what}, "
                              f"got {reprlib.repr(value)}")
    return value


def load_model(path):
    """Returns (kind, model, predict_fn, checkpoint dict)."""
    doc = read_json_object(path, "checkpoint")
    kind = _require(doc, "kind", str)
    theta = np.asarray(_require(doc, "theta", list, float), dtype=np.float64)
    if kind == "quantum":
        model = circuit.build_model(
            _require(doc, "num_qubits", int), _require(doc, "group_size", int),
            _require(doc, "num_classes", int), theta=theta,
        )
        return kind, model, circuit.forward_batch, doc
    if kind == "classical":
        widths = tuple(_require(doc, "layer_widths", list, int))
        model = baseline.MLPModel(widths, theta)
        return kind, model, baseline.mlp_forward_batch, doc
    raise DataFormatError(f"checkpoint has unknown kind {kind!r}")


def _check_compatible(doc: dict, dataset: Dataset) -> None:
    """Reject a dataset whose geometry differs from the checkpoint's."""
    if dataset.signal_len != _require(doc, "signal_len", int):
        raise ConfigError(
            f"dataset signal length {dataset.signal_len} does not match "
            f"checkpoint ({doc['signal_len']})"
        )
    if dataset.num_classes != _require(doc, "num_classes", int):
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes, checkpoint expects "
            f"{doc['num_classes']}"
        )


# --- command helpers ----------------------------------------------------------


def _train_config(args) -> TrainConfig:
    return TrainConfig(lr_max=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                       weight_decay=args.weight_decay, seed=args.seed)


def _split(dataset: Dataset, val_fraction: float, seed: int, source: str):
    """(train, val) with ``val_fraction`` of ``dataset`` held out."""
    if not 0 < val_fraction < 1:  # named as read, not as the train fraction
        raise ConfigError(f"{source} must be in (0, 1), got {val_fraction}")
    return split(dataset, 1.0 - val_fraction, seed)


def _build_quantum(args, dataset: Dataset):
    needed = required_qubits(dataset.signal_len)
    qubits = args.qubits if args.qubits is not None else needed
    if qubits < needed:
        raise ConfigError(
            f"--qubits {qubits} too small: signals of length "
            f"{dataset.signal_len} need at least {needed} qubits"
        )
    model = circuit.build_model(qubits, args.group_size, dataset.num_classes,
                                seed=args.seed)
    meta = {
        "num_qubits": qubits,
        "group_size": args.group_size,
        "num_classes": dataset.num_classes,
        "signal_len": dataset.signal_len,
    }
    return model, grad.loss_and_gradients, circuit.forward_batch, meta


def _build_classical(args, dataset: Dataset):
    model = baseline.build_mlp(dataset.signal_len, args.hidden,
                               dataset.num_classes, seed=args.seed)
    meta = {
        "layer_widths": list(model.layer_widths),
        "num_classes": dataset.num_classes,
        "signal_len": dataset.signal_len,
    }
    return model, baseline.mlp_gradients, baseline.mlp_forward_batch, meta


_BUILDERS = {"quantum": _build_quantum, "classical": _build_classical}


def _run_training(args, dataset, kind, built, out_dir: Path):
    """Train the ``built`` (model, loss_grad_fn, predict_fn, meta) of ``kind``
    and write its checkpoint, metrics and curves into ``out_dir``."""
    model, loss_grad_fn, predict_fn, meta = built
    cfg = _train_config(args)
    train_set, val_set = _split(dataset, args.val_fraction, args.seed, "--val-fraction")
    model, report = train_loop(model, train_set.samples, val_set.samples,
                               cfg, loss_grad_fn, predict_fn)
    meta.update({
        "seed": args.seed,
        "val_fraction": args.val_fraction,
        "train_config": asdict(cfg),
        "num_params": len(model.theta),
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.json", kind, model, meta)
    write_metrics_json(report, out_dir / "metrics.json",
                       config={"model": kind, **meta})
    write_curves_csv(report, out_dir / "curves.csv")
    return model, report, meta, predict_fn


def _final_line(kind: str, report, meta) -> str:
    if report.final is None:
        return f"{kind}: no epochs run ({meta['num_params']} params)"
    r = report.final
    return (f"{kind}: epoch {r.epoch}  val loss {r.val_loss:.4f}  "
            f"val accuracy {r.val_accuracy:.4f}  val auc {r.val_auc:.4f}  "
            f"params {meta['num_params']}  ({report.wall_seconds:.1f}s)")


# --- commands -------------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes, signal_len=args.len,
        num_samples=args.samples, seed=args.seed,
        region_size=args.region_size, template_gain=args.gain,
        noise_sigma=args.noise_sigma, label_density=args.label_density,
    )
    dataset = generate_synthetic(spec)
    out = Path(args.out)
    with _output_lock(out):
        csv_path, manifest_path = save_dataset(dataset, out, spec)
    print(f"wrote {csv_path} and {manifest_path}")
    print(f"samples {len(dataset)}  classes {dataset.num_classes}  "
          f"length {dataset.signal_len}  seed {spec.seed}")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    with _output_lock(out):
        built = _BUILDERS[args.model](args, dataset)
        _, report, meta, _ = _run_training(args, dataset, args.model, built, out)
    print(_final_line(args.model, report, meta))
    return EXIT_OK


def cmd_eval(args) -> int:
    kind, model, predict_fn, doc = load_model(args.model_path)
    dataset = load_dataset(args.data)
    _check_compatible(doc, dataset)
    if args.split == "all":
        samples = dataset.samples
    else:
        train_set, val_set = _split(dataset, _require(doc, "val_fraction", float),
                                    _require(doc, "seed", int),
                                    "checkpoint field 'val_fraction'")
        samples = (train_set if args.split == "train" else val_set).samples
    signals, labels, _ = stack_samples(samples)
    metrics = evaluate(model, signals, labels, predict_fn)
    print(f"split {args.split}  samples {len(samples)}")
    print(f"loss {metrics.loss:.17g}")
    print(f"accuracy {metrics.accuracy:.17g}")
    print(f"auc {metrics.auc:.17g}")
    out = Path(args.out)
    with _output_lock(out):
        doc_out = {
            "split": args.split, "num_samples": len(samples),
            "loss": metrics.loss, "accuracy": metrics.accuracy,
            "auc": metrics.auc, "model": kind,
        }
        write_json(out / "metrics.json", doc_out)
    return EXIT_OK


def cmd_predict(args) -> int:
    kind, model, predict_fn, doc = load_model(args.model_path)
    try:
        dataset = load_dataset(args.data)
    except EmptyDatasetError as err:
        print(f"warning: {err}; nothing to predict", file=sys.stderr)
        return EXIT_OK
    _check_compatible(doc, dataset)
    top = args.top if args.top is not None else dataset.num_classes
    if not 1 <= top <= dataset.num_classes:
        raise ConfigError(f"--top must be in [1, {dataset.num_classes}], got {top}")
    signals, _, ids = stack_samples(dataset)
    probs = predict_fn(model, signals)
    sys.stdout.reconfigure(encoding="utf-8")  # ids are UTF-8, as in the dataset file
    for sid, row in zip(ids, probs):
        order = np.argsort(-row, kind="stable")[:top]
        scores = "  ".join(f"class{c}={row[c]:.4f}" for c in order)
        print(f"{sid}  {scores}")
    if args.csv:
        write_lines(args.csv, chain(
            ["id," + ",".join(f"p{c}" for c in range(dataset.num_classes))],
            (sid + "," + ",".join(f"{v:.17g}" for v in row) for sid, row in zip(ids, probs))))
        print(f"wrote {args.csv}", file=sys.stderr)
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = circuit.build_model(args.qubits, args.group_size, args.classes)
    print(circuit.format_circuit(model))
    return EXIT_OK


def cmd_compare(args) -> int:
    dataset = load_dataset(args.data)
    out = Path(args.out)
    results = []
    with _output_lock(out):
        # both models are built, so their flags are checked, before either trains
        built = {kind: build(args, dataset) for kind, build in _BUILDERS.items()}
        for kind, parts in built.items():
            _, report, meta, _ = _run_training(args, dataset, kind, parts, out / kind)
            results.append((kind, report, meta))
            print(_final_line(kind, report, meta))
    print()
    print(f"{'model':<11}{'split':<7}{'loss':>10}{'accuracy':>10}"
          f"{'auc':>10}{'params':>9}")
    for kind, report, meta in results:
        r = report.final
        if r is None:
            continue
        for split_name, loss, acc, auc in (
            ("train", r.train_loss, r.train_accuracy, r.train_auc),
            ("val", r.val_loss, r.val_accuracy, r.val_auc),
        ):
            print(f"{kind:<11}{split_name:<7}{loss:>10.4f}{acc:>10.4f}"
                  f"{auc:>10.4f}{meta['num_params']:>9}")
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqcg",
        description="Hierarchical quantum control-gate classifier toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override flags")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--len", type=int, default=256)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--region-size", type=int, default=None)
    p.add_argument("--gain", type=float, default=6.0)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--label-density", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    def training_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--data", required=True)
        p.add_argument("--qubits", type=int, default=None)
        p.add_argument("--group-size", type=int, default=4)
        p.add_argument("--hidden", type=int, default=64)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--epochs", type=int, default=30)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--weight-decay", type=float, default=0.0)
        p.add_argument("--val-fraction", type=float, default=0.2)
        p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train one model and write a checkpoint")
    common(p)
    training_flags(p)
    p.add_argument("--model", choices=("quantum", "classical"), default="quantum")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recompute metrics for a checkpoint")
    common(p)
    p.add_argument("--model-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print per-sample class scores")
    common(p)
    p.add_argument("--model-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top", type=int, default=None,
                   help="show only the top-k classes per sample")
    p.add_argument("--csv", default=None, help="also write scores to this CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="print the gate listing and param counts")
    common(p)
    p.add_argument("--qubits", type=int, default=16)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--classes", type=int, default=8)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("compare",
                       help="train quantum and classical on identical data/seed")
    common(p)
    training_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def _config_value(key: str, value, action: argparse.Action):
    """``value`` checked against the type and choices its flag declares."""
    if value is None and action.default is None and not action.required:
        return None
    kind = action.type or str
    if not is_json_type(value, kind):
        raise ConfigError(
            f"config entry {key!r} must be of type {kind.__name__}, got {value!r}"
        )
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config entry {key!r} must be one of {', '.join(action.choices)}, "
            f"got {value!r}"
        )
    return kind(value)


def _apply_config_file(args, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    overrides = read_json_object(args.config, "config file")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in commands.choices[args.command]._actions
             if a.option_strings and a.dest != "help"}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ConfigError(f"config file sets unknown option {key!r}")
        setattr(args, dest, _config_value(key, value, flags[dest]))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args, parser)
        return args.func(args)
    except BrokenPipeError:
        # downstream reader (head, a pager) closed the pipe; leave quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (HqcgError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
