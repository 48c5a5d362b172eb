"""CLI commands: file outputs, exit codes, determinism, error surfaces."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import hqcg.circuit
import hqcg.cli
import hqcg.grad
from hqcg import ConfigError, ShapeError
from hqcg.baseline import mlp_param_count
from hqcg.cli import load_model, main

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_SYNTH = ["synth", "--classes", "3", "--len", "32", "--samples", "60",
               "--seed", "5"]
SMALL_TRAIN = ["--epochs", "2", "--batch-size", "16", "--qubits", "6",
               "--group-size", "3", "--seed", "5"]


def _synth(tmp_path, extra=()):
    data_dir = tmp_path / "data"
    code = main(SMALL_SYNTH + list(extra) + ["--out", str(data_dir)])
    assert code == 0
    return data_dir


def test_synth_writes_files_and_summary(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    assert (data_dir / "dataset.csv").exists()
    assert (data_dir / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "samples 60" in out and "classes 3" in out and "seed 5" in out


def test_synth_rerun_is_byte_identical(tmp_path):
    a = _synth(tmp_path / "a")
    b = _synth(tmp_path / "b")
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_synth_invalid_classes_exits_2(tmp_path, capsys):
    code = main(["synth", "--classes", "0", "--len", "32", "--samples", "10",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--gain", "nan"), ("--gain", "inf"), ("--noise-sigma", "nan"),
])
def test_synth_non_finite_spec_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    code = main(SMALL_SYNTH + [flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not (out / "dataset.csv").exists()


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert main(["synth", "--bogus", "1", "--out", str(tmp_path)]) == 2


def _train(tmp_path, data_dir, extra=(), out_name="run"):
    out_dir = tmp_path / out_name
    code = main(["train", "--data", str(data_dir), "--out", str(out_dir)]
                + SMALL_TRAIN + list(extra))
    return code, out_dir


def test_train_writes_checkpoint_and_reports(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    code, out_dir = _train(tmp_path, data_dir)
    assert code == 0
    for name in ("model.json", "metrics.json", "curves.csv"):
        assert (out_dir / name).exists()
    doc = json.loads((out_dir / "model.json").read_text())
    assert doc["kind"] == "quantum"
    assert doc["num_qubits"] == 6
    assert len(doc["theta"]) == doc["num_params"]
    assert "val accuracy" in capsys.readouterr().out


def test_train_classical_model(tmp_path):
    data_dir = _synth(tmp_path)
    code, out_dir = _train(tmp_path, data_dir, extra=["--model", "classical"],
                           out_name="clf")
    assert code == 0
    doc = json.loads((out_dir / "model.json").read_text())
    assert doc["kind"] == "classical"
    assert doc["layer_widths"] == [32, 64, 64, 3]


def test_train_too_few_qubits_exits_2(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                 "--qubits", "4", "--group-size", "2"])
    assert code == 2
    assert "need at least 5 qubits" in capsys.readouterr().err


def test_train_rerun_is_byte_identical(tmp_path):
    data_dir = _synth(tmp_path)
    _, out_a = _train(tmp_path, data_dir, out_name="a")
    _, out_b = _train(tmp_path, data_dir, out_name="b")
    for name in ("model.json", "metrics.json", "curves.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_eval_matches_training_curves(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    curves = (out_dir / "curves.csv").read_text().splitlines()
    last_val = [l for l in curves[1:] if l.split(",")[1] == "val"][-1].split(",")
    code = main(["eval", "--model-path", str(out_dir / "model.json"),
                 "--data", str(data_dir), "--split", "val",
                 "--out", str(tmp_path / "eval")])
    assert code == 0
    out = capsys.readouterr().out
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert metrics["loss"] == float(last_val[2])
    assert metrics["accuracy"] == float(last_val[3])
    assert metrics["auc"] == float(last_val[4])
    assert "accuracy" in out


def test_eval_corrupt_checkpoint_names_field(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "quantum", "theta": [0.0]}))
    code = main(["eval", "--model-path", str(bad), "--data", str(data_dir),
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert "num_qubits" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Data and one checkpoint of each kind, shared by tests that only read them."""
    root = tmp_path_factory.mktemp("trained")
    data_dir = _synth(root)
    docs = {}
    for kind in ("quantum", "classical"):
        code, out_dir = _train(root, data_dir, ["--model", kind], out_name=kind)
        assert code == 0
        docs[kind] = json.loads((out_dir / "model.json").read_text())
    return data_dir, docs


@pytest.mark.parametrize("kind, field, value", [
    ("quantum", "num_qubits", "4"),
    ("quantum", "num_qubits", True),
    ("quantum", "num_classes", "2"),
    ("quantum", "group_size", 2.0),
    ("quantum", "theta", "x"),
    ("classical", "layer_widths", "64"),
    ("quantum", "val_fraction", "0.2"),
    ("quantum", "seed", "7"),
    ("quantum", None, 3),
])
def test_eval_mistyped_checkpoint_field_exits_2(trained, tmp_path, capsys, kind,
                                                field, value):
    """A field of the wrong JSON type, or one entry of a list field, or a
    checkpoint that is no JSON object (field None) is a format error."""
    data_dir, docs = trained
    doc = json.loads(json.dumps(docs[kind]))
    if field is None:
        doc = value
    elif isinstance(doc[field], list):
        doc[field][1] = value
    else:
        doc[field] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", "--model-path", str(bad), "--data", str(data_dir),
                 "--out", str(tmp_path / "e")])
    assert code == 2
    assert (f"'{field}'" if field else "JSON object") in capsys.readouterr().err
    assert not (tmp_path / "e" / "metrics.json").exists()


@pytest.mark.parametrize("kind, field, value, error, message", [
    ("quantum", "num_qubits", 0, ConfigError,
     "qubit count 0 is not a positive multiple of group size 3"),
    ("quantum", "num_qubits", -3, ConfigError,
     "qubit count -3 is not a positive multiple of group size 3"),
    ("classical", "layer_widths", [32, -8, 8, 3], ShapeError,
     r"layer widths must be at least 1, got \(32, -8, 8, 3\)"),
], ids=["num_qubits-0", "num_qubits-minus-3", "layer_widths-minus-8"])
def test_load_model_out_of_range_geometry_names_value(trained, tmp_path, kind, field,
                                                      value, error, message):
    """Well-typed geometry that no model can have is rejected where it is
    used, by a message that names the value."""
    doc = dict(trained[1][kind], **{field: value})
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(error, match=message):
        load_model(bad)


@pytest.mark.parametrize("target", ["checkpoint", "manifest", "dataset", "config"])
def test_file_not_utf8_exits_2(trained, tmp_path, capsys, target):
    """A checkpoint, manifest, dataset or config file that is not valid UTF-8
    is a format error naming the file, not a traceback."""
    data_dir = tmp_path / "data"
    shutil.copytree(trained[0], data_dir)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained[1]["quantum"]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    bad = {"checkpoint": model, "manifest": data_dir / "manifest.json",
           "dataset": data_dir / "dataset.csv", "config": cfg}[target]
    bad.write_bytes(b"\xff")
    if target == "manifest":
        argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "r")] \
            + SMALL_TRAIN
    else:
        argv = ["eval", "--model-path", str(model), "--data", str(data_dir),
                "--out", str(tmp_path / "e")]
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_non_utf8_byte_in_a_later_row_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    csv = data_dir / "dataset.csv"
    csv.write_bytes(b"id,labels,v0\na,0,1\nb,1,2\n\xff,0,3\n")
    code, _ = _train(tmp_path, data_dir)
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot read dataset {csv}" in err and "Traceback" not in err


def test_train_mistyped_manifest_exits_2(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    (data_dir / "manifest.json").write_text(json.dumps({"num_classes": "3"}))
    code, out_dir = _train(tmp_path, data_dir)
    assert code == 2
    assert "num_classes" in capsys.readouterr().err
    assert not (out_dir / "model.json").exists()


def test_eval_mismatched_signal_length(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    other = tmp_path / "other"
    assert main(["synth", "--classes", "3", "--len", "16", "--samples", "20",
                 "--seed", "1", "--out", str(other)]) == 0
    code = main(["eval", "--model-path", str(out_dir / "model.json"),
                 "--data", str(other), "--out", str(tmp_path / "e2")])
    assert code == 2
    assert "signal length" in capsys.readouterr().err


def test_eval_mismatched_class_count(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    other = tmp_path / "other"
    assert main(["synth", "--classes", "2", "--len", "32", "--samples", "20",
                 "--seed", "1", "--out", str(other)]) == 0
    code = main(["eval", "--model-path", str(out_dir / "model.json"),
                 "--data", str(other), "--split", "all",
                 "--out", str(tmp_path / "e2")])
    assert code == 2
    assert "classes" in capsys.readouterr().err


def test_predict_mismatched_signal_length(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    other = tmp_path / "other"
    assert main(["synth", "--classes", "3", "--len", "16", "--samples", "20",
                 "--seed", "1", "--out", str(other)]) == 0
    capsys.readouterr()
    code = main(["predict", "--model-path", str(out_dir / "model.json"),
                 "--data", str(other)])
    assert code == 2
    captured = capsys.readouterr()
    assert "signal length" in captured.err
    assert captured.out == ""


def test_predict_top_k(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    code = main(["predict", "--model-path", str(out_dir / "model.json"),
                 "--data", str(data_dir), "--top", "2"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("s0")]
    assert len(lines) == 60
    assert all(line.count("class") == 2 for line in lines)


def test_predict_prints_into_a_redirected_stdout(trained, tmp_path):
    # a stream without reconfigure, as a caller capturing the scores passes;
    # it used to end in an AttributeError
    data_dir, docs = trained
    model = tmp_path / "model.json"
    model.write_text(json.dumps(docs["quantum"]))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["predict", "--model-path", str(model), "--data", str(data_dir)])
    assert code == 0
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 60 and all(line.startswith("s0") for line in lines)


def test_predict_csv_output(tmp_path):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    csv_path = tmp_path / "scores.csv"
    code = main(["predict", "--model-path", str(out_dir / "model.json"),
                 "--data", str(data_dir), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "id,p0,p1,p2"
    assert len(lines) == 61


def test_predict_csv_bytes_match_golden_digest(tmp_path):
    """Zero weights score exactly 0.5, so the digest pins the file format, not
    the arithmetic."""
    data_dir = _synth(tmp_path)
    widths = [32, 4, 4, 3]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "classical", "layer_widths": widths, "num_classes": 3,
        "signal_len": 32, "theta": [0.0] * mlp_param_count(widths)}))
    csv_path = tmp_path / "scores.csv"
    assert main(["predict", "--model-path", str(model), "--data", str(data_dir),
                 "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[1] == "s00000,0.5,0.5,0.5"
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
        "49c20942998bc038c67e0b91c1427c6d618e37474b9bb253a5f4d37ee2b5461b"


def test_predict_prints_non_ascii_ids_under_an_ascii_locale(tmp_path):
    # score lines are UTF-8, as the dataset is, whatever the locale: under
    # LC_ALL=C without UTF-8 mode printing the id used to raise a bare
    # UnicodeEncodeError (exit 1)
    import numpy as np
    from hqcg import Dataset, Sample, SyntheticSpec, save_dataset
    data_dir = tmp_path / "data"
    save_dataset(Dataset([Sample("caf\u00e9", np.array([1.0, -2.0]), np.array([0]))], 1, 2),
                 data_dir, SyntheticSpec(num_classes=1, signal_len=2, num_samples=1))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "classical", "layer_widths": [2, 2, 2, 1], "num_classes": 1,
        "signal_len": 2, "theta": [0.0] * mlp_param_count([2, 2, 2, 1])}))
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUTF8", None)
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "hqcg.cli", "predict",
                           "--model-path", str(model), "--data", str(data_dir)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert proc.stdout.decode("utf-8") == "caf\u00e9  class0=0.5000\n"


def test_predict_empty_dataset_warns_and_exits_0(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "dataset.csv").write_text("")
    code = main(["predict", "--model-path", str(out_dir / "model.json"),
                 "--data", str(empty)])
    assert code == 0
    assert "nothing to predict" in capsys.readouterr().err


def test_inspect_reports_counts(capsys):
    assert main(["inspect", "--qubits", "16", "--group-size", "4",
                 "--classes", "8"]) == 0
    out = capsys.readouterr().out
    assert "LQCG: 16 gates, 48 params" in out
    assert "GQCG: 4 gates, 12 params" in out
    assert "class states: 8 x 48 = 384 params" in out
    assert "total: 444 params" in out


def test_inspect_gate_listing_small(capsys):
    assert main(["inspect", "--qubits", "8", "--group-size", "4",
                 "--classes", "2"]) == 0
    out = capsys.readouterr().out
    assert "LQCG: 8 gates, 24 params" in out
    assert "GQCG: 2 gates, 6 params" in out
    assert "CU q3 -> q7" in out


def test_inspect_single_group_exits_2(capsys):
    assert main(["inspect", "--qubits", "4", "--group-size", "4",
                 "--classes", "2"]) == 2
    assert "two qubit groups" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    doc = json.loads((out_dir / "model.json").read_text())
    doc["theta"] = [float("inf")] * len(doc["theta"])
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))
    code = main(["eval", "--model-path", str(bad), "--data", str(data_dir),
                 "--out", str(tmp_path / "e3")])
    assert code == 3


@pytest.mark.parametrize("kind", ["quantum", "classical"])
def test_predict_non_finite_checkpoint_exits_3_without_scores(trained, tmp_path,
                                                               capsys, kind):
    """A NaN in theta is a numeric failure for either model kind: no score
    row is printed."""
    data_dir, docs = trained
    doc = dict(docs[kind], theta=[float("nan")] + docs[kind]["theta"][1:])
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    assert main(["predict", "--model-path", str(bad), "--data", str(data_dir)]) == 3
    out, err = capsys.readouterr()
    assert "class" not in out, out
    _error_line(err, "non-finite model parameters")


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classes": 2, "samples": 10}))
    data_dir = tmp_path / "cfgdata"
    code = main(["synth", "--classes", "6", "--len", "32", "--samples", "99",
                 "--seed", "0", "--out", str(data_dir), "--config", str(cfg)])
    assert code == 0
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["num_classes"] == 2
    assert manifest["num_samples"] == 10


def test_lock_file_blocks_concurrent_use(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    code = main(SMALL_SYNTH + ["--out", str(out)])
    assert code == 2
    assert "lock" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train", "compare", "eval"])
def test_locked_out_is_refused_before_any_work(trained, tmp_path, capsys, monkeypatch,
                                               command):
    data_dir, docs = trained

    def unreachable(*args, **kwargs):
        raise AssertionError("work started in a locked output directory")

    for name in ("generate_synthetic", "load_dataset", "load_model"):
        monkeypatch.setattr(hqcg.cli, name, unreachable)
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    argv = {
        "synth": SMALL_SYNTH,
        "train": ["train", "--data", str(data_dir)] + SMALL_TRAIN,
        "compare": ["compare", "--data", str(data_dir)] + SMALL_TRAIN,
        "eval": ["eval", "--model-path", str(tmp_path / "model.json"),
                 "--data", str(data_dir)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    _error_line(capsys.readouterr().err, "lock file")
    assert sorted(p.name for p in out.iterdir()) == [".lock"]


def test_compare_emits_table_and_both_runs(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    out = tmp_path / "cmp"
    code = main(["compare", "--data", str(data_dir), "--out", str(out)]
                + SMALL_TRAIN)
    assert code == 0
    for kind in ("quantum", "classical"):
        for name in ("model.json", "metrics.json", "curves.csv"):
            assert (out / kind / name).exists()
    table = capsys.readouterr().out
    assert "params" in table
    q_params = json.loads((out / "quantum/model.json").read_text())["num_params"]
    c_params = json.loads((out / "classical/model.json").read_text())["num_params"]
    assert str(q_params) in table and str(c_params) in table


def test_compare_reruns_bitwise_identical(tmp_path):
    data_dir = _synth(tmp_path)
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        assert main(["compare", "--data", str(data_dir), "--out", str(out)]
                    + SMALL_TRAIN) == 0
        outs.append(out)
    for kind in ("quantum", "classical"):
        for name in ("model.json", "metrics.json", "curves.csv"):
            assert (outs[0] / kind / name).read_bytes() == \
                (outs[1] / kind / name).read_bytes()


def test_train_qubit_validation_matches_length_256(tmp_path, capsys):
    # signals of length 256 need 8 qubits; asking for 6 is a config error
    data_dir = tmp_path / "wide"
    assert main(["synth", "--classes", "2", "--len", "256", "--samples", "12",
                 "--seed", "3", "--out", str(data_dir)]) == 0
    code = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "w"),
                 "--qubits", "6", "--group-size", "3"])
    assert code == 2
    assert "need at least 8 qubits" in capsys.readouterr().err


def test_eval_split_all(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    code = main(["eval", "--model-path", str(out_dir / "model.json"),
                 "--data", str(data_dir), "--split", "all",
                 "--out", str(tmp_path / "ea")])
    assert code == 0
    assert "samples 60" in capsys.readouterr().out


def test_predict_bad_top_exits_2_before_scoring(tmp_path, capsys, monkeypatch):
    data_dir = _synth(tmp_path)
    _, out_dir = _train(tmp_path, data_dir)
    calls = []
    monkeypatch.setattr(hqcg.circuit, "forward_batch",
                        lambda *args, **kwargs: calls.append(args))
    code = main(["predict", "--model-path", str(out_dir / "model.json"),
                 "--data", str(data_dir), "--top", "0"])
    assert code == 2
    assert "--top" in capsys.readouterr().err
    assert calls == []


def _config_run(tmp_path, argv, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    return main(argv + ["--config", str(cfg)])


def test_config_int_field_rejects_string_and_bool(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "r")] \
        + SMALL_TRAIN
    for value in ("2", True, 2.0):
        assert _config_run(tmp_path, argv, {"epochs": value}) == 2
        err = capsys.readouterr().err
        assert "'epochs'" in err and "int" in err
    assert not (tmp_path / "r" / "model.json").exists()


def test_config_float_field_rejects_string(tmp_path, capsys):
    argv = SMALL_SYNTH + ["--out", str(tmp_path / "d")]
    assert _config_run(tmp_path, argv, {"noise-sigma": "0.3"}) == 2
    err = capsys.readouterr().err
    assert "'noise-sigma'" in err and "float" in err
    assert not (tmp_path / "d").exists()
    # an integer is a valid float and is stored as one
    assert _config_run(tmp_path, argv, {"gain": 6, "noise-sigma": 0}) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["spec"]["noise_sigma"] == 0.0
    assert isinstance(manifest["spec"]["template_gain"], float)


def test_config_choices_field_rejects_unknown_value(tmp_path, capsys):
    data_dir = _synth(tmp_path)
    argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "r")] \
        + SMALL_TRAIN
    assert _config_run(tmp_path, argv, {"model": "svm"}) == 2
    err = capsys.readouterr().err
    assert "'model'" in err and "quantum, classical" in err
    assert not (tmp_path / "r" / "model.json").exists()



def _error_line(err: str, text: str) -> None:
    """One ``error:`` line naming ``text``, and no traceback."""
    assert err.count("error:") == 1 and text in err, err
    assert "Traceback" not in err, err


@pytest.mark.parametrize("command", ["synth", "train-quantum", "train-classical", "eval"])
def test_negative_seed_exits_2_naming_the_seed(trained, tmp_path, capsys, command):
    data_dir, docs = trained
    out = str(tmp_path / "out")
    if command == "synth":
        argv = SMALL_SYNTH + ["--seed", "-1", "--out", out]
    elif command == "eval":
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(dict(docs["quantum"], seed=-1)))
        argv = ["eval", "--model-path", str(bad), "--data", str(data_dir), "--out", out]
    else:
        argv = ["train", "--data", str(data_dir), "--out", out] + SMALL_TRAIN \
            + ["--seed", "-1", "--model", command.split("-")[1]]
    assert main(argv) == 2
    _error_line(capsys.readouterr().err, "seed must be >= 0, got -1")


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command", ["eval", "predict", "inspect"])
def test_seed_exits_2_where_nothing_is_drawn(trained, tmp_path, capsys, command, how):
    """eval splits with the checkpoint's seed, predict and inspect draw nothing."""
    data_dir, docs = trained
    model = tmp_path / "model.json"
    model.write_text(json.dumps(docs["quantum"]))
    argv = {
        "eval": ["eval", "--model-path", str(model), "--data", str(data_dir),
                 "--out", str(tmp_path / "out")],
        "predict": ["predict", "--model-path", str(model), "--data", str(data_dir)],
        "inspect": ["inspect", "--qubits", "8", "--group-size", "4"],
    }[command]
    if how == "flag":
        assert main(argv + ["--seed", "0"]) == 2
        out, err = capsys.readouterr()
        assert "unrecognized arguments: --seed 0" in err
    else:
        assert _config_run(tmp_path, argv, {"seed": 0}) == 2
        out, err = capsys.readouterr()
        _error_line(err, "config file sets unknown option 'seed'")
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("hidden", ["0", "-1"])
def test_non_positive_hidden_exits_2_before_training(trained, tmp_path, capsys,
                                                     monkeypatch, command, hidden):
    calls = []
    step = hqcg.grad.loss_and_gradients

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(hqcg.grad, "loss_and_gradients", counting)
    argv = [command, "--data", str(trained[0]), "--out", str(tmp_path / "r")] \
        + SMALL_TRAIN + ["--hidden", hidden]
    assert main(argv + (["--model", "classical"] if command == "train" else [])) == 2
    _error_line(capsys.readouterr().err, f"layer widths must be at least 1, got (32, {hidden}")
    assert calls == []


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("fraction", ["1.5", "0"])
def test_out_of_range_val_fraction_is_named_as_given(trained, tmp_path, capsys,
                                                     command, fraction):
    # split takes the train fraction; the message names the one the user gave
    argv = [command, "--data", str(trained[0]), "--out", str(tmp_path / "r")] \
        + SMALL_TRAIN + ["--val-fraction", fraction]
    assert main(argv) == 2
    _error_line(capsys.readouterr().err,
                f"--val-fraction must be in (0, 1), got {float(fraction)}")


def test_eval_out_of_range_checkpoint_val_fraction_names_the_field(trained, tmp_path,
                                                                  capsys):
    data_dir, docs = trained
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(dict(docs["quantum"], val_fraction=1.5)))
    assert main(["eval", "--model-path", str(bad), "--data", str(data_dir),
                 "--out", str(tmp_path / "e")]) == 2
    _error_line(capsys.readouterr().err,
                "checkpoint field 'val_fraction' must be in (0, 1), got 1.5")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_eval_every_is_refused(trained, tmp_path, capsys, command, how):
    """Every epoch is evaluated; no setting changes that."""
    argv = [command, "--data", str(trained[0]), "--out", str(tmp_path / "r")] \
        + SMALL_TRAIN
    if how == "flag":
        assert main(argv + ["--eval-every", "2"]) == 2
        assert "unrecognized arguments: --eval-every 2" in capsys.readouterr().err
    else:
        assert _config_run(tmp_path, argv, {"eval_every": 2}) == 2
        _error_line(capsys.readouterr().err, "config file sets unknown option 'eval_every'")
    assert not (tmp_path / "r").exists()


def test_inspect_above_qubit_cap_exits_2(capsys):
    assert main(["inspect", "--qubits", "27", "--group-size", "3"]) == 2
    _error_line(capsys.readouterr().err, "qubit count 27 is above the 26-qubit cap")


# Run in a child whose address space is capped at 2 GiB: without the cap
# check these commands end in a MemoryError (exit 1), not in host exhaustion.
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from hqcg.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["predict-40-qubits", "train-27-qubits",
                                     "inspect-1e9-qubits"])
def test_above_qubit_cap_exits_2_before_allocating(trained, tmp_path, command):
    data_dir, docs = trained
    if command == "train-27-qubits":
        argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                "--qubits", "27", "--group-size", "3", "--epochs", "1"]
        count = 27
    elif command == "inspect-1e9-qubits":
        # a valid layout of 5 * 10^8 groups: only the cap stops the layer build
        count = 10**9
        argv = ["inspect", "--qubits", str(count), "--group-size", "2"]
    else:
        # a well-formed 40-qubit checkpoint: 10 groups of 4, 3 classes
        theta = [0.0] * (3 * 40 + 3 * 10 + 3 * 40 * 3)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(dict(docs["quantum"], num_qubits=40, group_size=4,
                                       theta=theta)))
        argv = ["predict", "--model-path", str(bad), "--data", str(data_dir)]
        count = 40
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)),
        OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    _error_line(proc.stderr, f"qubit count {count} is above the 26-qubit cap")


@pytest.mark.skipif(shutil.which("hqcg") is None,
                    reason="console script not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["hqcg", "inspect", "--qubits", "8", "--group-size", "4",
         "--classes", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "LQCG: 8 gates, 24 params" in proc.stdout
