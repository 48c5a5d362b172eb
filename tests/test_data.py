"""Synthetic generation, CSV round trips, schema errors, and splitting."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hqcg import (
    ConfigError,
    DataFormatError,
    Dataset,
    EmptyDatasetError,
    Sample,
    SyntheticSpec,
    TrainReport,
    build_model,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
    write_metrics_json,
)
from hqcg.cli import save_model
from hqcg.data import class_templates, write_atomic
from hqcg.train import EpochRecord, write_curves_csv
from oracles import linear_probe_class_aucs, peak_traced_bytes


SRC = Path(__file__).resolve().parent.parent / "src"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the saved files: a change to how rows are written must keep
# these bytes
GOLDEN_SPEC_CSV = "555469af30b4eccd6cb1d18ac22d95bd6ae9a708a3cb2f1afb2c5d2cf3edee73"
GOLDEN_SPEC_MANIFEST = "b1dc84f790259178dda31d6285a5d621d55a22801208a83a26cc919d247ae3b3"
GOLDEN_MID_PREDICT_CSV = "bc0925a3d5c6f0f3b089346cf730e07e5ac1e453d2805a14f3c63879af6a474a"
GOLDEN_CURVES_CSV = "f2195634db33ddba9acc7af7fddb27f0ba792876fc579ca5a8a7242d40f66c55"


def _spec(**overrides):
    base = dict(num_classes=4, signal_len=64, num_samples=40, seed=3)
    base.update(overrides)
    return SyntheticSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigError):
        _spec(num_classes=0)
    with pytest.raises(ConfigError):
        _spec(region_size=20)  # 4 * 20 > 64
    with pytest.raises(ConfigError):
        _spec(noise_sigma=-1.0)
    # below 1e-3 a sample takes over a thousand draws to get a label
    for density in (0.0, 5e-4, 1e-300):
        with pytest.raises(ConfigError, match=r"label_density must be in \[0.001, "):
            _spec(label_density=density)


def test_region_size_default_covers_half_signal():
    spec = SyntheticSpec(num_classes=4, signal_len=256, num_samples=1)
    assert spec.region_size == 32


def test_noiseless_single_class_is_block_supported():
    spec = _spec(noise_sigma=0.0, label_density=0.1, num_samples=60)
    ds = generate_synthetic(spec)
    w = spec.region_size
    single = [s for s in ds.samples if s.labels.sum() == 1]
    assert single
    for s in single:
        c = s.active_classes()[0]
        support = np.flatnonzero(s.values != 0)
        assert support.min() >= c * w and support.max() < (c + 1) * w


def test_every_sample_has_a_label():
    ds = generate_synthetic(_spec(label_density=0.05))
    assert all(s.labels.sum() >= 1 for s in ds.samples)


def test_generation_determinism():
    a = generate_synthetic(_spec())
    b = generate_synthetic(_spec())
    for sa, sb in zip(a.samples, b.samples):
        assert sa.id == sb.id
        np.testing.assert_array_equal(sa.values, sb.values)
        np.testing.assert_array_equal(sa.labels, sb.labels)


def test_energy_monotone_in_active_classes():
    spec = _spec(noise_sigma=0.0)
    templates = class_templates(spec)
    gain = spec.template_gain
    base = np.linalg.norm(gain * templates[0])
    both = np.linalg.norm(gain * (templates[0] + templates[1]))
    assert both >= base


def test_csv_round_trip_exact(tmp_path):
    ds = generate_synthetic(_spec())
    save_dataset(ds, tmp_path, _spec())
    back = load_dataset(tmp_path)
    assert back.num_classes == ds.num_classes
    assert back.signal_len == ds.signal_len
    for sa, sb in zip(ds.samples, back.samples):
        assert sa.id == sb.id
        np.testing.assert_array_equal(sa.values, sb.values)
        np.testing.assert_array_equal(sa.labels, sb.labels)


_ASCII_LOCALE_ROUND_TRIP = """
import locale, sys
import numpy as np
from hqcg import Dataset, Sample, SyntheticSpec, load_dataset, save_dataset
assert locale.getpreferredencoding(False).lower() in ("ascii", "ansi_x3.4-1968")
ids = ["caf\\u00e9", "\\u03b8-\\u6ce2"]
ds = Dataset([Sample(i, np.array([1.0, -2.0]), np.array([1])) for i in ids], 1, 2)
save_dataset(ds, sys.argv[1], SyntheticSpec(num_classes=1, signal_len=2, num_samples=2))
assert [s.id for s in load_dataset(sys.argv[1]).samples] == ids
"""


def test_non_ascii_ids_round_trip_under_an_ascii_locale(tmp_path):
    # files are written in UTF-8, which is how they are read, whatever the
    # locale: under LC_ALL=C without UTF-8 mode saving used to raise a bare
    # UnicodeEncodeError
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUTF8", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", _ASCII_LOCALE_ROUND_TRIP,
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "\ncaf\u00e9,0,1,-2\n" in (tmp_path / "dataset.csv").read_text(encoding="utf-8")


def test_save_is_byte_deterministic(tmp_path):
    ds = generate_synthetic(_spec())
    save_dataset(ds, tmp_path / "a", _spec())
    save_dataset(ds, tmp_path / "b", _spec())
    assert (tmp_path / "a/dataset.csv").read_bytes() == \
        (tmp_path / "b/dataset.csv").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == \
        (tmp_path / "b/manifest.json").read_bytes()


def test_saved_bytes_match_golden_digests(tmp_path):
    save_dataset(generate_synthetic(_spec()), tmp_path, _spec())
    assert _sha256(tmp_path / "dataset.csv") == GOLDEN_SPEC_CSV
    assert _sha256(tmp_path / "manifest.json") == GOLDEN_SPEC_MANIFEST


def test_curves_csv_bytes_match_golden_digest(tmp_path):
    report = TrainReport([
        EpochRecord(1, 0.6931471805599453, 0.5, 0.75, 0.7, 0.25, 1.0, 0.01),
        EpochRecord(2, 0.1, 1 / 3, 2 / 3, 5e-324, 0.0, 0.5, 1e-300),
    ])
    write_curves_csv(report, tmp_path / "curves.csv")
    assert (tmp_path / "curves.csv").read_text().splitlines()[2] == \
        "1,val,0.69999999999999996,0.25,1,0.01"
    assert _sha256(tmp_path / "curves.csv") == GOLDEN_CURVES_CSV


def test_value_fields_are_17_significant_digits(tmp_path):
    row = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0, -1.5,
                    1e300, 123456789012345678.0])
    rows = [row, -row[::-1]]
    # a sample whose values are a list saves as the same array would
    ds = Dataset([Sample("x0", rows[0], np.array([1, 0])),
                  Sample("x1", rows[1].tolist(), np.array([1, 1]))],
                 num_classes=2, signal_len=len(row))
    save_dataset(ds, tmp_path)
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    for line, r in zip(lines[1:], rows):
        assert line.split(",", 2)[2] == ",".join(f"{v:.17g}" for v in r)
    back = load_dataset(tmp_path)
    for r, s in zip(rows, back.samples):
        assert s.values.dtype == np.float64
        np.testing.assert_array_equal(s.values.view(np.int64), r.view(np.int64))


def test_mid_predict_geometry_round_trips_exactly(tmp_path):
    spec = SyntheticSpec(num_classes=4, signal_len=4096, num_samples=160, seed=1)
    ds = generate_synthetic(spec)
    save_dataset(ds, tmp_path, spec)
    assert _sha256(tmp_path / "dataset.csv") == GOLDEN_MID_PREDICT_CSV
    back = load_dataset(tmp_path)
    assert [s.id for s in back.samples] == [s.id for s in ds.samples]
    np.testing.assert_array_equal(np.stack([s.values for s in back.samples]),
                                  np.stack([s.values for s in ds.samples]))
    np.testing.assert_array_equal(np.stack([s.labels for s in back.samples]),
                                  np.stack([s.labels for s in ds.samples]))


def _one_sample(sid="x0", values=(0.5, -1.0, 2.0), labels=(0, 1)):
    return Sample(sid, np.array(values, dtype=np.float64), np.array(labels))


@pytest.mark.parametrize("sample, message", [
    (_one_sample(values=(0.5, np.nan, 2.0)), "NaN or Inf"),
    (_one_sample(values=(0.5, np.inf, 2.0)), "NaN or Inf"),
    (_one_sample(values=(0.5, -1.0)), "values have shape"),
    (_one_sample(values=(0.5, -1.0, 2.0, 3.0)), "values have shape"),
    (_one_sample(values=[[0.5, -1.0, 2.0]]), "values have shape"),
    (_one_sample(labels=(1,)), "labels have shape"),
    (_one_sample(labels=(0, 1, 0)), "labels have shape"),
    (_one_sample(labels=(0, 2)), "labels must be 0 or 1"),
    (_one_sample(labels=(1, -1)), "labels must be 0 or 1"),
    (_one_sample(labels=(0.5, 0)), "labels must be 0 or 1"),
    (_one_sample(labels=(np.nan, 1)), "labels must be 0 or 1"),
    (_one_sample(sid="x,0"), "id must not hold"),
    (_one_sample(sid="x\n0"), "id must not hold"),
    (_one_sample(sid="x\r0"), "id must not hold"),
    (_one_sample(sid="x\u20280"), "id must not hold"),
], ids=["nan", "inf", "short", "long", "2d", "labels-short", "labels-long",
        "label-two", "label-minus-one", "label-half", "label-nan", "id-comma",
        "id-newline", "id-return", "id-line-separator"])
def test_save_refuses_what_load_rejects(tmp_path, sample, message):
    ds = Dataset([_one_sample("ok"), sample], num_classes=2, signal_len=3)
    match = re.escape(f"sample {sample.id!r}: {message}")
    with pytest.raises(DataFormatError, match=match):
        save_dataset(ds, tmp_path / "out")
    assert not (tmp_path / "out" / "dataset.csv").exists()


@pytest.mark.parametrize("dataset, error", [
    (Dataset([], num_classes=2, signal_len=3), EmptyDatasetError),
    (Dataset([_one_sample(values=())], num_classes=2, signal_len=0),
     DataFormatError),
    (Dataset([_one_sample(labels=())], num_classes=0, signal_len=3),
     DataFormatError),
], ids=["no-samples", "no-values", "no-classes"])
def test_save_refuses_empty_geometry(tmp_path, dataset, error):
    with pytest.raises(error):
        save_dataset(dataset, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _write_half_then_fail(fh):
    fh.write('{"half": ')
    raise RuntimeError("serialiser failed")


@pytest.mark.parametrize("writer, error", [
    (lambda path: write_atomic(path, _write_half_then_fail), RuntimeError),
    # json.dump streams, so these fail after part of the document is written
    (lambda path: save_model(path, "quantum", build_model(4, 2, 2), {"zz": object()}),
     TypeError),
    (lambda path: write_metrics_json(TrainReport(), path, config={"bad": object()}),
     TypeError),
], ids=["write_atomic", "save_model", "write_metrics_json"])
def test_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path, writer, error):
    path = tmp_path / "out.json"
    save_model(path, "quantum", build_model(4, 2, 2), {"seed": 1})
    before = path.read_bytes()
    with pytest.raises(error):
        writer(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_short_row_names_line(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("id,labels,v0,v1\nx0,0,0.5\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path)


def test_bad_float_names_line(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("id,labels,v0\nx0,0,oops\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path)


def test_nan_rejected(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("id,labels,v0\nx0,0,nan\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path)


@pytest.mark.parametrize("token, expect", [
    ("", "non-numeric"), ("0x10", "non-numeric"), ("#1", "non-numeric"),
    ("abc", "non-numeric"),
    ("nan", "NaN or Inf"), ("inf", "NaN or Inf"), ("1e999", "NaN or Inf"),
    (" 1.5", 1.5), ("+1e3", 1000.0),
])
def test_value_token_acceptance(tmp_path, token, expect):
    """The loader accepts and rejects the tokens ``float()`` does."""
    path = tmp_path / "dataset.csv"
    path.write_text(f"id,labels,v0,v1\nx0,0,0.25,{token}\n")
    if isinstance(expect, float):
        assert load_dataset(path).samples[0].values.tolist() == [0.25, expect]
    else:
        with pytest.raises(DataFormatError, match=f"line 2: {expect}"):
            load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


def test_header_only_rejected(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("id,labels,v0\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


# every line break str.splitlines knows; "\r\n" is one break
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("final", ["", "final-break"])
@pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
def test_rows_end_at_every_splitlines_break(tmp_path, brk, final):
    path = tmp_path / "dataset.csv"
    text = brk.join(["id,labels,v0,v1", "a,0,0.5,1", "b,1,2,-3"])
    path.write_bytes((text + (brk if final else "")).encode())
    ds = load_dataset(path)
    assert [s.id for s in ds.samples] == ["a", "b"]
    assert [s.values.tolist() for s in ds.samples] == [[0.5, 1.0], [2.0, -3.0]]


def test_mixed_breaks_give_the_rows_of_splitlines(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes("id,labels,v0\r\na,0,1\rb,0,2\x85c,0,3\u2028d,0,4\u2029e,0,5"
                     "\x1cf,0,6\x1dg,0,7\x1eh,0,8\vi,0,9\fj,0,10\r\n".encode())
    ds = load_dataset(path)
    assert [s.id for s in ds.samples] == list("abcdefghij")
    assert [s.values.tolist() for s in ds.samples] == [[v] for v in range(1, 11)]


@pytest.mark.parametrize("text, message", [
    ("id,labels,v0\n\na,0,1\n", "line 2: expected 3 fields, got 1"),
    ("id,labels,v0\r\n\r\na,0,1", "line 2: expected 3 fields, got 1"),
    ("id,labels,v0\n\ra,0,1", "line 2: expected 3 fields, got 1"),
    ("id,labels,v0\na,0,1\r\rb,0,2", "line 3: expected 3 fields, got 1"),
    ("id,labels,v0\na,0,1\x85\x85b,0,2", "line 3: expected 3 fields, got 1"),
    ("id,labels,v0\na,0,1\u2028\nb,0,2", "line 3: expected 3 fields, got 1"),
    ("id,labels,v0\na,0,1\vb,0,2\f\fc,0,3", "line 4: expected 3 fields, got 1"),
    ("id,labels,v0\x85a,0,oops", "line 2: non-numeric signal value"),
    ("id,labels,v0\u2029a,0,1\x1db,9x,1\n", "line 3: bad label index '9x'"),
    ("id,labels,v0\fa,0,1\x1e\x1ec,0,1", "line 3: expected 3 fields, got 1"),
], ids=["blank-lf", "blank-crlf", "lf-then-cr", "cr-cr", "nel-nel", "ls-lf",
        "ff-ff", "nel-bad-value", "ps-gs-bad-label", "rs-rs"])
def test_error_line_numbers_count_splitlines_rows(tmp_path, text, message):
    path = tmp_path / "dataset.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_dataset(path)


# TextIOWrapper decodes 8 KiB at a time, so a break can straddle two reads
@pytest.mark.parametrize("brk", ["\r\n", "\u2028"], ids=ascii)
def test_break_across_a_read_boundary(tmp_path, brk):
    header = "id,labels,v0\n"
    long_id = "x" * (8191 - len(header) - len(",0,1"))
    assert len(header + long_id + ",0,1") == 8191
    path = tmp_path / "dataset.csv"
    path.write_bytes((header + long_id + ",0,1" + brk + "b,0,2\n").encode())
    assert [s.id for s in load_dataset(path).samples] == [long_id, "b"]


def test_non_utf8_byte_in_a_later_row_is_a_format_error(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_bytes(b"id,labels,v0\na,0,1\nb,0,2\n\xff,0,3\n")
    with pytest.raises(DataFormatError, match=f"cannot read dataset {re.escape(str(path))}"):
        load_dataset(path)


@pytest.fixture(scope="module")
def wide_dataset():
    """200 samples of 1024 values, about 20 KiB of CSV text a row."""
    spec = SyntheticSpec(num_classes=4, signal_len=1024, num_samples=200, seed=11)
    return spec, generate_synthetic(spec)


def _row_bytes(csv_path, dataset) -> float:
    return csv_path.stat().st_size / (len(dataset) + 1)


def test_save_holds_a_few_rows_of_text(tmp_path, wide_dataset):
    spec, ds = wide_dataset
    peak = peak_traced_bytes(lambda: save_dataset(ds, tmp_path, spec))
    assert peak < 32 * _row_bytes(tmp_path / "dataset.csv", ds)


def test_load_holds_a_few_rows_of_text_beyond_its_result(tmp_path, wide_dataset):
    spec, ds = wide_dataset
    save_dataset(ds, tmp_path, spec)
    peak = peak_traced_bytes(lambda: load_dataset(tmp_path))
    assert peak < 32 * _row_bytes(tmp_path / "dataset.csv", ds)


class _UnformattableSample(Sample):
    def active_classes(self):
        raise RuntimeError("row formatting failed")


def test_failed_row_keeps_earlier_csv_and_leaves_no_temp(tmp_path, wide_dataset):
    spec, ds = wide_dataset
    save_dataset(ds, tmp_path, spec)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    bad = ds.samples[150]
    samples = ds.samples[:150] + [_UnformattableSample(bad.id, bad.values, bad.labels)]
    # 150 rows, about 3 MiB, reach the temporary file before the failing row
    with pytest.raises(RuntimeError, match="row formatting failed"):
        save_dataset(Dataset(samples, ds.num_classes, ds.signal_len), tmp_path, spec)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_label_out_of_range_with_manifest(tmp_path):
    ds = generate_synthetic(_spec(num_classes=2, signal_len=8))
    save_dataset(ds, tmp_path, _spec(num_classes=2, signal_len=8))
    csv = tmp_path / "dataset.csv"
    text = csv.read_text().splitlines()
    fields = text[1].split(",")
    fields[1] = "5"
    text[1] = ",".join(fields)
    csv.write_text("\n".join(text) + "\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("manifest", [
    {"num_classes": "2"}, {"num_classes": 2.5}, {"num_classes": True},
    {"num_classes": 0}, {"signal_len": 8}, [2],
])
def test_mistyped_manifest_rejected(tmp_path, manifest):
    spec = _spec(num_classes=2, signal_len=8)
    save_dataset(generate_synthetic(spec), tmp_path, spec)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match="manifest"):
        load_dataset(tmp_path)


def test_split_sizes_and_union():
    ds = generate_synthetic(_spec(num_samples=10))
    train, val = split(ds, 0.8, seed=4)
    assert (len(train), len(val)) == (8, 2)
    ids = sorted(s.id for s in train.samples + val.samples)
    assert ids == sorted(s.id for s in ds.samples)


def test_split_determinism():
    ds = generate_synthetic(_spec(num_samples=30))
    a_train, _ = split(ds, 0.7, seed=9)
    b_train, _ = split(ds, 0.7, seed=9)
    assert [s.id for s in a_train.samples] == [s.id for s in b_train.samples]


def test_split_degenerate_fraction():
    ds = generate_synthetic(_spec(num_samples=3))
    with pytest.raises(ConfigError):
        split(ds, 0.01, seed=0)  # floor(3 * 0.01) = 0: empty side
    with pytest.raises(ConfigError):
        split(ds, 1.5, seed=0)


def test_linear_probe_learnability_at_unit_gain():
    # full-size task stays linearly separable even at gain 1
    spec = SyntheticSpec(num_classes=4, signal_len=256, num_samples=2000,
                         seed=3, template_gain=1.0, noise_sigma=0.3)
    ds = generate_synthetic(spec)
    signals = np.stack([s.values for s in ds.samples])
    labels = np.stack([s.labels for s in ds.samples]).astype(float)
    aucs = linear_probe_class_aucs(signals, labels)
    assert min(aucs) >= 0.95
