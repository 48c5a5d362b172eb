"""Synthetic generation, CSV round trips, schema errors, and splitting."""

import json
import re

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
from oracles import linear_probe_class_aucs


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
    with pytest.raises(ConfigError):
        _spec(label_density=0.0)


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


def test_save_is_byte_deterministic(tmp_path):
    ds = generate_synthetic(_spec())
    save_dataset(ds, tmp_path / "a", _spec())
    save_dataset(ds, tmp_path / "b", _spec())
    assert (tmp_path / "a/dataset.csv").read_bytes() == \
        (tmp_path / "b/dataset.csv").read_bytes()
    assert (tmp_path / "a/manifest.json").read_bytes() == \
        (tmp_path / "b/manifest.json").read_bytes()


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
    (_one_sample(sid="x,0"), "id must not hold"),
    (_one_sample(sid="x\n0"), "id must not hold"),
    (_one_sample(sid="x\r0"), "id must not hold"),
    (_one_sample(sid="x\u20280"), "id must not hold"),
], ids=["nan", "inf", "short", "long", "2d", "labels-short", "labels-long",
        "id-comma", "id-newline", "id-return", "id-line-separator"])
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
