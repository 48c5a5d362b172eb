"""Loss values, schedule, optimizer oracle, metrics, and loop determinism."""

import ast
import dataclasses
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hqcg
from hqcg import (
    ConfigError,
    ShapeError,
    TrainConfig,
    UndefinedMetricError,
    accuracy,
    adamw_step,
    build_mlp,
    cosine_lr,
    macro_auc,
    mlp_forward_batch,
    mlp_gradients,
    roc_auc,
    train_loop,
)
from hqcg.baseline import mlp_param_count
from hqcg.data import Sample
from hqcg.train import bce_rows
from oracles import pairwise_auc, reference_adamw


@pytest.mark.parametrize("case", ["int64", "float32", "list", "short"])
def test_theta_must_be_a_float64_vector_of_num_params(case):
    # the forward memo keys on the raw bytes of theta and reads them back as
    # float64, so a vector of any other type or length is refused, not read
    rng = np.random.default_rng(3)
    signals = rng.normal(size=(5, 64))
    labels = (rng.random((5, 3)) < 0.5).astype(float)
    checks = [
        (hqcg.build_model(6, 2, 3, seed=0),
         [hqcg.forward_batch, lambda m, s: hqcg.loss_and_gradients(m, s, labels),
          lambda m, s: hqcg.batch_loss(m, s, labels)]),
        (build_mlp(64, 4, 3, seed=0),
         [mlp_forward_batch, lambda m, s: mlp_gradients(m, s, labels)]),
    ]
    for model, calls in checks:
        size, want = model.num_params, model.theta
        theta, got = {"int64": (np.ones(size, np.int64), f"int64 of shape ({size},)"),
                      "float32": (np.ones(size, np.float32), f"float32 of shape ({size},)"),
                      "list": ([1.0] * size, "list"),
                      "short": (np.ones(size - 1), f"float64 of shape ({size - 1},)")}[case]
        message = f"theta must be a float64 vector of {size} entries, got {got}"
        model.theta = theta
        for call in calls:
            with pytest.raises(ShapeError, match=re.escape(message) + "$"):
                call(model, signals)
        model.theta = want
        for call in calls:
            call(model, signals)


def _bce(probs, labels):
    """``bce_rows`` of one probability row against one label row."""
    return bce_rows(np.array([probs], dtype=float), np.array([labels], dtype=float))[0]


def test_bce_half_probabilities():
    assert abs(_bce([0.5, 0.5], [1, 0]) - np.log(2)) < 1e-12


def test_bce_exact_predictions_near_zero():
    assert _bce([1.0, 0.0], [1, 0]) < 1e-6


def test_bce_hand_value():
    # -(log 0.9 + log 0.9) / 2
    expected = -np.log(0.9)
    assert abs(_bce([0.9, 0.1], [1, 0]) - expected) < 1e-12


def test_bce_shape_mismatch():
    with pytest.raises(ShapeError):
        _bce([0.5], [1, 0])


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.01) == 0.01
    assert abs(cosine_lr(100, 100, 0.01)) < 1e-18
    assert abs(cosine_lr(50, 100, 0.01) - 0.005) < 1e-15


def test_cosine_validation():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 0.01)
    with pytest.raises(ConfigError):
        cosine_lr(5, 4, 0.01)


def test_adamw_zero_grad_zero_decay_is_identity():
    theta = np.array([1.0, -2.0])
    zeros = np.zeros(2)
    out, _, _ = adamw_step(theta, zeros, zeros, zeros, 1, 0.01, 0.0)
    np.testing.assert_array_equal(out, theta)


def test_adamw_first_step_hand_value():
    theta = np.array([1.0])
    g = np.array([0.5])
    out, m1, m2 = adamw_step(theta, g, np.zeros(1), np.zeros(1), 1, 0.01, 0.0)
    # mhat = 0.5, vhat = 0.25 -> step = 0.01 * 0.5 / (0.5 + 1e-8)
    assert abs(out[0] - (1.0 - 0.01 * 0.5 / (0.5 + 1e-8))) < 1e-15
    assert abs(out[0] - 0.99) < 1e-7


def test_adamw_pure_decay():
    theta = np.array([1.0])
    zeros = np.zeros(1)
    out, _, _ = adamw_step(theta, zeros, zeros, zeros, 1, 0.01, 0.1)
    assert abs(out[0] - 0.999) < 1e-15


def test_adamw_matches_independent_reference():
    rng = np.random.default_rng(3)
    for trial in range(100):
        p = int(rng.integers(1, 20))
        theta = rng.normal(size=p)
        grads = rng.normal(size=p)
        m1 = np.abs(rng.normal(size=p)) * 0.1
        m2 = np.abs(rng.normal(size=p)) * 0.1
        t = int(rng.integers(1, 50))
        lr = float(rng.uniform(1e-4, 0.05))
        weight_decay = float(rng.uniform(0.0, 0.1))
        got = adamw_step(theta, grads, m1, m2, t, lr, weight_decay)
        want = reference_adamw(theta, grads, m1, m2, t, lr, 0.9, 0.999, 1e-8,
                               weight_decay)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


def test_accuracy_examples():
    assert accuracy([[0.9, 0.1]], [[1, 0]]) == 1.0
    assert accuracy([[0.1, 0.9]], [[1, 0]]) == 0.0
    assert accuracy([[0.9, 0.4]], [[1, 1]]) == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_accuracy_rejects_non_finite_scores(bad):
    with pytest.raises(hqcg.NumericError):
        accuracy([[bad]], [[0]])
    with pytest.raises(hqcg.NumericError):
        accuracy([[0.9, bad]], [[1, 0]])


def test_roc_auc_perfect_and_partial():
    assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.9, 0.6, 0.4, 0.1], [1, 0, 1, 0]) == 0.75


def test_roc_auc_all_ties():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_auc_rejects_non_finite_scores(bad):
    with pytest.raises(hqcg.NumericError):
        roc_auc([bad, 0.5, 0.2], [1, 0, 0])
    # checked before the labels, so a one-label input raises it too
    with pytest.raises(hqcg.NumericError):
        roc_auc([bad, 0.5], [1, 1])


def test_roc_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.5, 0.6], [1, 1])


def test_roc_auc_monotone_invariance():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=40)
    labels = rng.random(40) < 0.4
    if labels.all() or not labels.any():
        labels[0] = True
        labels[1] = False
    base = roc_auc(scores, labels)
    assert roc_auc(3 * scores + 7, labels) == base
    assert abs(roc_auc(np.tanh(scores), labels) - base) < 1e-12


def test_roc_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = np.round(rng.normal(size=30), 1)  # rounding forces ties
        labels = rng.random(30) < 0.5
        if labels.all() or not labels.any():
            continue
        assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_macro_auc_skips_degenerate_class():
    probs = np.array([[0.9, 0.2], [0.1, 0.4], [0.8, 0.3]])
    labels = np.array([[1, 1], [0, 1], [1, 1]])  # class 1 all-positive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = macro_auc(probs, labels)
    assert value == 1.0
    assert any("skipped" in str(w.message) for w in caught)


def test_macro_auc_passes_non_finite_scores_up():
    with pytest.raises(hqcg.NumericError):
        macro_auc([[np.nan], [0.5], [0.2]], [[1], [0], [0]])
    with pytest.raises(hqcg.NumericError):  # even in a class it would skip
        macro_auc([[0.9, np.nan], [0.1, 0.4]], [[1, 1], [0, 1]])


def _tiny_dataset(rng, count=24, length=8, classes=2):
    samples = []
    for i in range(count):
        labels = np.zeros(classes, dtype=np.int64)
        labels[i % classes] = 1
        values = rng.normal(size=length) + 2.0 * labels[0]
        samples.append(Sample(f"t{i:03d}", values, labels))
    return samples


def test_train_loop_zero_epochs():
    rng = np.random.default_rng(6)
    samples = _tiny_dataset(rng)
    model = build_mlp(8, 4, 2, seed=0)
    before = model.theta.copy()
    cfg = TrainConfig(epochs=0, batch_size=8, seed=0)
    model, report = train_loop(model, samples, samples, cfg,
                               mlp_gradients, mlp_forward_batch)
    assert report.records == []
    np.testing.assert_array_equal(model.theta, before)


@pytest.mark.parametrize("field", ["values", "labels"])
def test_train_loop_names_the_first_sample_of_another_length(field):
    # numpy's stack refused ragged samples with a bare "inhomogeneous shape"
    samples = _tiny_dataset(np.random.default_rng(9))
    for i in (5, 9):
        short = getattr(samples[i], field)[:-1]
        samples[i] = dataclasses.replace(samples[i], **{field: short})
    model = build_mlp(8, 4, 2, seed=0)
    with pytest.raises(ShapeError, match=f"sample 't005': {field} have shape"):
        train_loop(model, samples, samples, TrainConfig(epochs=1, batch_size=8),
                   mlp_gradients, mlp_forward_batch)


def test_train_loop_determinism():
    rng = np.random.default_rng(7)
    samples = _tiny_dataset(rng)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=5)

    def run():
        model = build_mlp(8, 4, 2, seed=1)
        return train_loop(model, samples[:16], samples[16:], cfg,
                          mlp_gradients, mlp_forward_batch)

    model_a, report_a = run()
    model_b, report_b = run()
    np.testing.assert_array_equal(model_a.theta, model_b.theta)
    assert report_a.records == report_b.records


def test_train_loop_metrics_all_finite():
    rng = np.random.default_rng(8)
    samples = _tiny_dataset(rng)
    cfg = TrainConfig(epochs=4, batch_size=8, seed=2)
    model = build_mlp(8, 4, 2, seed=3)
    _, report = train_loop(model, samples[:16], samples[16:], cfg,
                           mlp_gradients, mlp_forward_batch)
    assert len(report.records) == 4
    for record in report.records:
        for name, value in dataclasses.asdict(record).items():
            assert np.isfinite(value), name
        assert record.train_loss >= 0 and record.val_loss >= 0


@pytest.mark.parametrize("make", [
    lambda: hqcg.SyntheticSpec(num_classes=2, signal_len=8, num_samples=4, seed=-1),
    lambda: TrainConfig(seed=-1),
    lambda: hqcg.split(hqcg.generate_synthetic(
        hqcg.SyntheticSpec(num_classes=2, signal_len=8, num_samples=4)), 0.5, -1),
    lambda: hqcg.build_model(4, 2, 2, seed=-1),
    lambda: build_mlp(4, 3, 2, seed=-1),
], ids=["SyntheticSpec", "TrainConfig", "split", "build_model", "build_mlp"])
def test_negative_seed_is_a_config_error(make):
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        make()


def test_model_builders_still_take_seed_none():
    assert hqcg.build_model(4, 2, 2, seed=None).theta.shape == (3 * 4 + 6 + 3 * 4 * 2,)
    assert build_mlp(4, 3, 2, seed=None).theta.size == mlp_param_count((4, 3, 3, 2))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_max=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_every_train_config_field_is_set_by_the_cli():
    """A setting no command passes is a constant, not a field."""
    cli = Path(hqcg.__file__).with_name("cli.py")
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_train_config")
    call = next(node for node in ast.walk(func) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "TrainConfig")
    assert {kw.arg for kw in call.keywords} == \
        {f.name for f in dataclasses.fields(TrainConfig)}


@pytest.mark.parametrize("field, value", [
    ("lr_max", float("nan")),
    ("lr_max", float("inf")),
    ("weight_decay", float("inf")),
    ("weight_decay", float("nan")),
])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


# --- one batch contract for both model families --------------------------------

# (model builder, signal width, forward, gradient); the quantum signals fill
# the 2^6 amplitudes exactly, so one more value does not fit
FAMILIES = {
    "quantum": (lambda: hqcg.build_model(6, 3, 3, seed=1), 64,
                hqcg.forward_batch, hqcg.loss_and_gradients),
    "classical": (lambda: build_mlp(32, 8, 3, seed=1), 32,
                  mlp_forward_batch, mlp_gradients),
}
# a label of 2 used to train silently and a NaN label to end as a
# NumericError (exit 3); a complex signal lost its imaginary part with only a
# warning and text raised a bare ValueError
BAD_LABELS = {"nan-label": np.nan, "inf-label": np.inf, "label-above-one": 2.0,
              "negative-label": -0.5}
BAD_BATCHES = ["empty-batch", "1-d-signals", "wrong-label-shape", "wrong-width",
               "non-finite-theta", "non-finite-signal-row", "complex-signals",
               "text-signals", *BAD_LABELS]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ("forward", "gradient") for case in BAD_BATCHES
    # a forward pass takes no labels
    if entry == "gradient" or "label" not in case])
def test_bad_batch_is_an_hqcg_error_for_both_families(family, entry, case):
    build, width, forward_fn, gradient_fn = FAMILIES[family]
    model = build()
    signals = np.random.default_rng(3).normal(size=(4, width))
    labels = np.ones((4, 3))
    if case == "empty-batch":
        signals, labels = signals[:0], labels[:0]
    elif case == "1-d-signals":
        signals = signals[0]
    elif case == "wrong-label-shape":
        labels = labels[:, :2]
    elif case == "wrong-width":
        signals = np.ones((4, width + 1))
    elif case == "non-finite-signal-row":
        signals[2, 1] = np.nan
    elif case == "complex-signals":
        signals = signals + 1j
    elif case == "text-signals":
        signals = signals.astype(str)
    elif case in BAD_LABELS:
        labels[2, 1] = BAD_LABELS[case]
    else:
        model.theta = model.theta.copy()
        model.theta[5] = np.nan
    # non-finite parameters are a numeric failure (exit 3), the rest exit 2
    error, match = {"non-finite-theta": (hqcg.NumericError, None),
                    "non-finite-signal-row": (hqcg.EncodingError, "signal row 2"),
                    "complex-signals": (hqcg.DataFormatError, "real numbers"),
                    "text-signals": (hqcg.DataFormatError, "real numbers"),
                    **dict.fromkeys(BAD_LABELS, (hqcg.DataFormatError, "batch row 2")),
                    }.get(case, (hqcg.HqcgError, None))
    with pytest.raises(error, match=match):
        if entry == "forward":
            forward_fn(model, signals)
        else:
            gradient_fn(model, signals, labels)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_non_finite_loss_row_is_named_for_both_families(family, monkeypatch):
    # check_batch refuses NaN labels, and every other input is checked to be
    # finite, so the non-finite row is put into the family's per-row losses
    build, width, _, gradient_fn = FAMILIES[family]

    def nan_in_row_2(probs, labels):
        losses = bce_rows(probs, labels)
        losses[2] = np.nan
        return losses

    monkeypatch.setattr(sys.modules[gradient_fn.__module__], "bce_rows", nan_in_row_2)
    labels = np.ones((4, 3))
    signals = np.random.default_rng(4).normal(size=(4, width))
    with pytest.raises(hqcg.NumericError, match="non-finite loss for batch row 2") as err:
        gradient_fn(build(), signals, labels)
    assert err.value.sample_index == 2


def test_integer_and_boolean_batches_score_as_floats():
    # the dtype check refuses only what is not a real number
    model = hqcg.build_model(6, 3, 3, seed=1)
    signals = np.random.default_rng(6).integers(-5, 5, size=(4, 64))
    signals[:, 0] = 7
    labels = np.eye(4, 3, dtype=bool)
    want = hqcg.loss_and_gradients(model, signals.astype(float), labels.astype(float))
    got = hqcg.loss_and_gradients(model, signals, labels)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
