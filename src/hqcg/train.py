"""Shared training machinery: BCE loss, cosine schedule, AdamW, metrics, loop.

The loop is model-agnostic: any object with a flat float64 ``theta``
vector of ``num_params`` entries and a ``num_classes`` works, paired with a
``loss_grad_fn(model, signals, labels)`` and a ``predict_fn(model, signals)``.
Both model families hold their batches to one contract, ``check_batch``,
and reduce per-row losses with one ``mean_loss``. ``TrainConfig`` holds
what a command sets; Adam's betas and epsilon are the published defaults,
and every epoch is evaluated. Everything is a deterministic function of
(dataset, config, initial parameters); per-epoch shuffling comes from one
seeded generator and batch reductions run in a fixed order, so reruns are
bit-for-bit identical. Wall-clock time is reported on the TrainReport
object but deliberately kept out of the serialized metrics files so file
outputs stay byte-identical across reruns.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import stack_samples, write_json, write_lines
from .errors import ConfigError, DataFormatError, NumericError, ShapeError, \
    UndefinedMetricError, check_seed

PROB_FLOOR = 1e-7  # BCE clamp: probabilities restricted to [floor, 1 - floor]
# Adam's published defaults (Kingma & Ba 2014, arXiv:1412.6980)
BETA1, BETA2, EPS_ADAM = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 0.01
    epochs: int = 30
    batch_size: int = 64
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # a NaN fails every comparison
        if not 0 < self.lr_max < math.inf:
            raise ConfigError(f"lr_max must be finite and > 0, got {self.lr_max}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        check_seed(self.seed)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    train_auc: float
    val_loss: float
    val_accuracy: float
    val_auc: float
    lr: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def final(self) -> EpochRecord | None:
        return self.records[-1] if self.records else None


@dataclass(frozen=True)
class Metrics:
    loss: float
    accuracy: float
    auc: float


# --- loss ---------------------------------------------------------------------


def clamp_probs(probs: np.ndarray) -> np.ndarray:
    """``probs`` clipped to [floor, 1 - floor]; a NaN stays NaN, as in np.clip."""
    return np.minimum(np.maximum(probs, PROB_FLOOR), 1.0 - PROB_FLOOR)


def bce_rows(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample mean BCE for (batch, classes) matrices."""
    if probs.shape != labels.shape:
        raise ShapeError(f"probs shape {probs.shape} != labels shape {labels.shape}")
    p = clamp_probs(probs)
    terms = labels * np.log(p) + (1.0 - labels) * np.log1p(-p)
    # -mean over the classes: np.mean sums and divides the same way
    return np.add.reduce(terms, axis=1) / -probs.shape[1]


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, refused if they are not real numbers:
    a complex array would lose its imaginary part, and text has no value."""
    array = np.asarray(values)
    if array.dtype != np.float64:
        if array.dtype.kind not in "biuf":
            raise DataFormatError(f"{what} must be real numbers, got dtype {array.dtype}")
        array = array.astype(np.float64)
    return array


def check_batch(model, signals, labels=None):
    """(signals, labels) as float64 arrays once they are a batch ``model``
    can score: a finite float64 ``model.theta`` of ``model.num_params``
    entries, a non-empty (batch, length) matrix of real signals and, where
    given, (batch, ``model.num_classes``) labels in [0, 1]. Each model
    checks its own signal width and values where it reads them."""
    theta = model.theta
    if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
            and theta.shape == (model.num_params,)):
        got = (f"{theta.dtype} of shape {theta.shape}" if isinstance(theta, np.ndarray)
               else type(theta).__name__)
        raise ShapeError(f"theta must be a float64 vector of {model.num_params} "
                         f"entries, got {got}")
    if not np.isfinite(theta).all():
        raise NumericError("non-finite model parameters")
    signals = _real_array(signals, "signals")
    if signals.ndim != 2 or 0 in signals.shape:
        raise ShapeError(f"expected a non-empty (batch, length) matrix, "
                         f"got shape {signals.shape}")
    if labels is not None:
        labels = _real_array(labels, "labels")
        if labels.shape != (len(signals), model.num_classes):
            raise ShapeError(f"labels shape {labels.shape} does not match "
                             f"({len(signals)}, {model.num_classes})")
        # a NaN fails both comparisons
        if not (np.minimum.reduce(labels, axis=None) >= 0.0
                and np.maximum.reduce(labels, axis=None) <= 1.0):
            row = int(np.argmin(((labels >= 0.0) & (labels <= 1.0)).all(axis=1)))
            raise DataFormatError(f"labels of batch row {row} must lie in [0, 1], "
                                  f"got {labels[row].tolist()}")
    return signals, labels


def mean_loss(losses: np.ndarray) -> float:
    """The mean of per-row ``bce_rows`` losses; a non-finite row raises a
    NumericError that names it."""
    total = np.add.reduce(losses)
    # any NaN or Inf row makes the sum non-finite
    if not np.isfinite(total):
        bad = ~np.isfinite(losses)
        if bad.any():
            idx = int(np.argmax(bad))
            raise NumericError(f"non-finite loss for batch row {idx}", sample_index=idx)
    # the sum divided by the count, as losses.mean() does
    return float(total / losses.size)


def bce_prob_gradient(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(per-sample BCE)/d(prob) per cell; zero where the clamp saturates."""
    inside = (probs > PROB_FLOOR) & (probs < 1.0 - PROB_FLOOR)
    p = clamp_probs(probs)
    grad = -(labels / p - (1.0 - labels) / (1.0 - p)) / probs.shape[1]
    return np.where(inside, grad, 0.0)


# --- schedule and optimizer -----------------------------------------------------


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Cosine annealing from lr_max at step 0 down to 0 at total_steps."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def adamw_step(theta: np.ndarray, grads: np.ndarray, moment1: np.ndarray,
               moment2: np.ndarray, t: int, lr: float, weight_decay: float):
    """One decoupled-weight-decay Adam update; returns new (theta, m1, m2)."""
    if t < 1:
        raise ConfigError(f"step index must be >= 1, got {t}")
    for name, arr in (("theta", theta), ("grads", grads),
                      ("moment1", moment1), ("moment2", moment2)):
        if not np.isfinite(arr).all():
            raise NumericError(f"adamw_step got non-finite {name}")
    m1 = BETA1 * moment1 + (1.0 - BETA1) * grads
    m2 = BETA2 * moment2 + (1.0 - BETA2) * grads * grads
    m1_hat = m1 / (1.0 - BETA1 ** t)
    m2_hat = m2 / (1.0 - BETA2 ** t)
    new_theta = theta - lr * (m1_hat / (np.sqrt(m2_hat) + EPS_ADAM)) \
        - lr * weight_decay * theta
    return new_theta, m1, m2


# --- metrics --------------------------------------------------------------------


def _check_finite(scores: np.ndarray) -> None:
    if not np.isfinite(scores).all():
        raise NumericError("cannot score non-finite probabilities")


def accuracy(probs, labels) -> float:
    """Fraction of (sample, class) cells where (p >= 0.5) equals the label."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ShapeError(f"probs shape {p.shape} != labels shape {y.shape}")
    _check_finite(p)
    return float(np.mean((p >= 0.5) == (y != 0)))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg), ties counted as 1/2."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel() != 0
    if s.shape != y.shape:
        raise ShapeError(f"scores shape {s.shape} != labels shape {y.shape}")
    _check_finite(s)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "AUC undefined: need at least one positive and one negative label"
        )
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    midranks = starts + (counts + 1) / 2.0  # 1-based midranks per tie group
    ranks = midranks[inverse]
    pos_rank_sum = float(ranks[y].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_auc(probs, labels) -> float:
    """Per-class AUC averaged over classes; degenerate classes are skipped.

    If every class is degenerate (all-positive or all-negative labels) the
    neutral value 0.5 is returned so training diagnostics stay finite. A
    non-finite score raises roc_auc's NumericError, degenerate class or not.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ShapeError(f"probs shape {p.shape} != labels shape {y.shape}")
    values = []
    for c in range(p.shape[1]):
        try:
            values.append(roc_auc(p[:, c], y[:, c]))
        except UndefinedMetricError:
            warnings.warn(
                f"class {c} has a single label value; skipped in macro AUC",
                stacklevel=2,
            )
    if not values:
        warnings.warn("all classes degenerate; macro AUC reported as 0.5",
                      stacklevel=2)
        return 0.5
    return float(np.mean(values))


def evaluate(model, signals, labels, predict_fn) -> Metrics:
    """Loss, cell accuracy, and macro AUC of ``model`` on stacked
    ``signals`` and their ``labels``."""
    probs = predict_fn(model, signals)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite probabilities during evaluation")
    loss = mean_loss(bce_rows(probs, labels))
    return Metrics(loss, accuracy(probs, labels), macro_auc(probs, labels))


# --- the loop -------------------------------------------------------------------


def train_loop(model, train_samples, val_samples, cfg: TrainConfig,
               loss_grad_fn, predict_fn):
    """Shuffled mini-batch AdamW with per-step cosine annealing.

    Returns the (mutated) model and a TrainReport with one record per epoch.
    """
    start = time.perf_counter()
    if len(train_samples) == 0:
        raise ConfigError("training split is empty")
    signals, labels, ids = stack_samples(train_samples)
    val_signals, val_labels, _ = stack_samples(val_samples)
    n_train = len(train_samples)
    steps_per_epoch = -(-n_train // cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    rng = np.random.default_rng(cfg.seed)
    m1 = np.zeros_like(model.theta)
    m2 = np.zeros_like(model.theta)
    report = TrainReport()
    step = 0
    lr = cfg.lr_max
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n_train)
        for s in range(steps_per_epoch):
            rows = perm[s * cfg.batch_size : (s + 1) * cfg.batch_size]
            lr = cosine_lr(step, total_steps, cfg.lr_max)
            try:
                loss, grads = loss_grad_fn(model, signals[rows], labels[rows])
            except NumericError as err:
                where = f"epoch {epoch} step {step}"
                if err.sample_index is not None:
                    where += f" (sample {ids[rows[err.sample_index]]})"
                raise NumericError(f"{where}: {err}") from err
            if not np.isfinite(loss):
                raise NumericError(f"epoch {epoch} step {step}: non-finite loss")
            model.theta, m1, m2 = adamw_step(model.theta, grads, m1, m2,
                                             step + 1, lr, cfg.weight_decay)
            step += 1
        tr = evaluate(model, signals, labels, predict_fn)
        va = evaluate(model, val_signals, val_labels, predict_fn)
        report.records.append(EpochRecord(
            epoch, tr.loss, tr.accuracy, tr.auc,
            va.loss, va.accuracy, va.auc, float(lr),
        ))
    report.wall_seconds = time.perf_counter() - start
    return model, report


# --- serialization ----------------------------------------------------------------


def write_metrics_json(report: TrainReport, path, config: dict) -> None:
    """``config``, summary + per-epoch records; no wall-clock, so bytes repeat."""
    doc = {
        "config": config,
        "final": asdict(report.final) if report.final else None,
        "num_records": len(report.records),
        "records": [asdict(r) for r in report.records],
    }
    write_json(path, doc)


def write_curves_csv(report: TrainReport, path) -> None:
    """One row per epoch per split: epoch,split,loss,accuracy,auc,lr."""
    def lines():
        yield "epoch,split,loss,accuracy,auc,lr"
        for r in report.records:
            yield (f"{r.epoch},train,{r.train_loss:.17g},"
                   f"{r.train_accuracy:.17g},{r.train_auc:.17g},{r.lr:.17g}")
            yield (f"{r.epoch},val,{r.val_loss:.17g},"
                   f"{r.val_accuracy:.17g},{r.val_auc:.17g},{r.lr:.17g}")
    write_lines(path, lines())
