"""Classical comparator: a two-hidden-layer feed-forward net, depth-matched
to the two quantum layers, trained with the identical loop and loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, check_seed
from .train import PROB_FLOOR, bce_rows


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mlp_param_count(layer_widths) -> int:
    return sum(o * i + o for i, o in zip(layer_widths[:-1], layer_widths[1:]))


def _check_widths(layer_widths) -> None:
    if len(layer_widths) != 4:
        raise ShapeError(
            f"expected widths (input, hidden, hidden, classes), got {layer_widths}"
        )
    if min(layer_widths) < 1:
        raise ShapeError(f"layer widths must be at least 1, got {layer_widths}")


@dataclass(eq=False)
class MLPModel:
    """Affine stack with rectifier hidden layers and a logistic output.

    ``theta`` holds every weight matrix (row-major, shape (out, in)) and
    bias vector, layer by layer, as one flat float64 vector.
    """

    layer_widths: tuple[int, ...]
    theta: np.ndarray

    def __post_init__(self):
        _check_widths(self.layer_widths)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        want = mlp_param_count(self.layer_widths)
        if self.theta.shape != (want,):
            raise ShapeError(f"theta must have length {want}, got {self.theta.shape}")

    def layers(self):
        """Views (W, b) per layer into the flat parameter vector."""
        out = []
        pos = 0
        for fan_in, fan_out in zip(self.layer_widths[:-1], self.layer_widths[1:]):
            w = self.theta[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
            pos += fan_out * fan_in
            b = self.theta[pos : pos + fan_out]
            pos += fan_out
            out.append((w, b))
        return out


def build_mlp(input_len: int, hidden: int, num_classes: int,
              seed: int | None = 0) -> MLPModel:
    """Glorot-uniform weights, zero biases, seeded."""
    widths = (input_len, hidden, hidden, num_classes)
    _check_widths(widths)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-limit, limit, fan_out * fan_in))
        parts.append(np.zeros(fan_out))
    return MLPModel(widths, np.concatenate(parts))


def _forward_pass(model: MLPModel, signals: np.ndarray):
    (w1, b1), (w2, b2), (w3, b3) = model.layers()
    z1 = signals @ w1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2.T + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ w3.T + b3
    return z1, a1, z2, a2, _sigmoid(z3)


def mlp_forward_batch(model: MLPModel, signals) -> np.ndarray:
    """Class probabilities for a (batch, length) matrix."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[1] != model.layer_widths[0]:
        raise ShapeError(
            f"expected (batch, {model.layer_widths[0]}) signals, "
            f"got shape {signals.shape}"
        )
    return _forward_pass(model, signals)[-1]


def mlp_forward(model: MLPModel, signal) -> np.ndarray:
    """Class probabilities for one signal."""
    values = np.asarray(signal, dtype=np.float64).ravel()
    return mlp_forward_batch(model, values[None, :])[0]


def mlp_gradients(model: MLPModel, signals, labels):
    """(mean batch BCE, exact backprop gradient as a flat vector)."""
    signals = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[0] == 0:
        raise ShapeError(f"expected a non-empty batch, got shape {signals.shape}")
    if labels.shape != (signals.shape[0], model.layer_widths[-1]):
        raise ShapeError(
            f"labels shape {labels.shape} does not match "
            f"({signals.shape[0]}, {model.layer_widths[-1]})"
        )
    batch, num_classes = labels.shape
    z1, a1, z2, a2, probs = _forward_pass(model, signals)
    rows = bce_rows(probs, labels)
    bad = ~np.isfinite(rows)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite loss for batch row {idx}", sample_index=idx)
    loss = float(rows.mean())

    (w1, _), (w2, _), (w3, _) = model.layers()
    # dL/dz3 = (p - y) / C inside the clamp, 0 where it saturates.
    inside = (probs > PROB_FLOOR) & (probs < 1.0 - PROB_FLOOR)
    dz3 = np.where(inside, probs - labels, 0.0) / (num_classes * batch)
    dw3 = dz3.T @ a2
    db3 = dz3.sum(axis=0)
    da2 = dz3 @ w3
    dz2 = da2 * (z2 > 0.0)
    dw2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2
    dz1 = da1 * (z1 > 0.0)
    dw1 = dz1.T @ signals
    db1 = dz1.sum(axis=0)

    grads = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3])
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads
