"""Classical comparator: a two-hidden-layer feed-forward net, depth-matched
to the two quantum layers, trained with the identical loop and loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError, NumericError, ShapeError, check_seed
from .train import PROB_FLOOR, bce_rows, check_batch, mean_loss


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
        if self.theta.shape != (self.num_params,):
            raise ShapeError(f"theta must have length {self.num_params}, "
                             f"got {self.theta.shape}")

    @property
    def num_params(self) -> int:
        return mlp_param_count(self.layer_widths)

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

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


def _forward_pass(model: MLPModel, signals: np.ndarray) -> list[np.ndarray]:
    """The activations of every layer on a checked signal batch, the signals
    first and the probabilities last. A row of the wrong width, or one that
    holds NaN or Inf, raises before the first product."""
    if signals.shape[1] != model.layer_widths[0]:
        raise ShapeError(f"expected (batch, {model.layer_widths[0]}) signals, "
                         f"got shape {signals.shape}")
    bad = ~np.isfinite(signals).all(axis=1)
    if bad.any():
        raise EncodingError(f"signal row {int(np.argmax(bad))} contains NaN or Inf")
    *hidden, (w_out, b_out) = model.layers()
    acts = [signals]
    for w, b in hidden:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    return acts + [_sigmoid(acts[-1] @ w_out.T + b_out)]


def mlp_forward_batch(model: MLPModel, signals) -> np.ndarray:
    """Class probabilities for a (batch, length) matrix."""
    signals, _ = check_batch(model, signals)
    return _forward_pass(model, signals)[-1]


def mlp_gradients(model: MLPModel, signals, labels):
    """(mean batch BCE, exact backprop gradient as a flat vector)."""
    signals, labels = check_batch(model, signals, labels)
    acts = _forward_pass(model, signals)
    probs = acts.pop()
    loss = mean_loss(bce_rows(probs, labels))

    # dL/dz = (p - y) / (B C) at the output inside the clamp, 0 where it
    # saturates; a rectifier passes it back where its activation is positive
    inside = (probs > PROB_FLOOR) & (probs < 1.0 - PROB_FLOOR)
    delta = np.where(inside, probs - labels, 0.0) / labels.size
    parts = []
    for i, (w, _) in reversed(list(enumerate(model.layers()))):
        parts[:0] = [(delta.T @ acts[i]).ravel(), delta.sum(axis=0)]
        if i:
            delta = (delta @ w) * (acts[i] > 0.0)
    grads = np.concatenate(parts)
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads
