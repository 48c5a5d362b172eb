"""Exact loss gradients by an adjoint sweep over the class states.

The score of class i on sample s is p_si = |a_si|^2 with
a_si = <phi_i|U|x_s> = <w_i|x_s>, where U is LQCG followed by GQCG and
w_i = U^dagger phi_i is class state i pulled back through the circuit
(``circuit.pull_back``). With c_si = dL_s/dp_si, the derivative of the
batch loss by the angle of gate k, U = G_N ... G_1, is

    dL/dtheta = (2/B) Re sum_i <phi_i| G_N ... dG_k ... G_1 |r_i>,
    r_i = sum_s c_si conj(a_si) |x_s>,

so the batch folds into C kets before any gate is applied. The adjoint
sweep of Jones & Gacon 2020 (arXiv:2009.02823) then runs over the C pairs
(phi_i, r_i) instead of the B samples: the bra at gate k,
G_{k+1}^dagger ... G_N^dagger phi_i, is an intermediate the pull-back
recorded while computing the overlaps, and the ket is r_i pushed forward
to gate k. The derivative of a controlled rotation is P1 (x) dU/dtheta
(the plain two-term parameter-shift rule does not hold here because the
controlled gate's generator has three eigenvalues).

Class-state angles take xi_i = U r_i, the end of that forward sweep:
dL/dtheta = (2/B) Re <xi_i|dK_i|0>, with <xi_i| swept back through the
class ansatz K_i. The first angle of every ansatz rotation is an Rz acting
on |0>, a global phase, so its gradient is exactly zero and is written
without a kernel call.

Batch reductions are fixed-shape matrix products, so reruns give
bit-for-bit identical gradients.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    HQCGModel,
    apply_param_circuit,
    class_state_gate_plan,
    class_state_trace,
    conj_overlaps,
    forward_batch,
    pull_back,
    rotation_matrix,
    rotation_matrix_derivatives,
    _X,
)
# perfbench/run.py traces encode_rows through this module's namespace
from .encoding import encode_rows, row_norms  # noqa: F401
from .errors import ConfigError, NumericError, ShapeError
from .qstate import apply_controlled_matrix, apply_single_matrix
from .train import bce_prob_gradient, bce_rows


def _check_batch(model: HQCGModel, signals, labels):
    if not np.isfinite(model.theta).all():
        raise NumericError("non-finite model parameters")
    signals = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[0] == 0:
        raise ShapeError(f"expected a non-empty (batch, length) matrix, "
                         f"got shape {signals.shape}")
    if labels.shape != (signals.shape[0], model.num_classes):
        raise ShapeError(
            f"labels shape {labels.shape} does not match "
            f"({signals.shape[0]}, {model.num_classes})"
        )
    return signals, labels


def _forward_trace(model: HQCGModel, kets):
    """The folded (C, 2^n) kets pushed through both layers, recording the
    state in front of every gate."""
    pre_states = []
    amps = apply_param_circuit(kets, model.lqcg, model.theta, trace=pre_states)
    amps = apply_param_circuit(amps, model.gqcg, model.theta, trace=pre_states)
    return amps, model.lqcg.gates + model.gqcg.gates, pre_states


def batch_loss(model: HQCGModel, signals, labels) -> float:
    """Mean BCE of the batch over the ``forward_batch`` scores."""
    signals, labels = _check_batch(model, signals, labels)
    return float(np.mean(bce_rows(forward_batch(model, signals), labels)))


def loss_and_gradients(model: HQCGModel, signals, labels):
    """(mean batch BCE, exact gradient w.r.t. every model parameter)."""
    signals, labels = _check_batch(model, signals, labels)
    n = model.num_qubits
    theta = model.theta

    norms = row_norms(signals, n)
    traces = [class_state_trace(n, model.class_angles(i))
              for i in range(model.num_classes)]
    bras = []
    pulled = pull_back(model, np.stack([t[0] for t in traces]), trace=bras)
    re, im = conj_overlaps(signals, norms, pulled)  # conj(a_si) = re + i im
    probs = re * re + im * im
    losses = bce_rows(probs, labels)
    bad = ~np.isfinite(losses)
    if bad.any():
        idx = int(np.argmax(bad))
        raise NumericError(f"non-finite loss for batch row {idx}",
                           sample_index=idx)
    loss = float(losses.mean())

    coef = bce_prob_gradient(probs, labels)  # dL_s/dp_si, clamp-aware
    # r_i = sum_s c_si conj(a_si) x_s / norms[s], one product over the signals
    scale = coef / norms[:, None]
    folded = np.concatenate([scale * re, scale * im], axis=1).T @ signals
    kets = np.zeros_like(pulled)
    kets[:, : signals.shape[1]] = folded[: len(kets)] + 1j * folded[len(kets) :]
    xi, gates, pre_states = _forward_trace(model, kets)
    grads = np.zeros(model.num_params)

    # Circuit parameters: the pull-back recorded the bras last gate first.
    for gate, bra, pre in zip(gates, reversed(bras), pre_states):
        angles = theta[list(gate.param_slot)]
        for slot, du in zip(gate.param_slot, rotation_matrix_derivatives(*angles)):
            dpsi = apply_controlled_matrix(pre, n, gate.control, gate.target,
                                           du, keep_inactive=False)
            grads[slot] = 2.0 * float(np.real(np.vdot(bra, dpsi)))

    # Class-state parameters: per class, sweep <xi_i| back through the
    # ansatz; dL/dtheta = 2 Re <xi|dK|phi_pre>. Slot b, the Rz on |0>, stays 0.
    plan = class_state_gate_plan(n)
    for c in range(model.num_classes):
        _, pre_phi = traces[c]
        bra = xi[c]
        base = model.class_params_offset + 3 * n * c
        for (kind, a, b), pre in zip(reversed(plan), reversed(pre_phi)):
            if kind == "rot":
                angles = theta[base + b : base + b + 3]
                _, d_mid, d_last = rotation_matrix_derivatives(*angles)
                for off, du in ((1, d_mid), (2, d_last)):
                    dphi = apply_single_matrix(pre, n, a, du)
                    grads[base + b + off] = 2.0 * float(np.real(np.vdot(bra, dphi)))
                bra = apply_single_matrix(bra, n, a, rotation_matrix(*angles).conj().T)
            else:
                bra = apply_controlled_matrix(bra, n, a, b, _X)  # CNOT is self-inverse

    grads /= signals.shape[0]
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads


def finite_diff_oracle(model: HQCGModel, signals, labels,
                       eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of batch_loss, one parameter at a time."""
    if not 1e-6 <= eps <= 1e-3:
        raise ConfigError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    signals, labels = _check_batch(model, signals, labels)
    base = model.theta.copy()
    work = base.copy()
    grads = np.empty_like(base)
    try:
        for k in range(base.size):
            work[k] = base[k] + eps
            model.theta = work
            up = batch_loss(model, signals, labels)
            work[k] = base[k] - eps
            model.theta = work
            down = batch_loss(model, signals, labels)
            work[k] = base[k]
            grads[k] = (up - down) / (2.0 * eps)
    finally:
        model.theta = base
    return grads
