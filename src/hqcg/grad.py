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
controlled gate's generator has three eigenvalues), so every angle of
gate k reads the same 2x2 environment E_k of bra and ket, summed over
classes and over the basis states with the control bit set:

    <bra| P1 (x) dU |ket> = sum_ab dU[a, b] E_k[a, b],
    E_k[a, b] = sum conj(bra[target bit = a]) ket[target bit = b],

and no derivative is ever applied to a state.

Class-state angles take xi_i = U r_i, the end of that forward sweep:
dL/dtheta = (2/B) Re <xi_i|d phi_i>. Each class state is a fixed basis
permutation P of a product of single-qubit columns u_q|0>
(``circuit.class_state_trace``), so with t_i = conj(xi_i)[P] the
derivative by an angle of qubit q is the 2-vector e_iq, t_i contracted
against the other n-1 columns of class i, dotted with the derivative of
column q. The first angle of every column's rotation is an Rz acting on
|0>, a global phase, so its gradient is exactly zero.

Batch reductions are fixed-shape matrix products, so reruns give
bit-for-bit identical gradients.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    HQCGModel,
    apply_param_circuit,
    class_state_trace,
    conj_overlaps,
    forward_batch,
    pull_back,
    rotation_derivatives,
    _ring_permutation,
)
# perfbench/run.py traces encode_rows and both kernels through this
# module's namespace; the gradient itself calls none of them
from .encoding import encode_rows, row_norms  # noqa: F401
from .errors import ConfigError, NumericError, ShapeError
from .qstate import apply_controlled_matrix, apply_single_matrix  # noqa: F401
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


def gate_environment(bra: np.ndarray, ket: np.ndarray, num_qubits: int,
                     control: int, target: int) -> np.ndarray:
    """E[a, b] = sum over rows and over basis states with bit ``control``
    set of conj(bra[bit target = a]) * ket[bit target = b], so that
    vdot(bra, P1 (x) M ket) = sum_ab M[a, b] E[a, b] for any 2x2 M."""
    lo, hi = sorted((control, target))
    # axes: rows, bits above hi, bit hi, bits between, bit lo, bits below lo
    shape = (-1, 1 << (num_qubits - 1 - hi), 2, (1 << hi) >> (lo + 1), 2, 1 << lo)
    fix = (slice(None),) * (2 if control > target else 4) + (1,)
    targ = 3 if control > target else 2  # the target axis once control is fixed

    # bra and ket share one layout, so the order of the summed axes is free
    def target_rows(amps):
        return amps.reshape(shape)[fix].swapaxes(0, targ).reshape(2, -1)

    return target_rows(bra).conj() @ target_rows(ket).T


def _contract_top(amps: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Contract the top bit of the last axis of (C, ..., 2^k) ``amps`` with
    the per-class (C, 2) ``cols``."""
    half = amps.shape[-1] // 2
    cols = cols.reshape((len(cols),) + (1,) * (amps.ndim - 1) + (2,))
    return cols[..., 0] * amps[..., :half] + cols[..., 1] * amps[..., half:]


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
    class_angles = model.class_angle_block()
    states, cols = class_state_trace(n, class_angles)
    bras = []
    pulled = pull_back(model, states, trace=bras)
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
    envs = np.stack([gate_environment(bra, pre, n, gate.control, gate.target)
                     for gate, bra, pre in zip(gates, reversed(bras), pre_states)])
    slots = [gate.param_slot for gate in gates]
    grads[slots] = 2.0 * np.einsum("gjab,gab->gj", rotation_derivatives(theta[slots]),
                                   envs).real

    # Class-state parameters: contract t = conj(xi)[P] down from the top
    # qubit; what is left above qubit q is already contracted, so e_iq needs
    # only the columns below it. Slot a, the Rz on |0>, stays 0.
    t = xi[:, _ring_permutation(n)].conj()
    # (C, n, 2, 2): the b and c derivatives of every class-state column
    dcols = rotation_derivatives(class_angles.reshape(len(t), n, 3))[:, :, 1:, :, 0]
    class_grads = np.zeros((len(t), n, 3))
    for q in reversed(range(n)):
        env = t.reshape(len(t), 2, -1)
        for p in reversed(range(q)):
            env = _contract_top(env, cols[:, p])
        class_grads[:, q, 1:] = 2.0 * np.einsum("ca,cja->cj", env[:, :, 0],
                                                dcols[:, q]).real
        t = _contract_top(t, cols[:, q])
    grads[model.class_params_offset :] = class_grads.ravel()

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
