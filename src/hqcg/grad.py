"""Exact loss gradients from block environments of the fused circuit.

The score of class i on sample s is p_si = |a_si|^2 with
a_si = <phi_i|U|x_s> = <w_i|x_s>, where w_i = U^dagger phi_i is class state
i pulled back through the circuit (``circuit.pull_back``). The circuit
factors exactly as U = G V: LQCG is V = V_{m-1} (x) ... (x) V_0, one
2^g x 2^g unitary per qubit block, and GQCG is one 2^m x 2^m unitary G on
the m = n/g block tops. With c_si = dL_s/dp_si,

    dL/dtheta = (2/B) Re sum_i <phi_i| dU |r_i>,
    r_i = sum_s c_si conj(a_si) |x_s>,

so the batch folds into C kets before any layer runs, and the adjoint
method of Jones & Gacon 2020 (arXiv:2009.02823) runs over the C pairs
(phi_i, r_i) instead of the B samples. Six (C, 2^n) arrays carry the whole
step, however many gates there are: phi, beta = G^dagger phi and
w = V^dagger beta from the pull-back, and r, u = V r and xi = G u from the
forward push (``_forward_trace``), both by the fused blocks that
``circuit.fused_blocks`` builds once per step with the class columns.

An angle of block b of LQCG gives <beta| I (x) dV_b |r> =
<w| I (x) V_b^dagger dV_b |r>, and an angle of GQCG gives
<beta| G^dagger dG |u>. Both read one block environment

    E[a, c] = sum conj(bra[block = a]) ket[block = c],

summed over classes and over the qubits outside the block, as
<bra| I (x) X |ket> = sum_ac X[a, c] E[a, c]. Inside the block, with
H_j the j-th gate, F_0 = E^T and F_{j+1} = H_j F_j H_j^dagger, that sum
is tr(dH_j F_j H_j^dagger) for an angle of gate j, where
dH_j = P1 (x) dU_j. Only 2^k x 2^k matrices enter this sweep, and no
derivative is ever applied to a state.

Class-state angles take dL/dtheta = (2/B) Re <xi_i|d phi_i>. Each class
state is a fixed basis permutation P of a product of single-qubit columns
u_q|0>, built as product_q = col_q (x) product_{q-1}
(``circuit.class_state_trace(cols)``). ``class_gradients`` runs that loop
backwards over the partial products: with t_i = conj(xi_i)[P], column q's
environment is t_i on qubit q contracted with product_{q-1}, and folding
t_i against col_q leaves the contraction for the next column down. The
first angle of every column's rotation is an Rz acting on |0>, a global
phase, so its gradient is exactly zero.

Batch reductions are fixed-shape matrix products, so reruns give
bit-for-bit identical gradients.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    HQCGModel,
    ParamCircuit,
    apply_param_circuit,
    chain_gates,
    chain_rows,
    class_state_trace,
    conj_overlaps,
    forward_batch,
    fused_blocks,
    layer_axes,
    pull_back,
    rotations,
    split_triples,
    _ring_permutation,
)
# perfbench/run.py traces encode_rows and both kernels through this
# module's namespace; the gradient itself calls none of them
from .encoding import encode_rows, row_norms  # noqa: F401
from .errors import ConfigError, NumericError
from .qstate import apply_controlled_matrix, apply_single_matrix  # noqa: F401
from .train import bce_prob_gradient, bce_rows, check_batch, mean_loss


def _forward_trace(model: HQCGModel, kets, unitaries):
    """The folded (C, 2^n) kets r pushed through LQCG, u = V r, and then
    through GQCG, xi = G u, by the (LQCG, GQCG) ``chain_unitaries`` stacks
    in ``unitaries``, with the states the gradient keeps from this sweep."""
    u = apply_param_circuit(kets, model.lqcg, unitaries[0])
    xi = apply_param_circuit(u, model.gqcg, unitaries[1])
    return u, xi, [kets, u, xi]


def block_environments(bra: np.ndarray, ket: np.ndarray,
                       circuit: ParamCircuit) -> np.ndarray:
    """E_b[a, c] = sum conj(bra[block b = a]) ket[block b = c] over rows and
    over the qubits outside block b, for every block of the layer, as a
    (blocks, 2^k, 2^k) stack: <bra| I (x) X |ket> = sum_ac X[a, c] E_b[a, c]
    for X on block b, with local qubit j of the block on bit j of a and c."""
    n, k = circuit.num_qubits, circuit.width
    into = layer_axes(circuit)[0]

    def layer_order(amps):
        return amps.reshape((-1,) + (2,) * n).transpose(into)

    bra = np.conjugate(layer_order(bra), order="C")
    ket = np.ascontiguousarray(layer_order(ket))
    envs = []
    for b in range(len(circuit.blocks)):
        # below block b: blocks b-1, ..., 0 and the outer qubits
        shape = (-1, 1 << k, (1 << n) >> (k * (len(circuit.blocks) - b)))
        envs.append(np.tensordot(bra.reshape(shape), ket.reshape(shape),
                                 axes=([0, 2], [0, 2])))
    return np.stack(envs)


def chain_gradients(envs: np.ndarray, gates, dgates) -> np.ndarray:
    """Re tr(V_b^dagger dV_b E_b^T) by every angle of chain-with-skip blocks,
    as a (blocks, k, 3) array, from the block environments E_b, the blocks'
    ``chain_gates`` and the ``chain_gates`` of their (blocks, 3, k, 2, 2)
    derivative matrices.

    With F_0 = E^T and F_{j+1} = H_j F_j H_j^dagger, an angle of gate j
    gives tr(dH_j Y_j), Y_j = F_j H_j^dagger. dH_j = P1 (x) dU_j has entries
    only on the diagonal and in the target-flipped column of each row, so
    the trace reads Y_j[x, x] and Y_j[flip x, x]."""
    (diag, off), (ddiag, doff) = gates, dgates
    blocks, width, dim = diag.shape
    rows = np.arange(dim)
    flip = chain_rows(width)[2]
    f = envs.swapaxes(-1, -2)
    diag_h, off_h = diag.conj()[:, :, None, :], off.conj()[:, :, None, :]
    y_diag = np.empty_like(diag)
    y_flip = np.empty_like(diag)
    for j in range(width):
        y = f * diag_h[:, j] + f[..., flip[j]] * off_h[:, j]
        y_diag[:, j] = y[:, rows, rows]
        y_flip[:, j] = y[:, flip[j], rows]
        f = diag[:, j, :, None] * y + off[:, j, :, None] * y[:, flip[j]]
    return (np.einsum("bdjx,bjx->bjd", ddiag, y_diag)
            + np.einsum("bdjx,bjx->bjd", doff, y_flip)).real


def class_gradients(xi: np.ndarray, cols: np.ndarray, products,
                    dcols: np.ndarray) -> np.ndarray:
    """Re <xi_i|d phi_i> by the b and c angles of every class column, as a
    (C, n, 2) array, from the (C, n, 2) columns, the partial products of
    ``class_state_trace`` and the (C, n, 2, 2) b and c column derivatives.

    The build loop runs backwards: t = conj(xi)[P], viewed as (C, 2, 2^q),
    gives column q's environment e_q = t . product_{q-1} and then folds
    against col_q, so e_0 is what is left."""
    classes, n = cols.shape[:2]
    t = np.take(xi, _ring_permutation(n), axis=1).conj()
    envs = np.empty_like(cols)
    for q in range(n - 1, 0, -1):
        t = t.reshape(classes, 2, -1)
        envs[:, q] = (t @ products[q - 1][:, :, None])[..., 0]
        t = (cols[:, q, None, :] @ t)[:, 0]
    envs[:, 0] = t
    return np.einsum("cqa,cqja->cqj", envs, dcols).real


def batch_loss(model: HQCGModel, signals, labels) -> float:
    """Mean BCE of the batch over the ``forward_batch`` scores."""
    signals, labels = check_batch(model, signals, labels)
    return mean_loss(bce_rows(forward_batch(model, signals), labels))


def loss_and_gradients(model: HQCGModel, signals, labels):
    """(mean batch BCE, exact gradient w.r.t. every model parameter)."""
    signals, labels = check_batch(model, signals, labels)
    # every gate matrix, class column and derivative in one closed-form call
    mats, dmats = rotations(model.theta.reshape(-1, 3))
    gates, unitaries, cols = fused_blocks(model, mats)
    *layer_dmats, class_dmats = split_triples(model, dmats)
    dgates = [chain_gates(d.swapaxes(1, 2), identity=0.0) for d in layer_dmats]

    norms = row_norms(signals, model.num_qubits)
    states, products = class_state_trace(cols)
    beta, pulled = pull_back(model, states, unitaries)
    re, im = conj_overlaps(signals, norms, pulled)  # conj(a_si) = re + i im
    probs = re * re + im * im
    loss = mean_loss(bce_rows(probs, labels))

    coef = bce_prob_gradient(probs, labels)  # dL_s/dp_si, clamp-aware
    # r_i = sum_s c_si conj(a_si) x_s / norms[s], one product over the signals
    scale = coef / norms[:, None]
    folded = np.concatenate([scale * re, scale * im], axis=1).T @ signals
    kets = np.zeros_like(pulled)
    kets[:, : signals.shape[1]] = folded[: len(kets)] + 1j * folded[len(kets) :]
    u, xi, _ = _forward_trace(model, kets, unitaries)

    grads = np.empty(model.theta.size)
    lqcg, gqcg, classes = split_triples(model, grads.reshape(-1, 3))
    lqcg[...] = chain_gradients(block_environments(pulled, kets, model.lqcg),
                                gates[0], dgates[0])
    gqcg[...] = chain_gradients(block_environments(beta, u, model.gqcg),
                                gates[1], dgates[1])
    # slot a of every class column, the Rz on |0>, stays 0
    classes[..., 0] = 0.0
    classes[..., 1:] = class_gradients(xi, cols, products, class_dmats[:, :, 1:, :, 0])
    grads *= 2.0 / signals.shape[0]
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads


def finite_diff_oracle(model: HQCGModel, signals, labels,
                       eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of batch_loss, one parameter at a time."""
    if not 1e-6 <= eps <= 1e-3:
        raise ConfigError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    signals, labels = check_batch(model, signals, labels)
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
