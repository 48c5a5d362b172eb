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
(phi_i, r_i) instead of the B samples. The (B, 2C) array of
``circuit.score_rows``, the row-block pass of ``forward_batch``, gives the
scores and, scaled in place by c_si / |x_s|, folds the batch with one
product over the signals. Six (C, 2^n) arrays carry the whole step,
however many gates there are: phi, beta = G^dagger phi and
w = V^dagger beta from the pull-back, and r, u = V r and xi = G u from the
forward push (``_forward_trace``), both by the fused blocks that
``circuit.fused_blocks`` builds once per step with the class columns.

An angle of block b of LQCG gives <beta| I (x) dV_b |r> =
<w| I (x) V_b^dagger dV_b |r>, and an angle of GQCG gives
<beta| G^dagger dG |u>. Both read one block environment

    E[a, c] = sum conj(bra[block = a]) ket[block = c],

summed over classes and over the qubits outside the block, as
<bra| I (x) X |ket> = sum_ac X[a, c] E[a, c]. Inside the block that sum
is sum_xy W[x, y] dV[x, y], W = conj(V) E, and V is the entrywise product
of one table per gate (``circuit.chain_blocks``), so an angle of gate j
reads W times the other factors, summed to a 2 x 2 environment of its
target bit (``block_gradients``). Only 2^k x 2^k arrays enter this sweep,
and no derivative is ever applied to a state.

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
    class_state_trace,
    fidelities,
    forward_batch,
    fused_blocks,
    gate_picks,
    overlap_columns,
    pull_back,
    rotations,
    score_rows,
    split_triples,
    _ring_permutation,
)
# perfbench/run.py traces encode_rows and both kernels through this
# module's namespace; the gradient itself calls none of them
from .encoding import check_rows, encode_rows  # noqa: F401
from .errors import NumericError
from .qstate import apply_controlled_matrix, apply_single_matrix  # noqa: F401
from .train import bce_prob_gradient, bce_rows, check_batch, mean_loss


def _forward_trace(model: HQCGModel, kets, unitaries):
    """The folded (C, 2^n) kets r pushed through LQCG, u = V r, and then
    through GQCG, xi = G u, by the (LQCG, GQCG) unitary stacks
    in ``unitaries``, with the states the gradient keeps from this sweep."""
    u = apply_param_circuit(kets, model.lqcg, unitaries[0])
    xi = apply_param_circuit(u, model.gqcg, unitaries[1])
    return u, xi, [kets, u, xi]


def block_environments(bra: np.ndarray, ket: np.ndarray,
                       circuit: ParamCircuit) -> np.ndarray:
    """E_b[a, c] = sum conj(bra[block b = a]) ket[block b = c] over rows and
    over the qubits outside block b, for every block of the layer, as a
    (blocks, 2^k, 2^k) stack: <bra| I (x) X |ket> = sum_ac X[a, c] E_b[a, c]
    for X on block b, with local qubit j of the block on bit j of a and c,
    read through the circuit's ``Layout`` views."""
    layout = circuit.layout
    if not layout.natural:
        tensor = (-1,) + (2,) * circuit.num_qubits
        bra, ket = (a.reshape(tensor).transpose(layout.into) for a in (bra, ket))
    bra = np.conjugate(bra, order="C")
    ket = np.ascontiguousarray(ket)
    size = 1 << layout.shape[1]
    envs = np.empty((layout.shape[0], size, size), complex)
    for view, env in zip(layout.views, envs):
        np.matmul(bra.reshape(view).transpose(1, 0, 2).reshape(size, -1),
                  ket.reshape(view).transpose(0, 2, 1).reshape(-1, size), out=env)
    return envs


def block_gradients(envs: np.ndarray, chain, dmats: np.ndarray) -> np.ndarray:
    """Re tr(V_b^dagger dV_b E_b^T) by every angle of chain-with-skip blocks,
    as a (blocks, k, 3) array, from the block environments E_b, the blocks'
    ``chain_blocks`` and their (blocks, k, 3, 2, 2) derivative matrices.

    The trace is sum_xy W[x, y] dV[x, y] with W = conj(V) E. An angle of
    gate j moves only factor j of V = F_0 * ... * F_{k-1}, and only where
    its control bit is 1, so it gives sum_oi dU_j[o, i] M_j[o, i], where
    M_j is W times the other k-1 factors, summed by the ``gate_picks`` of
    gate j. A sweep down the gates folds F_{k-1}, ..., F_{j+1} into W, and
    a sweep up multiplies in F_0 * ... * F_{j-1}."""
    unitaries, factors = chain
    k = len(factors)
    rows, cols = gate_picks(k)
    rest = np.empty_like(factors)
    np.matmul(unitaries.conj(), envs, out=rest[-1])
    for j in range(k - 1, 0, -1):
        np.multiply(rest[j], factors[j], out=rest[j - 1])
    prefix = factors[0]
    for j in range(1, k):
        rest[j] *= prefix
        if j < k - 1:
            prefix = prefix * factors[j]
    gate_envs = rows[:, None] @ rest @ cols[:, None]
    return np.einsum("jboi,bjdoi->bjd", gate_envs, dmats).real


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
    check_rows(signals, model.num_qubits)
    # every gate matrix, class column and derivative in one closed-form call
    mats, dmats = rotations(model.theta.reshape(-1, 3))
    chains, unitaries, cols = fused_blocks(model, mats)
    *layer_dmats, class_dmats = split_triples(model, dmats)

    states, products = class_state_trace(cols)
    beta, pulled = pull_back(model, states, unitaries)
    overlaps, norms = score_rows(signals, overlap_columns(pulled, signals.shape[1]))
    probs = fidelities(overlaps)
    loss = mean_loss(bce_rows(probs, labels))

    # r_i = sum_s c_si conj(a_si) x_s / norms[s], c_si = dL_s/dp_si (clamp-
    # aware): the overlaps scaled in place, then one product over the signals
    scale = bce_prob_gradient(probs, labels)
    scale /= norms[:, None]
    pairs = overlaps.reshape(len(signals), 2, -1)
    pairs *= scale[:, None]
    folded = overlaps.T @ signals
    kets = np.zeros(pulled.shape, complex)
    kets[:, : signals.shape[1]] = folded[: len(kets)] + 1j * folded[len(kets) :]
    u, xi, _ = _forward_trace(model, kets, unitaries)

    grads = np.empty(model.theta.size)
    lqcg, gqcg, classes = split_triples(model, grads.reshape(-1, 3))
    lqcg[...] = block_gradients(block_environments(pulled, kets, model.lqcg),
                                chains[0], layer_dmats[0])
    gqcg[...] = block_gradients(block_environments(beta, u, model.gqcg),
                                chains[1], layer_dmats[1])
    # slot a of every class column, the Rz on |0>, stays 0
    classes[..., 0] = 0.0
    classes[..., 1:] = class_gradients(xi, cols, products, class_dmats[:, :, 1:, :, 0])
    grads *= 2.0 / signals.shape[0]
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads
