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

The class states phi are built in GQCG's layer order, and xi stays as
GQCG's product leaves it, so each GQCG sweep makes one transpose: beta
back to natural order, and u into GQCG's order (``circuit.layer_order``).
Each layer's angles then read the states on its far side, without a copy,
in the order they are in. An angle of block b of LQCG gives
<beta| I (x) dV_b |r> = <beta| I (x) dV_b V_b^dagger |u>, from (beta, u)
in natural order, and an angle of GQCG gives <phi| dG |u> =
<phi| dG G^dagger |xi>, from (phi, xi) in GQCG's order. Both read one
block environment

    E[a, c] = sum conj(bra[block = a]) ket[block = c],

summed over classes and over the qubits outside the block, as
<bra| I (x) X |ket> = sum_ac X[a, c] E[a, c]. With X = dV V^dagger that
sum is sum_xy W[x, y] dV[x, y], W = E conj(V), and V is the entrywise
product of one table per gate (``circuit.chain_blocks``), so an angle of
gate j reads W times the other factors, summed to a 2 x 2 environment of
its target bit (``circuit.block_environments``, ``circuit.block_gradients``).
Only 2^k x 2^k arrays enter this sweep; no derivative touches a state.

Class-state angles take dL/dtheta = (2/B) Re <xi_i|d phi_i>. Each class
state is a fixed basis permutation P of a product of single-qubit columns
u_q|0>, built in groups of g columns: group_p = col_p (x) group_{p-1}
batched over the groups, then product_j = group_j (x) product_{j-1}
(``circuit.class_state_trace``). ``circuit.class_gradients`` runs both
loops backwards over the partial products: with t_i = conj(xi_i)[P],
group j's environment is t_i on its bits contracted with product_{j-1},
and folding t_i against group_j leaves the contraction for the next group
down; the same sweep within the groups gives every column's environment.
The first angle of every column's rotation is an Rz acting on |0>,
a global phase, so its gradient is exactly zero.

Batch reductions are fixed-shape matrix products, so reruns give
bit-for-bit identical gradients.
"""

from __future__ import annotations

import numpy as np

from .circuit import (
    HQCGModel,
    apply_param_circuit,
    block_environments,
    block_gradients,
    class_gathers,
    class_gradients,
    class_state_trace,
    fidelities,
    forward_batch,
    fused_blocks,
    layer_order,
    overlap_columns,
    pull_back,
    rotations,
    score_rows,
    split_triples,
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
    in ``unitaries``, with the states the gradient keeps from this sweep.
    u is in natural order; xi stays as GQCG's product leaves it."""
    u = apply_param_circuit(kets, model.lqcg, unitaries[0])
    xi = apply_param_circuit(layer_order(u, model.gqcg), model.gqcg, unitaries[1])
    return u, xi, [kets, u, xi]


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

    # class states straight into GQCG's layer order, and xi read back from it
    gather, read = class_gathers(model.gqcg)
    states, trace = class_state_trace(cols, model.group_size, gather)
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
    kets.real[:, : signals.shape[1]] = folded[: len(kets)]
    kets.imag[:, : signals.shape[1]] = folded[len(kets) :]
    u, xi, _ = _forward_trace(model, kets, unitaries)

    grads = np.empty(model.theta.size)
    lqcg, gqcg, classes = split_triples(model, grads.reshape(-1, 3))
    # each layer reads the states on its far side: (beta, u) in natural
    # order, and (phi, xi) in GQCG's, xi as the view its product leaves
    lqcg[...] = block_gradients(block_environments(beta, u, model.lqcg),
                                chains[0], layer_dmats[0])
    gqcg[...] = block_gradients(block_environments(states, xi.swapaxes(1, 2), model.gqcg),
                                chains[1], layer_dmats[1])
    # slot a of every class column, the Rz on |0>, stays 0
    classes[..., 0] = 0.0
    classes[..., 1:] = class_gradients(xi, cols, trace, class_dmats[:, :, 1:, :, 0], read)
    grads *= 2.0 / signals.shape[0]
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient component")
    return loss, grads
