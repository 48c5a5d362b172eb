"""Hierarchical control-gate circuits and the fidelity classifier head.

The trainable primitive is a controlled single-qubit rotation with three
Euler angles, U(a, b, c) = Rz(c) @ Ry(b) @ Rz(a), applied to the target
when the control qubit is 1. Two layer constructions are built from it:

* local layer (LQCG): qubits are grouped into contiguous blocks of size g;
  inside each block a chain CU(q -> q+1) runs over adjacent qubits and one
  skip-connection gate CU(last -> first) closes the block.
* global layer (GQCG): the last qubit of each block acts as the block's
  representative; the same chain-plus-skip pattern is applied across the
  representatives.

Both layers are chain-with-skip blocks on disjoint qubits, so the circuit
factors exactly as U = G (V_{n/g-1} (x) ... (x) V_0): one 2^g x 2^g unitary
per LQCG block and one 2^(n/g) x 2^(n/g) unitary G on the representatives.
Each layer is built as that stack of fused block unitaries, each the
entrywise product of one table per gate (``chain_blocks``), and applied
one dense block product at a time
(``apply_param_circuit(amps, circuit, unitaries)``); no gate runs alone.
Every layer, and its gradient (``block_environments``, ``block_gradients``),
reads the amplitudes through the ``Layout`` kept on it (``ParamCircuit.layout``);
for LQCG, whose blocks lie in qubit order, that layout moves no data. For
GQCG it does, so a state may also be kept in GQCG's first order
(``layer_order``) or as its product leaves it (``natural_order`` reads
that back), and both the layer and its environments read it there.

Per-class learnable states are prepared by one layer of per-qubit
rotations followed by a fixed CNOT ring; the ring only permutes basis
states, so they are built as permuted Kronecker products of single-qubit
columns, in groups of g columns (``class_state_trace``), gathered in
natural order or straight into GQCG's layer order (``class_gathers``),
and differentiated by ``class_gradients``.
Class scores are state fidelities |<psi|phi_i>|^2, computable either
directly or through the ancilla swap test. Scoring reads the class states
pulled back through both layers (``pull_back``), all C classes in one
(batch, 2C) array of overlaps (``score_rows``), which takes the overlaps and
norms of each block of rows while it is in cache.

``fused_blocks`` builds the gates, fused blocks and class columns of one
``theta`` at once; the functions here apply what they are given and rebuild
nothing from ``theta``. Scores, loss and gradients are computed from them in
``grad.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# perfbench/run.py traces encode_rows and map_rows through this namespace
from .encoding import checked_norms, encode_rows  # noqa: F401
from .errors import CapacityError, ConfigError, ShapeError, check_seed
from .parallel import map_rows  # noqa: F401
# perfbench/run.py also traces apply_controlled_matrix through this
# module's namespace; only the swap test runs qstate kernels here
from .qstate import (  # noqa: F401
    MAX_QUBITS,
    Statevector,
    apply_controlled_matrix,
    apply_single_matrix,
    apply_swap_kernel,
    check_qubits,
    inner_product,
)

PARAMS_PER_GATE = 3

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
# diag(-i/2, i/2), the derivative factor of an Rz angle, and the 2 x 2
# identity, the table of a controlled gate whose control bit is 0
_HALF, _EYE = np.array([-0.5j, 0.5j]), np.eye(2)
for _table in (_HALF, _EYE):
    _table.setflags(write=False)


def _rz_ry_rz(cos, sin, phases) -> np.ndarray:
    """Rz(c) @ [[cos, -sin], [sin, cos]] @ Rz(a), entry by entry, as (..., 2, 2),
    from the phases (e^{-ia/2}, e^{-ic/2}, e^{ia/2}, e^{ic/2}) of a and c.
    Each entry takes the Rz(c) phase, then the Rz(a) phase, in the order of
    the matrix product, so it rounds as that product does."""
    ea, ec, eac, ecc = phases
    u = np.empty(cos.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = cos * ec * ea
    u[..., 0, 1] = -sin * ec * eac
    u[..., 1, 0] = sin * ecc * ea
    u[..., 1, 1] = cos * ecc * eac
    return u


def rotations(angles) -> tuple[np.ndarray, np.ndarray]:
    """Rz(c) @ Ry(b) @ Rz(a) for every (a, b, c) row of a (..., 3) angle
    block, as a (..., 2, 2) stack in closed form:
    [[cos(b/2) e^{-i(a+c)/2}, -sin(b/2) e^{i(a-c)/2}],
     [sin(b/2) e^{-i(a-c)/2},  cos(b/2) e^{i(a+c)/2}]],
    together with the (..., 3, 2, 2) stack of their derivatives by a, b and
    c: U diag(-i/2, i/2), Rz(c) Ry'(b) Rz(a) and diag(-i/2, i/2) U, with the
    phases of a and c computed once for both."""
    angles = np.asarray(angles, dtype=np.float64)
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    ea, ec = np.exp(-0.5j * a), np.exp(-0.5j * c)
    cos, sin, phases = np.cos(0.5 * b), np.sin(0.5 * b), (ea, ec, ea.conj(), ec.conj())
    u = _rz_ry_rz(cos, sin, phases)
    du = np.empty(u.shape[:-2] + (3, 2, 2), dtype=np.complex128)
    np.multiply(u, _HALF, out=du[..., 0, :, :])
    # Ry'(b) = [[-sin/2, -cos/2], [cos/2, -sin/2]] has the shape of Ry
    du[..., 1, :, :] = _rz_ry_rz(-0.5 * sin, 0.5 * cos, phases)
    np.multiply(_HALF[:, None], u, out=du[..., 2, :, :])
    return u, du


def rotation_matrices(angles) -> np.ndarray:
    """The (..., 2, 2) matrices of ``rotations``, without their derivatives."""
    return rotations(angles)[0]


@dataclass(frozen=True)
class ParamGate:
    """One trainable controlled rotation owning three parameter slots."""

    control: int
    target: int
    param_slot: tuple[int, int, int]


@dataclass(frozen=True)
class ParamCircuit:
    """Chain-with-skip blocks of trainable controlled rotations.

    A block over qubits (q_0, ..., q_{k-1}) runs CU(q_0 -> q_1), ...,
    CU(q_{k-2} -> q_{k-1}) and closes with the skip gate CU(q_{k-1} -> q_0).
    The blocks share one width k and no qubit, so they commute. The gates
    own consecutive slot triples from ``param_offset`` on, block 0 first,
    in the order they run.
    """

    num_qubits: int
    blocks: tuple[tuple[int, ...], ...]
    param_offset: int

    def __post_init__(self):
        qubits = [q for block in self.blocks for q in block]
        if not self.blocks or {len(b) for b in self.blocks} != {len(self.blocks[0])} \
                or len(self.blocks[0]) < 2:
            raise ConfigError(f"blocks must share one width of at least 2: {self.blocks}")
        if len(set(qubits)) != len(qubits) or not all(0 <= q < self.num_qubits
                                                      for q in qubits):
            raise ConfigError(f"blocks {self.blocks} must hold distinct qubits "
                              f"of a width-{self.num_qubits} register")

    @property
    def width(self) -> int:
        return len(self.blocks[0])

    @property
    def gates(self) -> tuple[ParamGate, ...]:
        pairs = [(block[j], block[(j + 1) % len(block)])
                 for block in self.blocks for j in range(len(block))]
        s = self.param_offset
        return tuple(ParamGate(c, t, (s + 3 * i, s + 3 * i + 1, s + 3 * i + 2))
                     for i, (c, t) in enumerate(pairs))

    @property
    def num_params(self) -> int:
        return PARAMS_PER_GATE * len(self.blocks) * self.width

    @cached_property
    def layout(self) -> Layout:
        """The layer's ``Layout``, computed on first read and kept here."""
        n, k, blocks = self.num_qubits, self.width, len(self.blocks)
        inner = [q for block in reversed(self.blocks) for q in reversed(block)]
        outer = [q for q in reversed(range(n)) if q not in inner]
        into = (0, *(n - q for q in inner + outer))
        back = tuple(int(a) for a in np.argsort((0, *(n - q for q in outer + inner))))
        return Layout((blocks, k), into, back,
                      tuple((-1, 1 << k, (1 << n) >> (k * (blocks - b)))
                            for b in range(blocks)))


class Layout(NamedTuple):
    """What the sweeps of a layer read of it. ``into`` orders the axes of the
    (rows, 2, ..., 2) amplitude tensor, qubit q on axis n - q, with the
    blocks on top, the last block highest and each block's first qubit
    lowest; ``back`` restores the natural order from the other qubits on top
    of the blocks, where ``apply_param_circuit`` leaves them. ``views[b]``
    shapes the layer-ordered amplitudes as (rows and blocks above b,
    block b, rest). Both orders of an LQCG layer are the identity, so only
    GQCG's first ``views`` reshape copies the amplitudes."""

    shape: tuple[int, int]  # (blocks, k), the shape of the layer's angle triples
    into: tuple[int, ...]
    back: tuple[int, ...]
    views: tuple[tuple[int, int, int], ...]


def _groups(num_qubits: int, group_size: int) -> list[tuple[int, ...]]:
    """The contiguous qubit blocks of size ``group_size``."""
    if group_size < 2:
        raise ConfigError(f"group size must be >= 2, got {group_size}")
    if num_qubits < group_size or num_qubits % group_size != 0:
        raise ConfigError(f"qubit count {num_qubits} is not a positive multiple "
                          f"of group size {group_size}")
    # above the cap, refuse before one tuple per group is built
    check_qubits(num_qubits)
    return [tuple(range(start, start + group_size))
            for start in range(0, num_qubits, group_size)]


def build_lqcg(num_qubits: int, group_size: int) -> ParamCircuit:
    """Local layer: per-block chain over adjacent qubits plus a skip gate.

    Produces exactly ``num_qubits`` gates (g per block, n/g blocks) and
    3 * num_qubits parameters, the first of ``theta``.
    """
    return ParamCircuit(num_qubits, tuple(_groups(num_qubits, group_size)), 0)


def build_gqcg(num_qubits: int, group_size: int) -> ParamCircuit:
    """Global layer: chain plus skip across block representatives.

    The representative of block k is its last qubit, (k+1)*g - 1, where the
    local chain terminates. Needs at least two blocks. LQCG has one gate
    per qubit at every group size, so the slots start at 3 * num_qubits.
    """
    groups = _groups(num_qubits, group_size)
    if len(groups) < 2:
        raise ConfigError(
            "global layer needs at least two qubit groups "
            f"(got {len(groups)} group of size {group_size})"
        )
    return ParamCircuit(num_qubits, (tuple(block[-1] for block in groups),), 3 * num_qubits)


# --- fused blocks -------------------------------------------------------------


@lru_cache(maxsize=64)
def chain_axes(width: int):
    """For every gate CU(j -> j+1 mod k) of a width-k chain-with-skip block,
    the axis order that lays a (blocks, c, o, i, 1, ..., 1) table onto the
    (blocks, x_{k-1}, ..., x_0, y_{k-1}, ..., y_0) bits of a block matrix
    M[x, y]: the control bit c = x_j, or y_0 for gate 0, which runs before
    gate k-1 sets bit 0, and the target bit t = j+1 mod k as o = x_t, i = y_t."""
    perms = []
    for j in range(width):
        t = (j + 1) % width
        cio = (2 * width if j == 0 else width - j, width - t, 2 * width - t)
        back = (0, *cio, *(a for a in range(1, 2 * width + 1) if a not in cio))
        perms.append(tuple(int(a) for a in np.argsort(back)))
    return tuple(perms)


@lru_cache(maxsize=64)
def gate_picks(width: int):
    """The bits of ``chain_axes`` as (k, 2, 2^k) and (k, 2^k, 2) 0/1
    matrices: rows_j Z cols_j sums the entries of a (2^k, 2^k) array Z
    with gate j's control bit set into a 2 x 2 array over its (o, i)."""
    bits = (np.arange(1 << width) >> np.arange(width)[:, None]) & 1 == 1
    rows = np.roll(bits, -1, axis=0)[..., None] == np.arange(2)
    cols = rows.copy()
    rows[1:] &= bits[1:, :, None]
    cols[0] &= bits[0, :, None]
    picks = (rows.swapaxes(1, 2).astype(np.complex128, order="C"),
             cols.astype(np.complex128))
    for pick in picks:
        pick.setflags(write=False)
    return picks


def chain_blocks(mats: np.ndarray):
    """The fused unitaries V = H_{k-1} ... H_0 of chain-with-skip blocks as a
    (blocks, 2^k, 2^k) stack, from their (blocks, k, 2, 2) gate matrices,
    with the (k, blocks, 2^k, 2^k) stack of gate factors the gradient reads.

    Every local bit is the target of exactly one gate, so V is the entrywise
    product of factors F_j[x, y] = T_j[c, o, i] over the ``chain_axes`` of
    gate j, with T_j[0] = I and T_j[1] = U_j: one broadcast per factor and
    k-1 contiguous multiplies."""
    blocks, k = mats.shape[:2]
    tables = np.empty((blocks, k, 2, 2, 2), dtype=np.complex128)
    tables[:, :, 0] = _EYE
    tables[:, :, 1] = mats
    factors = np.empty((k, blocks) + (2,) * (2 * k), dtype=np.complex128)
    table = (blocks, 2, 2, 2) + (1,) * (2 * k - 3)
    for j, lay in enumerate(chain_axes(k)):
        factors[j] = tables[:, j].reshape(table).transpose(lay)
    factors = factors.reshape(k, blocks, 1 << k, 1 << k)
    fused = factors[1] * factors[0]
    # H_j on the left, as the gates run: V rounds as their gate-order product
    for factor in factors[2:]:
        np.multiply(factor, fused, out=fused)
    return fused, factors


def layer_order(amps: np.ndarray, circuit: ParamCircuit) -> np.ndarray:
    """(rows, 2^n) natural amplitudes in the first order of the circuit's
    ``Layout``, as its (rows, 2^k, rest) ``views[-1]`` array: a view for
    LQCG, a copy for GQCG."""
    tensor = (-1,) + (2,) * circuit.num_qubits
    layout = circuit.layout
    return amps.reshape(tensor).transpose(layout.into).reshape(layout.views[-1])


def natural_order(amps: np.ndarray, circuit: ParamCircuit) -> np.ndarray:
    """The (rows, 2^n) natural amplitudes of a state the layer's products
    left in their own (rows, rest, 2^k) order."""
    tensor = (-1,) + (2,) * circuit.num_qubits
    return amps.reshape(tensor).transpose(circuit.layout.back).reshape(len(amps), -1)


def apply_param_circuit(amps: np.ndarray, circuit: ParamCircuit,
                        unitaries: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """Run the layer, or with ``adjoint`` its inverse, over raw amplitudes
    (one state or a (rows, 2^n) stack), one block of ``unitaries``, the
    layer's ``chain_blocks`` unitary stack, at a time.

    In the first order of the circuit's ``Layout`` the top block is one
    (2^k, 2^k) product on every row; the product leaves that block at the
    bottom, so the next block comes on top. Natural amplitudes come back in
    natural order. A (rows, 2^k, rest) array already in that first order
    (``layer_order``) skips the way in and comes back as the last product
    leaves it, (rows, rest, 2^k) (``natural_order`` reads it)."""
    # right factors: V^T, or conj(V) = (V^dagger)^T for the adjoint
    right = unitaries.conj() if adjoint else unitaries.swapaxes(-1, -2)
    x = amps if amps.ndim == 3 else layer_order(amps, circuit)
    for v in right[::-1]:
        product = x.swapaxes(1, 2) @ v
        x = product.reshape(x.shape)
    if amps.ndim == 3:
        return product
    return natural_order(product, circuit).reshape(amps.shape)


def block_environments(bra: np.ndarray, ket: np.ndarray,
                       circuit: ParamCircuit) -> np.ndarray:
    """E_b[a, c] = sum conj(bra[block b = a]) ket[block b = c] over rows and
    over the qubits outside block b, for every block of the layer, as a
    (blocks, 2^k, 2^k) stack: <bra| I (x) X |ket> = sum_ac X[a, c] E_b[a, c]
    for X on block b, with local qubit j of the block on bit j of a and c.

    Both states come in the first order of the circuit's ``Layout`` (for
    LQCG the natural order; a GQCG ket as the ``swapaxes(1, 2)`` view of
    what its product left) and are read through its views; only the bra's
    conjugate is made, and neither state is reordered. A block sums one
    (2^k, rest) @ (rest, 2^k) product per leading row, or, on the lowest
    bits (rest 1), takes one (2^k, rows) @ (rows, 2^k)."""
    layout = circuit.layout
    bra = bra.conj()
    size = 1 << layout.shape[1]
    envs = np.empty((layout.shape[0], size, size), complex)
    for view, env in zip(layout.views, envs):
        b, k = bra.reshape(view), ket.reshape(view)
        if view[2] == 1:
            np.matmul(b[..., 0].T, k[..., 0], out=env)
        else:
            np.sum(b @ k.swapaxes(1, 2), axis=0, out=env)
    return envs


def block_gradients(envs: np.ndarray, chain, dmats: np.ndarray) -> np.ndarray:
    """Re tr(dV_b V_b^dagger E_b^T) by every angle of chain-with-skip blocks,
    as a (blocks, k, 3) array, from the ``block_environments`` E_b of the
    states on the far side of the layer, the blocks' ``chain_blocks`` and
    their (blocks, k, 3, 2, 2) derivative matrices: with E_b read from
    (bra, V ket), that is Re <bra| I (x) dV_b |ket>.

    The trace is sum_xy W[x, y] dV[x, y] with W = E conj(V). An angle of
    gate j moves only factor j of V = F_0 * ... * F_{k-1}, and only where
    its control bit is 1, so it gives sum_oi dU_j[o, i] M_j[o, i], where
    M_j is W times the other k-1 factors, summed by the ``gate_picks`` of
    gate j. A sweep down the gates folds F_{k-1}, ..., F_{j+1} into W, and
    a sweep up multiplies in F_0 * ... * F_{j-1}."""
    unitaries, factors = chain
    k = len(factors)
    rows, cols = gate_picks(k)
    rest = np.empty_like(factors)
    np.matmul(envs, unitaries.conj(), out=rest[-1])
    for j in range(k - 1, 0, -1):
        np.multiply(rest[j], factors[j], out=rest[j - 1])
    prefix = factors[0]
    for j in range(1, k):
        rest[j] *= prefix
        if j < k - 1:
            prefix = prefix * factors[j]
    gate_envs = rows[:, None] @ rest @ cols[:, None]
    return np.einsum("jboi,bjdoi->bjd", gate_envs, dmats).real


# --- learnable class states ---------------------------------------------------


@lru_cache(maxsize=128)
def _ring_permutation(num_qubits: int, inverse: bool = False) -> np.ndarray:
    """Image of every basis index under the CNOT ring CNOT(k -> k+1 mod n),
    k = 0..n-1, or with ``inverse`` its preimage: the same self-inverse
    gates in reverse order. The identity for one qubit, where there is no
    ring."""
    idx = np.arange(1 << num_qubits)
    if num_qubits > 1:
        gates = range(num_qubits)
        for k in (reversed(gates) if inverse else gates):
            idx ^= ((idx >> k) & 1) << ((k + 1) % num_qubits)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=128)
def class_gathers(circuit: ParamCircuit) -> tuple[np.ndarray, np.ndarray]:
    """``_ring_permutation``'s preimage and image composed with the layer's
    axis orders, 2^n entries each: the Kronecker-product index of every
    position of a class state in the first order of the ``Layout``, which
    ``class_state_trace`` gathers, and the position of every ring image in
    the order the layer's product leaves a state, which ``class_gradients``
    reads."""
    n, layout = circuit.num_qubits, circuit.layout
    index = np.arange(1 << n).reshape((1,) + (2,) * n)
    ordered, product = (index.transpose(order).ravel() for order in (layout.into, layout.back))
    tables = (_ring_permutation(n, inverse=True)[ordered], product[_ring_permutation(n)])
    for table in tables:
        table.setflags(write=False)
    return tables


def class_state_trace(cols: np.ndarray, group_size: int, gather: np.ndarray):
    """Class states from their (C, n, 2) single-qubit columns u_q|0>, one
    row per class, gathered through ``gather``, plus the partial products
    they are built from.

    The ansatz puts each qubit in u_q|0> and closes with a CNOT ring. The
    ring only permutes basis states, so each class state is that
    permutation of the Kronecker product of its n columns, qubit q on bit q.
    The product is built in groups of ``group_size`` columns, which must
    divide n: a loop over the position in the group, batched over the
    groups, takes group_p = col_p (x) group_{p-1}, and a loop over the
    groups takes product_j = group_j (x) product_{j-1}, (g - 1) + (n/g - 1)
    broadcast products in all. The trace holds the partial products of
    both loops, which ``class_gradients`` reads in reverse. ``gather``
    indexes the last product: ``_ring_permutation(n, inverse=True)`` for the
    natural order, or ``class_gathers(gqcg)[0]`` for GQCG's layer order.
    """
    classes, blocks = len(cols), cols.shape[1] // group_size
    cols = cols.reshape(classes, blocks, group_size, 2)
    inner = [cols[:, :, 0]]
    for p in range(1, group_size):
        inner.append((cols[:, :, p, :, None] * inner[-1][:, :, None, :])
                     .reshape(classes, blocks, -1))
    groups = inner.pop()
    outer = [groups[:, 0]]
    for j in range(1, blocks):
        outer.append((groups[:, j, :, None] * outer[-1][:, None, :]).reshape(classes, -1))
    return np.take(outer.pop(), gather, axis=1), (inner, groups, outer)


def class_gradients(xi: np.ndarray, cols: np.ndarray, trace, dcols: np.ndarray,
                    gather: np.ndarray) -> np.ndarray:
    """Re <xi_i|d phi_i> by the b and c angles of every class column, as a
    (C, n, 2) array, from the (C, n, 2) columns, the trace of
    ``class_state_trace`` and the (C, n, 2, 2) b and c column derivatives.
    ``gather`` reads xi, one row per class, in Kronecker-product order:
    ``_ring_permutation(n)`` for natural rows, or ``class_gathers(gqcg)[1]``
    for rows as GQCG's product leaves them.

    Both build loops run backwards, the groups first: t = conj(xi)[gather],
    viewed as (C, 2^g, rest), gives group j's environment t . product_{j-1}
    and then folds against group_j; the same sweep over the positions,
    batched over the groups, gives each column's environment."""
    inner, groups, outer = trace
    classes, blocks, size = groups.shape
    cols = cols.reshape(classes, blocks, -1, 2)
    t = np.take(xi.reshape(classes, -1), gather, axis=1).conj()
    group_envs = np.empty_like(groups)
    for j in range(len(outer), 0, -1):
        t = t.reshape(classes, size, -1)
        group_envs[:, j] = (t @ outer[j - 1][:, :, None])[..., 0]
        t = (groups[:, j, None, :] @ t)[:, 0]
    group_envs[:, 0] = t
    envs, t = np.empty_like(cols), group_envs
    for p in range(len(inner), 0, -1):
        t = t.reshape(t.shape[:2] + (2, -1))
        envs[:, :, p] = (t @ inner[p - 1][..., None])[..., 0]
        t = (cols[:, :, p, None, :] @ t)[:, :, 0]
    envs[:, :, 0] = t
    return np.einsum("cqa,cqja->cqj", envs.reshape(dcols.shape[:2] + (2,)), dcols).real


# --- model --------------------------------------------------------------------


@dataclass(eq=False)
class HQCGModel:
    """Encoding width, both layers, and per-class state parameters.

    ``theta`` is the dense trainable vector laid out as
    [local layer | global layer | class 0 | ... | class C-1].
    """

    num_qubits: int
    group_size: int
    num_classes: int
    lqcg: ParamCircuit
    gqcg: ParamCircuit
    theta: np.ndarray

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"need at least one class, got {self.num_classes}")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.shape != (self.num_params,):
            raise ShapeError(f"theta must have length {self.num_params}, "
                             f"got {self.theta.shape}")

    @property
    def class_params_offset(self) -> int:
        lq, gq = self.lqcg.layout.shape, self.gqcg.layout.shape
        return PARAMS_PER_GATE * (lq[0] * lq[1] + gq[0] * gq[1])

    @property
    def num_params(self) -> int:
        return self.class_params_offset + 3 * self.num_qubits * self.num_classes

    def param_counts(self) -> dict[str, int]:
        return {
            "lqcg": self.lqcg.num_params,
            "gqcg": self.gqcg.num_params,
            "class_states": self.num_params - self.class_params_offset,
            "total": self.num_params,
        }


def build_model(num_qubits: int, group_size: int, num_classes: int,
                seed: int | None = 0, theta=None) -> HQCGModel:
    """Assemble a model; theta defaults to seeded Uniform(-pi, pi)."""
    # _groups names a count below one qubit and refuses one above the cap
    lqcg = build_lqcg(num_qubits, group_size)
    check_seed(seed)
    gqcg = build_gqcg(num_qubits, group_size)
    if num_classes < 1:
        raise ConfigError(f"need at least one class, got {num_classes}")
    total = lqcg.num_params + gqcg.num_params + 3 * num_qubits * num_classes
    if theta is None:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, total)
    return HQCGModel(num_qubits, group_size, num_classes, lqcg, gqcg, theta)


def class_state_matrix(model: HQCGModel) -> np.ndarray:
    """All class states stacked as a (num_classes, 2^n) matrix in natural order."""
    cols = rotation_matrices(split_triples(model, model.theta.reshape(-1, 3))[2])[..., 0]
    return class_state_trace(cols, model.group_size,
                             _ring_permutation(model.num_qubits, inverse=True))[0]


def split_triples(model: HQCGModel, rows: np.ndarray):
    """The LQCG, GQCG and class-state parts of an array with one entry per
    (a, b, c) triple of ``model.theta``, shaped (blocks, k, ...) for the
    layers, as their ``Layout`` gives, and (C, n, ...) for the class states."""
    lq, gq = model.lqcg.layout.shape, model.gqcg.layout.shape
    lo = lq[0] * lq[1]
    hi = lo + gq[0] * gq[1]
    tail = rows.shape[1:]
    return (rows[:lo].reshape(lq + tail), rows[lo:hi].reshape(gq + tail),
            rows[hi:].reshape((model.num_classes, model.num_qubits) + tail))


def fused_blocks(model: HQCGModel, mats: np.ndarray):
    """The (LQCG, GQCG) ``chain_blocks``, their unitary stacks and the
    (C, n, 2) class columns u_q|0> from ``mats``, the (..., 2, 2) rotation
    matrices of every (a, b, c) triple of ``model.theta``."""
    *layers, classes = split_triples(model, mats)
    chains = [chain_blocks(m) for m in layers]
    return chains, [chain[0] for chain in chains], classes[..., 0]


def pull_back(model: HQCGModel, class_states: np.ndarray, unitaries):
    """(G^dagger Phi, U^dagger Phi) in natural order: the (C, 2^n) class
    states, given in GQCG's layer order, swept back through GQCG, then
    through LQCG, with the conjugate transposes of the (LQCG, GQCG)
    ``chain_blocks`` unitary stacks in ``unitaries``."""
    gqcg = model.gqcg
    beta = apply_param_circuit(class_states.reshape(gqcg.layout.views[-1]), gqcg,
                               unitaries[1], adjoint=True)
    beta = natural_order(beta, gqcg)
    return beta, apply_param_circuit(beta, model.lqcg, unitaries[0], adjoint=True)


def overlap_columns(pulled: np.ndarray, length: int) -> np.ndarray:
    """The first ``length`` entries of the (C, 2^n) pulled-back states, all an
    encoded row reads, as one contiguous (length, 2C) real matrix [Re | Im]."""
    parts = pulled[:, :length].view(np.float64).reshape(len(pulled), length, 2)
    return parts.transpose(1, 2, 0).reshape(length, -1)


PRODUCT_MACS = 10**6
"""Multiply-adds (rows x length x 2C) per block of ``score_rows``: the
largest product OpenBLAS 0.3.31 runs unpacked, by its small-matrix kernel, on
an AVX-512 Xeon. On one BLAS thread, (2048x4096) @ (4096x8) took 12.7 ms as one
call and 4.9 ms in 30-row blocks."""


@np.errstate(over="ignore", invalid="ignore")  # checked_norms refuses such rows
def score_rows(signals: np.ndarray, columns: np.ndarray):
    """(conj(a_si) = <x_s|U^dagger phi_i> as a (batch, 2C) [Re | Im] array, the
    L2 norms |x_s|) for raw real rows and their ``overlap_columns``. Each block
    of at most PRODUCT_MACS multiply-adds is multiplied and squared while in
    cache; the norms then divide the products, in place, not the signals."""
    overlaps, squares = np.empty((len(signals), columns.shape[1])), np.empty(len(signals))
    rows = PRODUCT_MACS // columns.size
    # where a block would hold fewer than 8 rows, one product of all is faster
    step = rows if rows >= 8 else len(signals)
    for i in range(0, len(signals), step):
        block = signals[i : i + step]
        np.matmul(block, columns, out=overlaps[i : i + step])
        np.vecdot(block, block, out=squares[i : i + step])
    norms = checked_norms(squares)
    overlaps /= norms[:, None]
    return overlaps, norms


def fidelities(overlaps: np.ndarray) -> np.ndarray:
    """The (batch, C) scores |a_si|^2 from the (batch, 2C) ``score_rows``."""
    classes = overlaps.shape[1] // 2
    re, im = overlaps[:, :classes], overlaps[:, classes:]
    return re * re + im * im


# --- fidelity readouts ----------------------------------------------------------


def direct_fidelity(psi: Statevector, phi: Statevector) -> float:
    """|<psi|phi>|^2 computed from the inner product."""
    return min(1.0, abs(inner_product(psi, phi)) ** 2)


def swap_test_fidelity(psi: Statevector, phi: Statevector) -> float:
    """Fidelity via the ancilla swap test on a (2n+1)-qubit register.

    Ancilla Hadamard, n controlled swaps between the register copies, a
    closing Hadamard; P(ancilla=0) = (1 + |<psi|phi>|^2) / 2, so the
    returned estimate is 2 * P(0) - 1.
    """
    n = psi.num_qubits
    if phi.num_qubits != n:
        raise ShapeError(f"width mismatch: {n} vs {phi.num_qubits} qubits")
    total = 2 * n + 1
    if total > MAX_QUBITS:
        raise CapacityError(
            f"swap test needs {total} qubits, above the {MAX_QUBITS}-qubit cap; "
            "fall back to direct_fidelity"
        )
    ancilla = total - 1
    # Register layout: qubits [0, n) hold psi, [n, 2n) hold phi, top qubit
    # is the ancilla. np.kron puts its first factor on the high bits.
    joint = np.kron(np.array([1.0, 0.0]), np.kron(phi.amplitudes, psi.amplitudes))
    joint = apply_single_matrix(joint, total, ancilla, _HADAMARD)
    for k in range(n):
        joint = apply_swap_kernel(joint, total, k, n + k, control=ancilla)
    joint = apply_single_matrix(joint, total, ancilla, _HADAMARD)
    p0 = float(np.sum(np.abs(joint[: 1 << (2 * n)]) ** 2))
    return min(1.0, max(0.0, 2.0 * p0 - 1.0))


def format_circuit(model: HQCGModel) -> str:
    """Human-readable gate listing with per-section parameter counts."""
    counts = model.param_counts()
    lines = [
        f"HQCG circuit: {model.num_qubits} qubits, "
        f"group size {model.group_size}, {model.num_classes} classes",
    ]
    for name, layer in (("LQCG", model.lqcg), ("GQCG", model.gqcg)):
        lines.append(f"{name}: {len(layer.gates)} gates, {counts[name.lower()]} params")
        lines += [f"  CU q{g.control} -> q{g.target}  slots {g.param_slot}"
                  for g in layer.gates]
    lines.append(f"class states: {model.num_classes} x {3 * model.num_qubits} = "
                 f"{counts['class_states']} params")
    lines.append(f"total: {counts['total']} params")
    return "\n".join(lines)
