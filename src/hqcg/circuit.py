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
Each circuit keeps the ``Layout`` its sweeps read (``ParamCircuit.layout``);
an LQCG layer's blocks lie in natural qubit order, so it needs no transpose.

Per-class learnable states are prepared by one layer of per-qubit
rotations followed by a fixed CNOT ring; the ring only permutes basis
states, so they are built as permuted Kronecker products of single-qubit
columns (``class_state_trace(cols)``). Class scores are state
fidelities |<psi|phi_i>|^2, computable either directly or through the
ancilla swap test. The batched forward pass scores signals against the
class states pulled back through both layers (``pull_back``), all C
classes in one (batch, 2C) array of overlaps (``score_rows``), which
takes the overlaps and norms of each block of rows while it is in cache,
over the whole batch on the calling thread.

Every scoring and gradient call builds its gates, fused blocks and class
columns once, in ``fused_blocks``; the functions below apply what they are
given and rebuild nothing from ``theta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# perfbench/run.py traces encode_rows and map_rows through this namespace
from .encoding import check_rows, checked_norms, encode_rows  # noqa: F401
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
from .train import check_batch

PARAMS_PER_GATE = 3

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
# diag(-i/2, i/2), the derivative factor of an Rz angle, and the 2 x 2
# identity, the table of a controlled gate whose control bit is 0
_HALF, _EYE = np.array([-0.5j, 0.5j]), np.eye(2)
for _table in (_HALF, _EYE):
    _table.setflags(write=False)


def _rz_ry_rz(cos, sin, phases) -> np.ndarray:
    """Rz(c) @ [[cos, -sin], [sin, cos]] @ Rz(a), entry by entry, as (..., 2, 2),
    from the ``_euler_parts`` phases of a and c.
    Each entry takes the Rz(c) phase, then the Rz(a) phase, in the order of
    the matrix product, so it rounds as that product does."""
    ea, ec, eac, ecc = phases
    u = np.empty(cos.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = cos * ec * ea
    u[..., 0, 1] = -sin * ec * eac
    u[..., 1, 0] = sin * ecc * ea
    u[..., 1, 1] = cos * ecc * eac
    return u


def _euler_parts(angles):
    """cos(b/2), sin(b/2) and the phases (e^{-ia/2}, e^{-ic/2}, e^{ia/2},
    e^{ic/2}) of a (..., 3) block of (a, b, c) rows."""
    angles = np.asarray(angles, dtype=np.float64)
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    ea, ec = np.exp(-0.5j * a), np.exp(-0.5j * c)
    return np.cos(0.5 * b), np.sin(0.5 * b), (ea, ec, ea.conj(), ec.conj())


def rotation_matrices(angles) -> np.ndarray:
    """Rz(c) @ Ry(b) @ Rz(a) for every (a, b, c) row of a (..., 3) angle
    block, as a (..., 2, 2) stack in closed form:
    [[cos(b/2) e^{-i(a+c)/2}, -sin(b/2) e^{i(a-c)/2}],
     [sin(b/2) e^{-i(a-c)/2},  cos(b/2) e^{i(a+c)/2}]]."""
    return _rz_ry_rz(*_euler_parts(angles))


def rotations(angles) -> tuple[np.ndarray, np.ndarray]:
    """``rotation_matrices`` of a (..., 3) angle block together with the
    (..., 3, 2, 2) stack of their derivatives by a, b and c:
    U diag(-i/2, i/2), Rz(c) Ry'(b) Rz(a) and diag(-i/2, i/2) U, with the
    phases of a and c computed once for both."""
    cos, sin, phases = _euler_parts(angles)
    u = _rz_ry_rz(cos, sin, phases)
    du = np.empty(u.shape[:-2] + (3, 2, 2), dtype=np.complex128)
    np.multiply(u, _HALF, out=du[..., 0, :, :])
    # Ry'(b) = [[-sin/2, -cos/2], [cos/2, -sin/2]] has the shape of Ry
    du[..., 1, :, :] = _rz_ry_rz(-0.5 * sin, 0.5 * cos, phases)
    np.multiply(_HALF[:, None], u, out=du[..., 2, :, :])
    return u, du


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
        return Layout((blocks, k), into, back, into == back == tuple(range(n + 1)),
                      tuple((-1, 1 << k, (1 << n) >> (k * (blocks - b)))
                            for b in range(blocks)))


class Layout(NamedTuple):
    """What the sweeps of a layer read of it. ``into`` orders the axes of the
    (rows, 2, ..., 2) amplitude tensor, qubit q on axis n - q, with the
    blocks on top, the last block highest and each block's first qubit
    lowest; ``back`` restores the natural order from the other qubits on top
    of the blocks, where ``apply_param_circuit`` leaves them. ``natural``:
    both are the identity, as for every LQCG layer. ``views[b]`` shapes the
    layer-ordered amplitudes as (rows and blocks above b, block b, rest)."""

    shape: tuple[int, int]  # (blocks, k), the shape of the layer's angle triples
    into: tuple[int, ...]
    back: tuple[int, ...]
    natural: bool
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


def build_lqcg(num_qubits: int, group_size: int, param_offset: int = 0) -> ParamCircuit:
    """Local layer: per-block chain over adjacent qubits plus a skip gate.

    Produces exactly ``num_qubits`` gates (g per block, n/g blocks) and
    3 * num_qubits new parameters.
    """
    return ParamCircuit(num_qubits, tuple(_groups(num_qubits, group_size)), param_offset)


def build_gqcg(num_qubits: int, group_size: int, param_offset: int = 0) -> ParamCircuit:
    """Global layer: chain plus skip across block representatives.

    The representative of block k is its last qubit, (k+1)*g - 1, where the
    local chain terminates. Needs at least two blocks.
    """
    groups = _groups(num_qubits, group_size)
    if len(groups) < 2:
        raise ConfigError(
            "global layer needs at least two qubit groups "
            f"(got {len(groups)} group of size {group_size})"
        )
    return ParamCircuit(num_qubits, (tuple(block[-1] for block in groups),), param_offset)


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


def apply_param_circuit(amps: np.ndarray, circuit: ParamCircuit,
                        unitaries: np.ndarray, *, adjoint: bool = False) -> np.ndarray:
    """Run the layer, or with ``adjoint`` its inverse, over raw amplitudes
    (batched over leading axes), one block of ``unitaries``, the layer's
    ``chain_blocks`` unitary stack, at a time.

    In the first order of the circuit's ``Layout`` the top block is one
    (2^k, 2^k) product on every row; the product leaves that block at the
    bottom, so the next block comes on top. A natural layout skips both
    transposes."""
    # right factors: V^T, or conj(V) = (V^dagger)^T for the adjoint
    right = unitaries.conj() if adjoint else unitaries.swapaxes(-1, -2)
    layout = circuit.layout
    tensor = (-1,) + (2,) * circuit.num_qubits
    x = amps if layout.natural else amps.reshape(tensor).transpose(layout.into)
    x = x.reshape(layout.views[-1])
    for v in right[::-1]:
        x = (x.swapaxes(1, 2) @ v).reshape(x.shape)
    if not layout.natural:
        x = x.reshape(tensor).transpose(layout.back)
    return x.reshape(amps.shape)


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


def class_state_trace(cols: np.ndarray):
    """Class states from their (C, n, 2) single-qubit columns u_q|0>, one
    row per class, plus the partial products they are built from.

    The ansatz puts each qubit in u_q|0> and closes with a CNOT ring. The
    ring only permutes basis states, so each class state is that
    permutation of the Kronecker product of its n columns, qubit q on bit q,
    built as product_q = col_q (x) product_{q-1}. The partial products
    product_0, ..., product_{n-2} come back as a list of (C, 2^(q+1))
    arrays, which ``grad.class_gradients`` reads in reverse. The ring
    permutes the last product by a gather through its preimage.
    """
    classes, num_qubits = cols.shape[:2]
    products = [cols[:, 0]]
    for q in range(1, num_qubits):
        products.append((cols[:, q, :, None] * products[-1][:, None, :])
                        .reshape(classes, -1))
    return (np.take(products.pop(), _ring_permutation(num_qubits, inverse=True), axis=1),
            products)


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
            raise ShapeError(
                f"theta must have length {self.num_params}, got {self.theta.shape}"
            )

    @property
    def class_params_offset(self) -> int:
        return self.lqcg.num_params + self.gqcg.num_params

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
    lqcg = build_lqcg(num_qubits, group_size, param_offset=0)
    check_seed(seed)
    gqcg = build_gqcg(num_qubits, group_size, param_offset=lqcg.num_params)
    if num_classes < 1:
        raise ConfigError(f"need at least one class, got {num_classes}")
    total = lqcg.num_params + gqcg.num_params + 3 * num_qubits * num_classes
    if theta is None:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, total)
    return HQCGModel(num_qubits, group_size, num_classes, lqcg, gqcg, theta)


def class_state_matrix(model: HQCGModel, *, cols: np.ndarray | None = None) -> np.ndarray:
    """All class states stacked as a (num_classes, 2^n) matrix, from their
    ``fused_blocks`` columns if the caller has them."""
    if cols is None:
        cols = rotation_matrices(split_triples(model, model.theta.reshape(-1, 3))[2])[..., 0]
    return class_state_trace(cols)[0]


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
    """(G^dagger Phi, U^dagger Phi): the (C, 2^n) class states swept back
    through GQCG, then through LQCG, with the conjugate transposes of the
    (LQCG, GQCG) ``chain_blocks`` unitary stacks in ``unitaries``."""
    beta = apply_param_circuit(class_states, model.gqcg, unitaries[1], adjoint=True)
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


def forward_batch(model: HQCGModel, signals) -> np.ndarray:
    """Per-class fidelity scores for a (batch, length) signal matrix.

    The circuit U is one fixed linear map, so p_si = |<phi_i|U|x_s>|^2 =
    |<U^dagger phi_i|x_s>|^2. The C class states are pulled back through
    the circuit once per call; the whole batch is then scored on the calling
    thread by one ``score_rows`` pass, in blocks small enough for OpenBLAS's
    unpacked kernel (``PRODUCT_MACS``), each read once for overlaps
    and norm. No per-sample state is built.
    """
    signals, _ = check_batch(model, signals)
    check_rows(signals, model.num_qubits)
    _, unitaries, cols = fused_blocks(model, rotation_matrices(model.theta.reshape(-1, 3)))
    pulled = pull_back(model, class_state_matrix(model, cols=cols), unitaries)[1]
    return fidelities(score_rows(signals, overlap_columns(pulled, signals.shape[1]))[0])


def forward(model: HQCGModel, signal) -> np.ndarray:
    """Class probabilities p_i = |<psi|phi_i>|^2 for one signal."""
    values = np.asarray(signal, dtype=np.float64).ravel()
    return forward_batch(model, values[None, :])[0]


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
        f"LQCG: {len(model.lqcg.gates)} gates, {counts['lqcg']} params",
    ]
    for g in model.lqcg.gates:
        lines.append(f"  CU q{g.control} -> q{g.target}  slots {g.param_slot}")
    lines.append(f"GQCG: {len(model.gqcg.gates)} gates, {counts['gqcg']} params")
    for g in model.gqcg.gates:
        lines.append(f"  CU q{g.control} -> q{g.target}  slots {g.param_slot}")
    lines.append(
        f"class states: {model.num_classes} x {3 * model.num_qubits} = "
        f"{counts['class_states']} params"
    )
    lines.append(f"total: {counts['total']} params")
    return "\n".join(lines)
