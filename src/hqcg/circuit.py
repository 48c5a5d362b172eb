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

Per-class learnable states are prepared by one layer of per-qubit
rotations followed by a fixed CNOT ring; the ring only permutes basis
states, so they are built as permuted Kronecker products of single-qubit
columns (``class_state_trace``). Class scores are state
fidelities |<psi|phi_i>|^2, computable either directly or through the
ancilla swap test. The batched forward pass scores signals against the
class states pulled back through both layers (``pull_back``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# perfbench/run.py traces encode_rows through this module's namespace
from .encoding import encode_rows, row_norms  # noqa: F401
from .errors import CapacityError, ConfigError, NumericError, ShapeError
from .parallel import map_rows
from .qstate import (
    MAX_QUBITS,
    Statevector,
    apply_controlled_matrix,
    apply_single_matrix,
    apply_swap_kernel,
    inner_product,
)

PARAMS_PER_GATE = 3

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def _rz_ry_rz(cos, sin, a, c) -> np.ndarray:
    """Rz(c) @ [[cos, -sin], [sin, cos]] @ Rz(a), entry by entry, as (..., 2, 2).
    Each entry takes the Rz(c) phase, then the Rz(a) phase, in the order of
    the matrix product, so it rounds as that product does."""
    ea, ec = np.exp(-0.5j * a), np.exp(-0.5j * c)
    u = np.empty(np.shape(cos) + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = cos * ec * ea
    u[..., 0, 1] = -sin * ec * ea.conj()
    u[..., 1, 0] = sin * ec.conj() * ea
    u[..., 1, 1] = cos * ec.conj() * ea.conj()
    return u


def _euler_parts(angles):
    """cos(b/2), sin(b/2), a and c of a (..., 3) block of (a, b, c) rows."""
    angles = np.asarray(angles, dtype=np.float64)
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]
    return np.cos(0.5 * b), np.sin(0.5 * b), a, c


def rotation_matrices(angles) -> np.ndarray:
    """Rz(c) @ Ry(b) @ Rz(a) for every (a, b, c) row of a (..., 3) angle
    block, as a (..., 2, 2) stack in closed form:
    [[cos(b/2) e^{-i(a+c)/2}, -sin(b/2) e^{i(a-c)/2}],
     [sin(b/2) e^{-i(a-c)/2},  cos(b/2) e^{i(a+c)/2}]]."""
    return _rz_ry_rz(*_euler_parts(angles))


def rotation_derivatives(angles) -> np.ndarray:
    """The (..., 3, 2, 2) stack of derivatives of ``rotation_matrices`` by
    a, b and c: U diag(-i/2, i/2), Rz(c) Ry'(b) Rz(a) and diag(-i/2, i/2) U."""
    cos, sin, a, c = _euler_parts(angles)
    u = _rz_ry_rz(cos, sin, a, c)
    half = np.array([-0.5j, 0.5j])
    # Ry'(b) = [[-sin/2, -cos/2], [cos/2, -sin/2]] has the shape of Ry
    return np.stack([u * half, _rz_ry_rz(-0.5 * sin, 0.5 * cos, a, c),
                     half[:, None] * u], axis=-3)


def rotation_matrix(a: float, b: float, c: float) -> np.ndarray:
    """General single-qubit rotation Rz(c) @ Ry(b) @ Rz(a)."""
    return rotation_matrices((a, b, c))


@dataclass(frozen=True)
class ParamGate:
    """One trainable controlled rotation owning three parameter slots."""

    control: int
    target: int
    param_slot: tuple[int, int, int]

    def __post_init__(self):
        if self.control == self.target:
            raise ShapeError("control and target must differ")
        if len(set(self.param_slot)) != 3:
            raise ConfigError(f"parameter slots must be distinct: {self.param_slot}")


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered trainable gates whose slots tile a contiguous parameter range."""

    num_qubits: int
    gates: tuple[ParamGate, ...]
    param_offset: int

    def __post_init__(self):
        slots = [s for g in self.gates for s in g.param_slot]
        want = list(range(self.param_offset, self.param_offset + len(slots)))
        if sorted(slots) != want:
            raise ConfigError("parameter slots must tile a contiguous range")
        for g in self.gates:
            if not (0 <= g.control < self.num_qubits and 0 <= g.target < self.num_qubits):
                raise ConfigError(f"gate {g} out of range for width {self.num_qubits}")

    @property
    def num_params(self) -> int:
        return PARAMS_PER_GATE * len(self.gates)


def _groups(num_qubits: int, group_size: int) -> list[list[int]]:
    """The contiguous qubit blocks of size ``group_size``."""
    if group_size < 2:
        raise ConfigError(f"group size must be >= 2, got {group_size}")
    if num_qubits % group_size != 0:
        raise ConfigError(
            f"group size {group_size} does not divide qubit count {num_qubits}"
        )
    return [list(range(start, start + group_size))
            for start in range(0, num_qubits, group_size)]


def _chain_with_skip(qubits: list[int], slot: int) -> list[ParamGate]:
    """CU(q_k -> q_k+1) along ``qubits``, then the skip gate CU(last -> first),
    owning consecutive parameter slots from ``slot`` on."""
    pairs = list(zip(qubits, qubits[1:])) + [(qubits[-1], qubits[0])]
    return [ParamGate(c, t, (s, s + 1, s + 2))
            for (c, t), s in zip(pairs, range(slot, slot + 3 * len(pairs), 3))]


def build_lqcg(num_qubits: int, group_size: int, param_offset: int = 0) -> ParamCircuit:
    """Local layer: per-block chain over adjacent qubits plus a skip gate.

    Produces exactly ``num_qubits`` gates (g per block, n/g blocks) and
    3 * num_qubits new parameters.
    """
    gates = []
    for block in _groups(num_qubits, group_size):
        gates += _chain_with_skip(block, param_offset + PARAMS_PER_GATE * len(gates))
    return ParamCircuit(num_qubits, tuple(gates), param_offset)


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
    gates = _chain_with_skip([block[-1] for block in groups], param_offset)
    return ParamCircuit(num_qubits, tuple(gates), param_offset)


def apply_param_circuit(amps: np.ndarray, circuit: ParamCircuit,
                        theta: np.ndarray, *, adjoint: bool = False,
                        trace: list | None = None) -> np.ndarray:
    """Run the circuit, or with ``adjoint`` its inverse, over raw amplitudes
    (batched over leading axes). A ``trace`` list receives the state in
    front of every gate, in the order the gates are applied."""
    if circuit.param_offset + circuit.num_params > len(theta):
        raise ShapeError(
            f"parameter vector of length {len(theta)} too short for circuit "
            f"slots up to {circuit.param_offset + circuit.num_params - 1}"
        )
    gates = circuit.gates
    mats = rotation_matrices(theta[[g.param_slot for g in gates]])
    if adjoint:
        gates, mats = gates[::-1], mats[::-1].conj().swapaxes(-1, -2)
    for gate, u in zip(gates, mats):
        if trace is not None:
            trace.append(amps)
        amps = apply_controlled_matrix(amps, circuit.num_qubits, gate.control,
                                       gate.target, u)
    return amps


# --- learnable class states ---------------------------------------------------


@lru_cache(maxsize=64)
def _ring_permutation(num_qubits: int) -> np.ndarray:
    """Image of every basis index under the CNOT ring CNOT(k -> k+1 mod n),
    k = 0..n-1; the identity for one qubit, where there is no ring."""
    idx = np.arange(1 << num_qubits)
    if num_qubits > 1:
        for k in range(num_qubits):
            idx ^= ((idx >> k) & 1) << ((k + 1) % num_qubits)
    idx.setflags(write=False)
    return idx


def class_state_trace(num_qubits: int, angles):
    """Class states from a (C, 3n) block of angles, one row per class, plus
    the (C, n, 2) single-qubit columns u_q|0> they are built from.

    The ansatz puts each qubit in u_q|0> and closes with a CNOT ring. The
    ring only permutes basis states, so each class state is that
    permutation of the Kronecker product of its n columns, qubit q on bit q.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 2 or angles.shape[1] != 3 * num_qubits:
        raise ShapeError(
            f"class state on {num_qubits} qubits needs {3 * num_qubits} angles "
            f"per class, got an array of shape {angles.shape}"
        )
    cols = rotation_matrices(angles.reshape(len(angles), num_qubits, 3))[..., 0]
    product = cols[:, 0]
    for q in range(1, num_qubits):
        product = (cols[:, q, :, None] * product[:, None, :]).reshape(len(cols), -1)
    states = np.empty_like(product)
    states[:, _ring_permutation(num_qubits)] = product
    return states, cols


def build_class_state(num_qubits: int, class_params) -> Statevector:
    """Learnable per-class state: per-qubit rotations, then the CNOT ring."""
    angles = np.asarray(class_params, dtype=np.float64).reshape(1, -1)
    return Statevector(num_qubits, class_state_trace(num_qubits, angles)[0][0])


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

    def class_angle_block(self) -> np.ndarray:
        """The class-state angles as a (num_classes, 3n) block, one row per class."""
        return self.theta[self.class_params_offset :].reshape(self.num_classes, -1)

    def class_angles(self, index: int) -> np.ndarray:
        if not 0 <= index < self.num_classes:
            raise IndexError(f"class index {index} out of range")
        return self.class_angle_block()[index]

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
    lqcg = build_lqcg(num_qubits, group_size, param_offset=0)
    gqcg = build_gqcg(num_qubits, group_size, param_offset=lqcg.num_params)
    if num_classes < 1:
        raise ConfigError(f"need at least one class, got {num_classes}")
    total = lqcg.num_params + gqcg.num_params + 3 * num_qubits * num_classes
    if theta is None:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-np.pi, np.pi, total)
    return HQCGModel(num_qubits, group_size, num_classes, lqcg, gqcg, theta)


def class_state_matrix(model: HQCGModel) -> np.ndarray:
    """All class states stacked as a (num_classes, 2^n) matrix."""
    return class_state_trace(model.num_qubits, model.class_angle_block())[0]


def pull_back(model: HQCGModel, class_states: np.ndarray,
              trace: list | None = None) -> np.ndarray:
    """W = U^dagger Phi: the (C, 2^n) class states swept back through GQCG,
    then LQCG, with conjugate-transposed gates. ``trace`` receives the
    states in front of every undone gate (last circuit gate first)."""
    amps = apply_param_circuit(class_states, model.gqcg, model.theta,
                               adjoint=True, trace=trace)
    return apply_param_circuit(amps, model.lqcg, model.theta, adjoint=True,
                               trace=trace)


def conj_overlaps(signals: np.ndarray, norms: np.ndarray, pulled: np.ndarray):
    """Real and imaginary parts of conj(a_si) = <x_s|U^dagger phi_i> for raw
    real rows of length L with L2 norms ``norms``. The encoded state is
    x_s / norms[s], zero past L, so only the first L columns of each
    pulled-back state count, and the norm divides the (batch, C) products
    rather than the signals."""
    head = pulled[:, : signals.shape[1]]
    both = signals @ np.concatenate([head.real, head.imag]).T / norms[:, None]
    return both[:, : len(pulled)], both[:, len(pulled) :]


def forward_batch(model: HQCGModel, signals, threads: int | None = None) -> np.ndarray:
    """Per-class fidelity scores for a (batch, length) signal matrix.

    The circuit U is one fixed linear map, so p_si = |<phi_i|U|x_s>|^2 =
    |<U^dagger phi_i|x_s>|^2. The C class states are pulled back through
    the circuit once per call; each chunk of rows is then scored by one
    real matrix product against the real and imaginary parts of the
    pulled-back states. No per-sample state is built.
    """
    if not np.isfinite(model.theta).all():
        raise NumericError("non-finite model parameters")
    signals = np.asarray(signals, dtype=np.float64)
    pulled = pull_back(model, class_state_matrix(model))

    def probs_chunk(chunk):
        re, im = conj_overlaps(chunk, row_norms(chunk, model.num_qubits), pulled)
        return re * re + im * im

    return map_rows(probs_chunk, signals, threads)


def forward(model: HQCGModel, signal) -> np.ndarray:
    """Class probabilities p_i = |<psi|phi_i>|^2 for one signal."""
    values = np.asarray(signal, dtype=np.float64).ravel()
    return forward_batch(model, values[None, :], threads=1)[0]


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
