"""Dense statevector engine: states, gates, inner products, probabilities.

Basis convention used everywhere in this package: qubit q is bit q of the
basis-state integer index (little-endian), so for two qubits the state
|q1 q0> = |10> lives at index 2. All public operations are pure: they
return new objects and never mutate their inputs. The low-level kernels
accept arrays of shape (..., 2^n) so batches of states can be pushed
through a gate in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError, StateError

MAX_QUBITS = 26  # 2^26 complex128 amplitudes ~ 1 GiB

NORM_ATOL = 1e-9
UNITARY_ATOL = 1e-12


def check_qubits(num_qubits: int) -> None:
    """Refuse a register of fewer than one or more than MAX_QUBITS qubits,
    before anything of its size is allocated."""
    if num_qubits < 1:
        raise CapacityError(f"need at least one qubit, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise CapacityError(f"qubit count {num_qubits} is above the {MAX_QUBITS}-qubit cap")


def _as_unitary(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ShapeError(f"gate matrix must be 2x2, got shape {m.shape}")
    if not np.allclose(m.conj().T @ m, np.eye(2), atol=UNITARY_ATOL):
        raise StateError("gate matrix is not unitary within 1e-12")
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class Statevector:
    """Pure n-qubit state: 2^n complex amplitudes with unit L2 norm."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_qubits(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        want = 1 << self.num_qubits
        if amps.shape != (want,):
            raise ShapeError(
                f"expected {want} amplitudes for {self.num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too
            raise StateError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")


@dataclass(frozen=True, eq=False)
class Single:
    """Unitary on one target qubit."""

    target: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_unitary(self.matrix))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target,)


@dataclass(frozen=True, eq=False)
class Controlled:
    """Unitary on ``target``, applied only where ``control`` is 1."""

    control: int
    target: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.control == self.target:
            raise ShapeError("control and target must differ")
        object.__setattr__(self, "matrix", _as_unitary(self.matrix))

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class Swap:
    """Exchange of two qubits."""

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ShapeError("swap qubits must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class ControlledSwap:
    """Exchange of qubits ``a`` and ``b`` where ``control`` is 1."""

    control: int
    a: int
    b: int

    def __post_init__(self):
        if len({self.control, self.a, self.b}) != 3:
            raise ShapeError("controlled swap needs three distinct qubits")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.a, self.b)


GateOp = Single | Controlled | Swap | ControlledSwap


@dataclass(frozen=True)
class BasisProjector:
    """Projector onto ``bit`` (0 or 1) of one computational-basis qubit."""

    qubit: int
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ShapeError(f"projector bit must be 0 or 1, got {self.bit}")


# --- kernels ----------------------------------------------------------------
# All kernels act on the last axis of an (..., 2^n) array and return a new
# array. They read and write amplitudes only through ``_select`` views, so
# they build no index array and keep nothing once they return.


def _select(amps: np.ndarray, num_qubits: int, bits: dict[int, int]) -> np.ndarray:
    """The amplitudes of ``amps`` whose qubit q holds ``bits[q]``, as a view.

    The last axis is read as the (..., 2, ..., 2) qubit tensor, qubit q on
    trailing axis n-1-q, and each fixed qubit's axis is indexed by its bit.
    Basic indexing only: the result is a view, writable through to ``amps``
    when ``amps`` is C-contiguous.
    """
    index = [slice(None)] * num_qubits
    for q, bit in bits.items():
        index[num_qubits - 1 - q] = bit
    return amps.reshape(amps.shape[:-1] + (2,) * num_qubits)[(..., *index)]


def _apply_matrix(amps: np.ndarray, num_qubits: int, controls: dict[int, int],
                  target: int, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` on ``target`` where ``controls`` hold; other amplitudes
    are copied through bit for bit."""
    lo, hi = {**controls, target: 0}, {**controls, target: 1}
    a0 = _select(amps, num_qubits, lo)
    a1 = _select(amps, num_qubits, hi)
    out = amps.copy()
    _select(out, num_qubits, lo)[...] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    _select(out, num_qubits, hi)[...] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return out


def apply_single_matrix(amps: np.ndarray, num_qubits: int, target: int,
                        matrix: np.ndarray) -> np.ndarray:
    return _apply_matrix(amps, num_qubits, {}, target, matrix)


def apply_controlled_matrix(amps: np.ndarray, num_qubits: int, control: int,
                            target: int, matrix: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to ``target`` on the control=1 subspace; the
    control=0 amplitudes pass through untouched."""
    return _apply_matrix(amps, num_qubits, {control: 1}, target, matrix)


def apply_swap_kernel(amps: np.ndarray, num_qubits: int, a: int, b: int,
                      control: int | None = None) -> np.ndarray:
    controls = {} if control is None else {control: 1}
    x, y = {**controls, a: 1, b: 0}, {**controls, a: 0, b: 1}
    out = amps.copy()
    _select(out, num_qubits, x)[...] = _select(amps, num_qubits, y)
    _select(out, num_qubits, y)[...] = _select(amps, num_qubits, x)
    return out


# --- public operations ------------------------------------------------------


def zero_state(num_qubits: int) -> Statevector:
    """All-qubits-|0> state."""
    check_qubits(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qubits, amps)


def _check_bounds(gate: GateOp, num_qubits: int) -> None:
    for q in gate.qubits:
        if not 0 <= q < num_qubits:
            raise IndexError(
                f"gate qubit {q} out of range for {num_qubits}-qubit state"
            )


def apply_gate(state: Statevector, gate: GateOp) -> Statevector:
    """Exact action of one gate; preserves norm to ~1e-12 per application."""
    n = state.num_qubits
    _check_bounds(gate, n)
    if isinstance(gate, Single):
        raw = apply_single_matrix(state.amplitudes, n, gate.target, gate.matrix)
    elif isinstance(gate, Controlled):
        raw = apply_controlled_matrix(state.amplitudes, n, gate.control,
                                      gate.target, gate.matrix)
    elif isinstance(gate, Swap):
        raw = apply_swap_kernel(state.amplitudes, n, gate.a, gate.b)
    elif isinstance(gate, ControlledSwap):
        raw = apply_swap_kernel(state.amplitudes, n, gate.a, gate.b, gate.control)
    else:
        raise TypeError(f"unknown gate kind: {type(gate).__name__}")
    return Statevector(n, raw)


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b> = sum_i conj(a_i) * b_i."""
    if a.num_qubits != b.num_qubits:
        raise ShapeError(
            f"width mismatch: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def projector_probability(state: Statevector, proj: BasisProjector) -> float:
    """Probability of measuring ``proj.bit`` on ``proj.qubit``."""
    if not 0 <= proj.qubit < state.num_qubits:
        raise IndexError(
            f"projector qubit {proj.qubit} out of range for "
            f"{state.num_qubits}-qubit state"
        )
    amps = _select(state.amplitudes, state.num_qubits, {proj.qubit: proj.bit})
    return float(np.sum(np.abs(amps) ** 2))
