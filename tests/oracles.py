"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense Kronecker-product matrices,
per-element Python loops, brute-force pair counting. These are the oracles
the fast library code is checked against, so they must not share code with
the package. The one exception is ``finite_diff_oracle``: it differentiates
the package's own ``batch_loss``, which is what the analytic gradient of
``loss_and_gradients`` must match.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from hqcg import ConfigError, batch_loss
from hqcg.qstate import Controlled, ControlledSwap, Single, Swap
from hqcg.train import PROB_FLOOR, check_batch

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_unitary_2x2(rng) -> np.ndarray:
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def site_matrix(num_qubits: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with per-qubit operators; identity elsewhere.

    Qubit q is bit q of the basis index, so qubit num_qubits-1 is the
    first (highest) factor of the product.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(num_qubits - 1, -1, -1):
        out = np.kron(out, ops.get(q, I2))
    return out


def ket_bra(i: int, j: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return m


def gate_matrix(num_qubits: int, gate) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one gate, built by Kronecker expansion."""
    if isinstance(gate, Single):
        return site_matrix(num_qubits, {gate.target: gate.matrix})
    if isinstance(gate, Controlled):
        return (site_matrix(num_qubits, {gate.control: P0})
                + site_matrix(num_qubits, {gate.control: P1,
                                           gate.target: gate.matrix}))
    if isinstance(gate, Swap):
        total = np.zeros((1 << num_qubits, 1 << num_qubits), dtype=complex)
        for x in (0, 1):
            for y in (0, 1):
                total += site_matrix(num_qubits, {gate.a: ket_bra(y, x),
                                                  gate.b: ket_bra(x, y)})
        return total
    if isinstance(gate, ControlledSwap):
        total = site_matrix(num_qubits, {gate.control: P0})
        for x in (0, 1):
            for y in (0, 1):
                total += site_matrix(num_qubits, {gate.control: P1,
                                                  gate.a: ket_bra(y, x),
                                                  gate.b: ket_bra(x, y)})
        return total
    raise TypeError(f"unknown gate kind: {type(gate).__name__}")


def circuit_matrix(num_qubits: int, gates) -> np.ndarray:
    """Left-multiplied chain product of the gate list, in application order."""
    total = np.eye(1 << num_qubits, dtype=complex)
    for gate in gates:
        total = gate_matrix(num_qubits, gate) @ total
    return total


def random_gate(rng, num_qubits: int):
    kinds = ["single", "controlled", "swap"]
    if num_qubits >= 3:
        kinds.append("cswap")
    kind = kinds[rng.integers(len(kinds))] if num_qubits >= 2 else "single"
    qubits = rng.permutation(num_qubits)
    if kind == "single":
        return Single(int(qubits[0]), random_unitary_2x2(rng))
    if kind == "controlled":
        return Controlled(int(qubits[0]), int(qubits[1]), random_unitary_2x2(rng))
    if kind == "swap":
        return Swap(int(qubits[0]), int(qubits[1]))
    return ControlledSwap(int(qubits[0]), int(qubits[1]), int(qubits[2]))


def random_state_vector(rng, num_qubits: int) -> np.ndarray:
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return v / np.linalg.norm(v)


def _rotation(a: float, b: float, c: float) -> np.ndarray:
    """Rz(c) @ Ry(b) @ Rz(a) as a product of the three explicit matrices."""
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    ry = np.array([[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]])
    return rz(c) @ ry @ rz(a)


def _rotation_derivatives(a: float, b: float, c: float) -> list[np.ndarray]:
    """d/da, d/db and d/dc of ``_rotation``: the same explicit product with
    one factor replaced by its derivative."""
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    def drz(t):
        return np.diag([-0.5j * np.exp(-0.5j * t), 0.5j * np.exp(0.5j * t)])
    cos, sin = math.cos(b / 2), math.sin(b / 2)
    ry = np.array([[cos, -sin], [sin, cos]])
    dry = 0.5 * np.array([[-sin, -cos], [cos, -sin]])
    return [rz(c) @ ry @ drz(a), rz(c) @ dry @ rz(a), drz(c) @ ry @ rz(a)]


def _apply(states: np.ndarray, target: int, u: np.ndarray, control=None) -> np.ndarray:
    """``u`` on qubit ``target`` of every (rows, 2^n) state, only where qubit
    ``control`` is 1 if one is given, by explicit index pairs."""
    idx = np.arange(states.shape[1])
    keep = (idx >> target) & 1 == 0
    if control is not None:
        keep &= (idx >> control) & 1 == 1
    lo = idx[keep]
    hi = lo | (1 << target)
    out = states.copy()
    out[:, lo] = u[0, 0] * states[:, lo] + u[0, 1] * states[:, hi]
    out[:, hi] = u[1, 0] * states[:, lo] + u[1, 1] * states[:, hi]
    return out


def forward_oracle(model, signals) -> np.ndarray:
    """The (rows, C) class fidelities of an HQCG model, simulated gate by
    gate: each signal normalised by ``np.linalg.norm`` and zero-padded, each
    controlled rotation applied in circuit order, and each class state built
    from |0...0> by its rotations and the CNOT ring."""
    n, theta = model.num_qubits, model.theta
    signals = np.asarray(signals, dtype=np.float64)
    psi = np.zeros((len(signals), 1 << n), dtype=complex)
    psi[:, : signals.shape[1]] = signals / np.linalg.norm(signals, axis=1)[:, None]
    for gate in model.lqcg.gates + model.gqcg.gates:
        psi = _apply(psi, gate.target, _rotation(*theta[list(gate.param_slot)]), gate.control)
    phi = np.zeros((model.num_classes, 1 << n), dtype=complex)
    phi[:, 0] = 1.0
    not_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    for c in range(model.num_classes):
        for q in range(n):
            start = model.class_params_offset + 3 * (c * n + q)
            phi[c : c + 1] = _apply(phi[c : c + 1], q, _rotation(*theta[start : start + 3]))
        for k in range(n if n > 1 else 0):
            phi[c : c + 1] = _apply(phi[c : c + 1], (k + 1) % n, not_gate, k)
    return np.abs(psi @ phi.conj().T) ** 2


def gradient_oracle(model, signals, labels):
    """(mean BCE, exact gradient) of an HQCG model from dense 2^n x 2^n
    matrices, for n up to about 8. U is the product of every controlled
    rotation P0 (x) I + P1 (x) R, and each angle sits in one gate, so dU by
    that angle is U with the gate replaced by P1 (x) dR. Each class state is
    the CNOT ring times the Kronecker product of its columns R_q|0>, and its
    derivative by an angle of qubit q swaps that column for dR_q|0>. With
    a_si = <phi_i|U x_s>/|x_s| and p_si = |a_si|^2, the mean BCE over the
    batch and the classes, clamped to [PROB_FLOOR, 1 - PROB_FLOOR], has
    dL/dtheta = sum_si dL/dp_si 2 Re(conj(a_si) da_si), where dL/dp_si is 0
    outside the clamp's open interval."""
    n, theta = model.num_qubits, model.theta
    signals = np.asarray(signals, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    x = np.zeros((1 << n, len(signals)), dtype=complex)
    x[: signals.shape[1]] = (signals / np.linalg.norm(signals, axis=1)[:, None]).T

    gates = model.lqcg.gates + model.gqcg.gates
    ops = [site_matrix(n, {g.control: P0})
           + site_matrix(n, {g.control: P1, g.target: _rotation(*theta[list(g.param_slot)])})
           for g in gates]

    def product(factors):
        total = np.eye(1 << n, dtype=complex)
        for factor in factors:
            total = factor @ total
        return total

    ring = product([site_matrix(n, {k: P0}) + site_matrix(n, {k: P1, (k + 1) % n: X})
                    for k in range(n if n > 1 else 0)])

    def class_state(columns):
        return ring @ site_matrix(n, columns)[:, 0]

    zero = np.array([[1.0], [0.0]])
    columns = [{q: _rotation(*theta[start + 3 * q : start + 3 * q + 3]) @ zero
                for q in range(n)}
               for start in range(model.class_params_offset, theta.size, 3 * n)]
    phi = np.array([class_state(cols) for cols in columns])
    ux = product(ops) @ x
    amps = phi.conj() @ ux  # (C, B)
    probs = np.abs(amps) ** 2
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    loss = -np.mean(labels.T * np.log(p) + (1.0 - labels.T) * np.log(1.0 - p))
    inside = (probs > PROB_FLOOR) & (probs < 1.0 - PROB_FLOOR)
    dldp = np.where(inside, -(labels.T / p - (1.0 - labels.T) / (1.0 - p)), 0.0) / probs.size

    def chain(damps):
        return float(np.sum(dldp * 2.0 * (amps.conj() * damps).real))

    grads = np.zeros(theta.size)
    for i, g in enumerate(gates):
        for j, dr in enumerate(_rotation_derivatives(*theta[list(g.param_slot)])):
            swapped = ops[:i] + [site_matrix(n, {g.control: P1, g.target: dr})] + ops[i + 1:]
            grads[g.param_slot[j]] = chain(phi.conj() @ product(swapped) @ x)
    for c, cols in enumerate(columns):
        for q in range(n):
            start = model.class_params_offset + 3 * (c * n + q)
            for j, dr in enumerate(_rotation_derivatives(*theta[start : start + 3])):
                dphi = class_state({**cols, q: dr @ zero})
                damps = np.zeros_like(amps)
                damps[c] = dphi.conj() @ ux
                grads[start + j] = chain(damps)
    return float(loss), grads


def reference_adamw(theta, grads, m1, m2, t, lr, beta1, beta2, eps, weight_decay):
    """Element-by-element decoupled-Adam update, coded independently."""
    new_theta = np.empty(len(theta))
    new_m1 = np.empty(len(theta))
    new_m2 = np.empty(len(theta))
    for k in range(len(theta)):
        new_m1[k] = beta1 * m1[k] + (1 - beta1) * grads[k]
        new_m2[k] = beta2 * m2[k] + (1 - beta2) * grads[k] ** 2
        mhat = new_m1[k] / (1 - beta1 ** t)
        vhat = new_m2[k] / (1 - beta2 ** t)
        new_theta[k] = theta[k] - lr * mhat / (math.sqrt(vhat) + eps) \
            - lr * weight_decay * theta[k]
    return new_theta, new_m1, new_m2


def central_difference(fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Generic central-difference gradient of a scalar function."""
    grads = np.empty(len(x))
    for k in range(len(x)):
        up = x.copy()
        up[k] += eps
        down = x.copy()
        down[k] -= eps
        grads[k] = (fn(up) - fn(down)) / (2 * eps)
    return grads


def peak_traced_bytes(fn) -> int:
    """The transient memory of ``fn()``: the most bytes tracemalloc saw held
    at once while it ran, less those still held when it returned (its result
    among them)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()  # held while counting, so it counts as kept
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - kept


def finite_diff_oracle(model, signals, labels, eps: float = 1e-5) -> np.ndarray:
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


def qubit_purity(amps: np.ndarray, num_qubits: int, qubit: int) -> float:
    """Tr(rho_q^2) of the reduced single-qubit density matrix."""
    m = amps.reshape((1 << num_qubits) >> (qubit + 1), 2, 1 << qubit)
    rho = np.einsum("hal,hbl->ab", m, m.conj())
    return float(np.real(np.trace(rho @ rho)))


def pairwise_auc(scores, labels) -> float:
    """Brute-force Mann-Whitney statistic over all (positive, negative) pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels) != 0
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def linear_probe_class_aucs(signals: np.ndarray, labels: np.ndarray) -> list[float]:
    """Least-squares probe on raw signals; per-class ranking quality."""
    x = np.hstack([signals, np.ones((len(signals), 1))])
    w, *_ = np.linalg.lstsq(x, labels, rcond=None)
    scores = x @ w
    return [pairwise_auc(scores[:, c], labels[:, c]) for c in range(labels.shape[1])]
