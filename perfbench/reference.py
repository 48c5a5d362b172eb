"""Reference HQCG forward pass and the benchmark's correctness gate.

Everything here is rebuilt from the model description in the README, not
from the package: the gate layout, the rotation convention, the class-state
ansatz and the loss. Two forward implementations cover the geometries:

* n <= 10: dense 2^n x 2^n Kronecker matrices for every gate, class states
  from a dense rotation layer followed by dense CNOT matrices;
* larger n: per-gate einsum on a (batch,) + (2,)*n tensor, class states as a
  CNOT-ring permutation of a Kronecker product of single-qubit columns.

Qubit q is bit q of the basis index, so np.kron takes qubit n-1 first and
qubit q is axis 1 + (n - 1 - q) of the batched tensor.
"""

from __future__ import annotations

import numpy as np

PROB_TOL = 1e-10   # probabilities and loss against the reference
FD_EPS = 1e-5      # central-difference step along a unit direction
DENSE_MAX_QUBITS = 10
PROB_FLOOR = 1e-7  # BCE clamp, as documented for the training loss
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def rotation(a: float, b: float, c: float) -> np.ndarray:
    """Rz(c) @ Ry(b) @ Rz(a)."""
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    cb, sb = np.cos(0.5 * b), np.sin(0.5 * b)
    return rz(c) @ np.array([[cb, -sb], [sb, cb]]) @ rz(a)


def circuit_gates(n: int, g: int) -> list[tuple[int, int]]:
    """(control, target) of every trainable gate; gate k owns theta[3k:3k+3]."""
    gates = []
    for start in range(0, n, g):
        last = start + g - 1
        gates += [(q, q + 1) for q in range(start, last)] + [(last, start)]
    reps = [start + g - 1 for start in range(0, n, g)]
    gates += [(reps[k], reps[k + 1]) for k in range(len(reps) - 1)]
    gates.append((reps[-1], reps[0]))
    return gates


def _class_angles(theta, n, g, c):
    base = 3 * len(circuit_gates(n, g)) + 3 * n * c
    return theta[base : base + 3 * n].reshape(n, 3)


# --- dense path ---------------------------------------------------------------


def _kron_ops(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, ops.get(q, np.eye(2)))
    return out


def _dense_controlled(n, control, target, u):
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return _kron_ops(n, {control: p0}) + _kron_ops(n, {control: p1, target: u})


def _dense_states(theta, n, g, num_classes, x):
    u = np.eye(1 << n, dtype=np.complex128)
    for k, (c, t) in enumerate(circuit_gates(n, g)):
        u = _dense_controlled(n, c, t, rotation(*theta[3 * k : 3 * k + 3])) @ u
    psi = x.astype(np.complex128) @ u.T
    xgate = np.array([[0.0, 1.0], [1.0, 0.0]])
    ring = np.eye(1 << n, dtype=np.complex128)
    for k in range(n):
        ring = _dense_controlled(n, k, (k + 1) % n, xgate) @ ring
    zero = np.zeros(1 << n)
    zero[0] = 1.0
    phis = []
    for c in range(num_classes):
        angles = _class_angles(theta, n, g, c)
        layer = _kron_ops(n, {q: rotation(*angles[q]) for q in range(n)})
        phis.append(ring @ (layer @ zero))
    return psi, np.array(phis)


# --- tensor path ----------------------------------------------------------------


def _einsum_controlled(psi, n, control, target, u):
    gate = np.zeros((2, 2, 2, 2), dtype=np.complex128)  # [c_out, t_out, c_in, t_in]
    gate[0, :, 0, :] = np.eye(2)
    gate[1, :, 1, :] = u
    idx = list(LETTERS[1 : n + 1])
    ca, ta = 1 + (n - 1 - control), 1 + (n - 1 - target)
    src = "a" + "".join(idx)
    out = list(src)
    out[ca], out[ta] = "Y", "Z"
    spec = f"YZ{src[ca]}{src[ta]},{src}->{''.join(out)}"
    return np.einsum(spec, gate, psi)


def _ring_permutation(n: int) -> np.ndarray:
    """Image of every basis index under CNOT(k -> k+1 mod n), k = 0..n-1."""
    idx = np.arange(1 << n)
    for k in range(n):
        idx = idx ^ (((idx >> k) & 1) << ((k + 1) % n))
    return idx


def _tensor_states(theta, n, g, num_classes, x):
    psi = x.astype(np.complex128).reshape((-1,) + (2,) * n)
    for k, (c, t) in enumerate(circuit_gates(n, g)):
        psi = _einsum_controlled(psi, n, c, t, rotation(*theta[3 * k : 3 * k + 3]))
    perm = _ring_permutation(n)
    phis = np.zeros((num_classes, 1 << n), dtype=np.complex128)
    for c in range(num_classes):
        angles = _class_angles(theta, n, g, c)
        product = np.ones(1, dtype=np.complex128)
        for q in range(n - 1, -1, -1):
            product = np.kron(product, rotation(*angles[q])[:, 0])
        phis[c, perm] = product
    return psi.reshape(len(x), 1 << n), phis


# --- model outputs ----------------------------------------------------------------


def encode(signals: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros((len(signals), 1 << n))
    x[:, : signals.shape[1]] = signals / np.linalg.norm(signals, axis=1)[:, None]
    return x


def probabilities(theta, n, g, num_classes, signals) -> np.ndarray:
    """(batch, classes) class fidelities |<phi_i|U x>|^2."""
    theta = np.asarray(theta, dtype=np.float64)
    states = _dense_states if n <= DENSE_MAX_QUBITS else _tensor_states
    psi, phis = states(theta, n, g, num_classes, encode(signals, n))
    return np.abs(psi @ phis.conj().T) ** 2


def loss(theta, n, g, num_classes, signals, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    p = np.clip(probabilities(theta, n, g, num_classes, signals),
                PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))


def directional_fd(theta, n, g, num_classes, signals, labels, direction) -> float:
    up = loss(theta + FD_EPS * direction, n, g, num_classes, signals, labels)
    down = loss(theta - FD_EPS * direction, n, g, num_classes, signals, labels)
    return (up - down) / (2.0 * FD_EPS)


# --- the gate -----------------------------------------------------------------------


def probs_match(got, want) -> bool:
    return bool(np.shape(got) == np.shape(want)
                and np.max(np.abs(np.asarray(got) - want)) <= PROB_TOL)


def gradient_matches(grad, direction, fd) -> bool:
    """The criterion-4 tolerance applied to one directional derivative."""
    return bool(abs(float(grad @ direction) - fd) <= max(1e-7, 1e-4 * abs(fd)))


def check(geometry: tuple[int, int, int], theta, signals, labels, got_probs,
          got_loss, got_grad, perturbed_probs, rng) -> dict[str, bool]:
    """Every gate verdict for one set of program outputs.

    ``perturbed_probs`` are the program's probabilities for ``theta`` moved in
    one slot; the gate must reject them. It must also reject ``got_grad`` with
    its largest component's sign flipped. Those two entries are the gate's
    self-test: True means the gate said no.
    """
    n, g, num_classes = geometry
    want = probabilities(theta, n, g, num_classes, signals)
    want_loss = loss(theta, n, g, num_classes, signals, labels)
    direction = rng.normal(size=theta.size)
    direction /= np.linalg.norm(direction)
    fd = directional_fd(theta, n, g, num_classes, signals, labels, direction)
    flipped = got_grad.copy()
    worst = int(np.argmax(np.abs(flipped)))
    flipped[worst] = -flipped[worst]
    return {
        "reference_forward": probs_match(got_probs, want),
        "reference_loss": abs(got_loss - want_loss) <= PROB_TOL,
        "directional_gradient": gradient_matches(got_grad, direction, fd),
        "rejects_perturbed_theta": not probs_match(perturbed_probs, want),
        "rejects_flipped_gradient": not gradient_matches(flipped, direction, fd),
    }
