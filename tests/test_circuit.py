"""Layer constructions, class states, forward pass, and fidelity readouts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqcg.circuit
import hqcg.grad
from hqcg import (
    MAX_QUBITS,
    CapacityError,
    ConfigError,
    DataFormatError,
    HqcgError,
    NumericError,
    ShapeError,
    Statevector,
    amplitude_encode,
    build_gqcg,
    build_lqcg,
    build_model,
    direct_fidelity,
    format_circuit,
    forward,
    forward_batch,
    swap_test_fidelity,
    zero_state,
)
from hqcg.circuit import PRODUCT_MACS, apply_param_circuit, chain_blocks, \
    class_state_trace, fused_blocks, layer_order, natural_order, rotation_matrices, \
    rotations, split_triples
from hqcg.encoding import encode_rows
from hqcg.qstate import Controlled, Single, apply_gate
from oracles import circuit_matrix, forward_oracle, qubit_purity, random_state_vector

SRC = Path(__file__).resolve().parent.parent / "src"

S2 = 1.0 / np.sqrt(2.0)


def _stacks(model):
    """The (LQCG, GQCG) ``chain_blocks`` unitary stacks of ``model.theta``."""
    return fused_blocks(model, rotation_matrices(model.theta.reshape(-1, 3)))[1]


def _random_states(rng, n, count):
    return [Statevector(n, random_state_vector(rng, n)) for _ in range(count)]


# --- gate matrices ------------------------------------------------------------


def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _explicit_rotation(a, b, c):
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return _rz(c) @ ry @ _rz(a)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 6, 3)])
def test_rotation_matrices_match_explicit_product(shape):
    rng = np.random.default_rng(31)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, shape)
    mats = rotation_matrices(angles)
    assert mats.shape == shape[:-1] + (2, 2)
    want = np.array([_explicit_rotation(*row) for row in angles.reshape(-1, 3)])
    np.testing.assert_allclose(mats.reshape(-1, 2, 2), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (4, 6, 3)])
def test_rotation_derivatives_match_central_differences(shape):
    rng = np.random.default_rng(32)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, shape)
    mats, stack = rotations(angles)
    np.testing.assert_array_equal(mats, rotation_matrices(angles))
    assert stack.shape == shape[:-1] + (3, 2, 2)
    eps = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        fd = (rotation_matrices(angles + step) - rotation_matrices(angles - step)) / (2 * eps)
        np.testing.assert_allclose(stack[..., j, :, :], fd, rtol=0, atol=1e-8)


# --- layer construction -------------------------------------------------------


def test_lqcg_single_group_wiring():
    circ = build_lqcg(4, 4)
    assert [(g.control, g.target) for g in circ.gates] == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert circ.num_params == 12


def test_lqcg_counts_at_width_sixteen():
    circ = build_lqcg(16, 4)
    assert len(circ.gates) == 16
    assert circ.num_params == 48
    starts = [g.control for g in circ.gates[::4]]
    assert starts == [0, 4, 8, 12]


def test_lqcg_divisibility_error():
    with pytest.raises(ConfigError):
        build_lqcg(4, 3)


def test_lqcg_group_size_minimum():
    with pytest.raises(ConfigError):
        build_lqcg(4, 1)


def test_gqcg_wiring_sixteen():
    circ = build_gqcg(16, 4)
    assert [(g.control, g.target) for g in circ.gates] == \
        [(3, 7), (7, 11), (11, 15), (15, 3)]
    assert circ.num_params == 12


def test_gqcg_wiring_eight():
    circ = build_gqcg(8, 4)
    assert [(g.control, g.target) for g in circ.gates] == [(3, 7), (7, 3)]
    assert circ.num_params == 6


def test_gqcg_single_group_error():
    with pytest.raises(ConfigError):
        build_gqcg(4, 4)


def test_build_model_above_qubit_cap_raises_before_building():
    # MAX_QUBITS + 1 = 27 is nine groups of 3, a valid layout: only the cap
    # rejects it, before any layer or theta exists
    with pytest.raises(CapacityError, match=f"qubit count {MAX_QUBITS + 1} is above"):
        build_model(MAX_QUBITS + 1, 3, 2)


# Run in a child whose address space is capped at 2 GiB: without the cap
# check a layer over 10^9 qubits builds one tuple per group until it ends
# in a MemoryError.
_CAPPED_BUILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from hqcg import CapacityError, build_gqcg, build_lqcg, build_model
count = int(sys.argv[2])
build = {"lqcg": lambda: build_lqcg(count, 2),
         "gqcg": lambda: build_gqcg(count, 2),
         "model": lambda: build_model(count, 2, 2)}[sys.argv[1]]
try:
    build()
except CapacityError as err:
    print(err)
"""


@pytest.mark.parametrize("build,count", [("lqcg", 10**9), ("gqcg", 10**9),
                                         ("model", 10**9)])
def test_above_qubit_cap_raises_before_allocating(build, count):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)),
        OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_BUILD, build, str(count)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"qubit count {count} is above the 26-qubit cap" in proc.stdout


def test_param_slots_are_contiguous():
    lqcg = build_lqcg(8, 4)
    gqcg = build_gqcg(8, 4)
    slots = [s for g in lqcg.gates + gqcg.gates for s in g.param_slot]
    assert sorted(slots) == list(range(30))


@pytest.mark.parametrize("n, g", [(4, 2), (8, 4), (12, 3)])
def test_model_from_the_builders_lists_build_models_slots(n, g):
    # a model assembled from the two builders scores with the slots its
    # layers own, so it lists the ones build_model's model lists
    built = build_model(n, g, 2, seed=0)
    model = hqcg.circuit.HQCGModel(n, g, 2, build_lqcg(n, g), build_gqcg(n, g), built.theta)
    assert format_circuit(model) == format_circuit(built)
    assert model.gqcg.gates[0].param_slot == (3 * n, 3 * n + 1, 3 * n + 2)


# --- class states ----------------------------------------------------------------


def _class_states(angles, group_size=1):
    """The class states of a (C, n, 3) block of per-qubit angles, as rows in
    natural order, their Kronecker products built in groups of ``group_size``."""
    angles = np.asarray(angles, dtype=float)
    ring = hqcg.circuit._ring_permutation(angles.shape[1], inverse=True)
    return class_state_trace(rotation_matrices(angles)[..., 0], group_size, ring)[0]


def test_class_state_zero_angles_is_ground_state():
    out = _class_states(np.zeros((1, 2, 3)))
    np.testing.assert_allclose(out, [[1, 0, 0, 0]], atol=1e-15)


def test_class_state_single_qubit_flip():
    out = _class_states([[[0.0, np.pi, 0.0]]])
    np.testing.assert_allclose(np.abs(out), [[0, 1]], atol=1e-12)


def test_class_state_norm():
    rng = np.random.default_rng(0)
    out = _class_states(rng.uniform(-np.pi, np.pi, (10, 3, 3)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0, atol=1e-12)


def test_class_state_matches_gate_by_gate_ansatz():
    # Per-qubit rotations on |0...0>, then CNOT(k -> k+1 mod n) for
    # k = 0..n-1; one qubit has no ring. Every group size that divides n
    # builds the same states.
    rng = np.random.default_rng(1)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for n in range(1, 7):
        angles = rng.uniform(-np.pi, np.pi, (3, n, 3))
        for group_size in [g for g in range(1, n + 1) if n % g == 0]:
            out = _class_states(angles, group_size)
            for c in range(3):
                ref = zero_state(n)
                for q in range(n):
                    ref = apply_gate(ref, Single(q, _explicit_rotation(*angles[c, q])))
                for k in range(n if n > 1 else 0):
                    ref = apply_gate(ref, Controlled(k, (k + 1) % n, x))
                np.testing.assert_allclose(out[c], ref.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, g", [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 4)])
def test_class_states_gather_into_gqcg_layer_order(n, g):
    # the composed gather gives the natural states in GQCG's layer order, and
    # the composed read takes a state GQCG's product left back to the ring
    # image the natural read gives, both bit for bit
    gqcg = build_gqcg(n, g)
    cols = rotation_matrices(np.random.default_rng(n).uniform(-np.pi, np.pi, (3, n, 3)))[..., 0]
    gather, read = hqcg.circuit.class_gathers(gqcg)
    natural = class_state_trace(cols, g, hqcg.circuit._ring_permutation(n, inverse=True))[0]
    ordered = class_state_trace(cols, g, gather)[0]
    assert ordered.tobytes() == layer_order(natural, gqcg).tobytes()
    left = layer_order(natural, gqcg).swapaxes(1, 2).copy()
    assert natural_order(left, gqcg).tobytes() == natural.tobytes()
    np.testing.assert_array_equal(np.take(left.reshape(3, -1), read, axis=1),
                                  np.take(natural, hqcg.circuit._ring_permutation(n), axis=1))


# --- model and forward ------------------------------------------------------------


def test_parameter_count_formula():
    model = build_model(16, 4, 8, seed=0)
    assert model.param_counts() == {
        "lqcg": 48, "gqcg": 12, "class_states": 384, "total": 444,
    }
    assert model.theta.shape == (444,)


def test_forward_zero_params_reads_first_amplitude():
    model = build_model(4, 2, 3, theta=np.zeros(3 * 4 + 3 * 2 + 3 * 4 * 3))
    signal = np.array([3.0, 2.0, 1.0, 0.5, 0.1, 0.0, 0.0, 0.0,
                       0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    expected = (signal[0] / np.linalg.norm(signal)) ** 2
    probs = forward(model, signal)
    np.testing.assert_allclose(probs, [expected] * 3, atol=1e-12)


def test_forward_mass_on_first_index_gives_unit_probs():
    model = build_model(4, 2, 2, theta=np.zeros(3 * 4 + 3 * 2 + 3 * 4 * 2))
    signal = np.zeros(16)
    signal[0] = 5.0
    np.testing.assert_allclose(forward(model, signal), [1.0, 1.0], atol=1e-12)


def test_forward_matches_dense_matrix_oracle():
    rng = np.random.default_rng(42)
    n, g, classes = 6, 3, 3
    model = build_model(n, g, classes, seed=9)
    signal = rng.normal(size=50)

    # independent recomputation with dense Kronecker matrices
    dense_gates = []
    for gate in model.lqcg.gates + model.gqcg.gates:
        i, j, k = gate.param_slot
        u = _explicit_rotation(model.theta[i], model.theta[j], model.theta[k])
        dense_gates.append(Controlled(gate.control, gate.target, u))
    v_matrix = circuit_matrix(n, dense_gates)

    padded = np.zeros(1 << n, dtype=complex)
    padded[:50] = signal / np.linalg.norm(signal)
    psi = v_matrix @ padded

    expected = []
    for angles in split_triples(model, model.theta.reshape(-1, 3))[2]:
        state_gates = [Single(q, _explicit_rotation(*angles[q])) for q in range(n)]
        ring = [Controlled(k, (k + 1) % n, np.array([[0, 1], [1, 0]], dtype=complex))
                for k in range(n)]
        phi = circuit_matrix(n, state_gates + ring) @ zero_state(n).amplitudes
        expected.append(abs(np.vdot(phi, psi)) ** 2)

    probs = forward(model, signal)
    np.testing.assert_allclose(probs, expected, atol=1e-9)


def test_layers_preserve_norm_for_random_angles():
    rng = np.random.default_rng(7)
    model = build_model(8, 4, 2, seed=3)
    amps = encode_rows(rng.normal(size=(5, 200)), 8)
    lqcg, gqcg = _stacks(model)
    out = apply_param_circuit(amps, model.lqcg, lqcg)
    out = apply_param_circuit(out, model.gqcg, gqcg)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


def test_zero_theta_layers_are_identity():
    rng = np.random.default_rng(8)
    model = build_model(8, 4, 2, theta=np.zeros(3 * 8 + 6 + 3 * 8 * 2))
    lqcg, gqcg = _stacks(model)
    for _ in range(10):
        amps = random_state_vector(rng, 8)[None, :]
        out = apply_param_circuit(amps, model.lqcg, lqcg)
        out = apply_param_circuit(out, model.gqcg, gqcg)
        np.testing.assert_allclose(out, amps, atol=1e-12)


def test_single_group_entangles_chain_qubits():
    # one local group on two qubits applied to a product state
    rng = np.random.default_rng(9)
    lqcg = build_lqcg(2, 2)
    plus = np.full(4, 0.5, dtype=complex)  # |+>|+>
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, 6)
        stack = chain_blocks(rotation_matrices(theta.reshape(1, 2, 3)))[0]
        out = apply_param_circuit(plus[None, :], lqcg, stack)[0]
        purity = qubit_purity(out, 2, 0)
        assert purity < 1.0 - 1e-6


def test_forward_batch_matches_single_forward():
    rng = np.random.default_rng(10)
    model = build_model(6, 3, 4, seed=1)
    signals = rng.normal(size=(7, 64))
    batch = forward_batch(model, signals)
    for i in range(7):
        np.testing.assert_allclose(batch[i], forward(model, signals[i]), atol=1e-12)


def test_forward_batch_matches_oracle_at_every_block_and_chunk_edge():
    # 600 rows of 4096 values, scored in 30-row blocks; the rows checked are
    # the edges of those blocks and, as a pool once split the batch, of the
    # 30-row blocks of each 256-row chunk, where a chunk ended in a short block
    rng = np.random.default_rng(12)
    model = build_model(12, 4, 4, seed=12)
    signals = rng.normal(size=(600, 4096))
    block = PRODUCT_MACS // (signals.shape[1] * 2 * model.num_classes)
    assert block == 30

    def edges(starts):
        return {r for start, end in zip(starts, starts[1:] + [600]) for r in (start, end - 1)}

    chunked = [c + b for c in range(0, 600, 256) for b in range(0, min(256, 600 - c), block)]
    rows = sorted(edges(list(range(0, 600, block))) | edges(chunked))
    assert {0, 29, 30, 239, 240, 255, 256, 269, 270, 285, 511, 512, 599} <= set(rows)
    probs = forward_batch(model, signals)
    np.testing.assert_allclose(probs[rows], forward_oracle(model, signals[rows]), atol=1e-9)


@pytest.mark.parametrize("shape", [(), (16,), (0, 16), (3, 0), (2, 3, 4)])
def test_forward_batch_rejects_non_matrix_input(shape):
    model = build_model(4, 2, 2, seed=0)
    with pytest.raises(HqcgError):
        forward_batch(model, np.ones(shape))


@pytest.mark.parametrize("shape", [(2, 128), (1, 16), (2, 2, 2)])
def test_single_signal_entry_points_refuse_a_matrix(shape):
    # a matrix is a batch: neither entry point flattens it into one signal
    model = build_model(8, 4, 4, seed=0)
    with pytest.raises(ShapeError, match=r"expected one 1-D signal, got shape"):
        forward(model, np.ones(shape))
    with pytest.raises(ShapeError, match=r"expected one 1-D signal, got shape"):
        amplitude_encode(np.ones(shape))
    # one value is still a signal of length one
    np.testing.assert_array_equal(forward(model, 2.0), forward_batch(model, [[2.0]])[0])
    np.testing.assert_array_equal(amplitude_encode(-3.0).amplitudes, [-1.0, 0.0])


@pytest.mark.parametrize("signal", [np.array([1 + 1j, 2, 3]), [1 + 1j, 2, 3], ["1", "2", "3"]],
                         ids=["complex-array", "complex-list", "text"])
def test_single_signal_entry_points_refuse_complex_and_text(signal):
    # forward_batch refuses these values, so neither entry point drops an
    # imaginary part or ends in a traceback of its own
    model = build_model(8, 4, 4, seed=0)
    with pytest.raises(DataFormatError, match=r"signal must be real numbers, got dtype"):
        forward(model, signal)
    with pytest.raises(DataFormatError, match=r"signal must be real numbers, got dtype"):
        amplitude_encode(signal)
    with pytest.raises(DataFormatError, match=r"signals must be real numbers, got dtype"):
        forward_batch(model, [signal])


def _scored_fresh(model, signals):
    """``forward_batch`` on a memo emptied first, so the call must miss."""
    hqcg.grad.scoring_columns.cache_clear()
    return forward_batch(model, signals)


def test_scoring_memo_key_catches_every_change():
    # a call that should hit leaves the miss count alone and gives the bytes
    # a fresh build gives; a call that should miss adds one miss
    rng = np.random.default_rng(26)
    memo = hqcg.grad.scoring_columns
    model = build_model(8, 4, 4, seed=26)
    signals = rng.normal(size=(9, 200))

    def scored(model, signals, *, miss):
        before = memo.cache_info().misses
        probs = forward_batch(model, signals)
        assert memo.cache_info().misses - before == int(miss)
        assert probs.tobytes() == _scored_fresh(model, signals).tobytes()
        return probs

    memo.cache_clear()
    first = scored(model, signals, miss=True)
    scored(model, signals[:5], miss=False)  # another batch of the same length
    model.theta[40] += 1e-3  # an edit in place
    edited = scored(model, signals, miss=True)
    assert not np.array_equal(edited, first)
    model.theta = model.theta.copy()  # the same values in a new array
    scored(model, signals, miss=False)
    model.theta = model.theta + 1e-3
    scored(model, signals, miss=True)
    scored(model, signals[:, :150], miss=True)  # another length
    # another geometry with the same theta bytes and length: 42 parameters each
    small, wide = build_model(4, 2, 2, seed=1), build_model(6, 3, 1, seed=1)
    wide.theta = small.theta.copy()
    short = signals[:, :16]
    scored(small, short, miss=True)
    scored(wide, short, miss=True)
    forward_batch(small, short)  # each new key replaces the last
    assert memo.cache_info().currsize == 1


def test_scoring_memo_hit_runs_no_layer_and_a_bad_theta_is_still_refused(monkeypatch):
    layers, states = [], []

    def recording(fn, log):
        def wrapped(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapped

    # by name in the module namespace, as perfbench/run.py patches its spans:
    # the layers where pull_back calls them, and the class states where the
    # class side a miss shares with the step builds them
    monkeypatch.setattr(hqcg.circuit, "apply_param_circuit",
                        recording(apply_param_circuit, layers))
    monkeypatch.setattr(hqcg.grad, "class_state_trace",
                        recording(class_state_trace, states))
    model = build_model(8, 4, 4, seed=3)
    signals = np.random.default_rng(3).normal(size=(64, 256))
    miss = _scored_fresh(model, signals)
    assert (len(layers), len(states)) == (2, 1)
    hit = forward_batch(model, signals)
    assert (len(layers), len(states)) == (2, 1)
    assert hit.tobytes() == miss.tobytes()
    columns = hqcg.grad.scoring_columns(model.lqcg, model.gqcg, model.num_classes,
                                        model.theta.tobytes(), 256)
    assert columns.shape == (256, 8) and not columns.flags.writeable
    model.theta[0] = np.nan
    with pytest.raises(NumericError):
        forward_batch(model, signals)


# --- fidelity readouts --------------------------------------------------------------


def test_swap_test_identical_states():
    rng = np.random.default_rng(11)
    psi = Statevector(3, random_state_vector(rng, 3))
    assert abs(swap_test_fidelity(psi, psi) - 1.0) < 1e-12


def test_swap_test_orthogonal_states():
    zero = zero_state(1)
    one = Statevector(1, [0, 1])
    assert abs(swap_test_fidelity(zero, one)) < 1e-12


def test_swap_test_half_overlap():
    plus = Statevector(1, [S2, S2])
    assert abs(swap_test_fidelity(plus, zero_state(1)) - 0.5) < 1e-12


def test_direct_fidelity_known_values():
    plus = Statevector(1, [S2, S2])
    assert direct_fidelity(zero_state(1), zero_state(1)) == 1.0
    assert abs(direct_fidelity(zero_state(1), plus) - 0.5) < 1e-12


def test_swap_test_agrees_with_direct_fidelity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        psi = Statevector(n, random_state_vector(rng, n))
        phi = Statevector(n, random_state_vector(rng, n))
        assert abs(swap_test_fidelity(psi, phi) - direct_fidelity(psi, phi)) < 1e-9


def test_swap_test_capacity_error():
    rng = np.random.default_rng(13)
    psi = Statevector(13, random_state_vector(rng, 13))
    phi = Statevector(13, random_state_vector(rng, 13))
    with pytest.raises(CapacityError):
        swap_test_fidelity(psi, phi)  # 2*13+1 = 27 > 26


def test_fidelity_width_mismatch():
    with pytest.raises(ShapeError):
        direct_fidelity(zero_state(1), zero_state(2))
    with pytest.raises(ShapeError):
        swap_test_fidelity(zero_state(1), zero_state(2))


def test_format_circuit_counts():
    text = format_circuit(build_model(16, 4, 8, seed=0))
    assert "LQCG: 16 gates, 48 params" in text
    assert "GQCG: 4 gates, 12 params" in text
    assert "class states: 8 x 48 = 384 params" in text
    assert "total: 444 params" in text


def test_forward_supports_sixteen_qubit_encoding():
    rng = np.random.default_rng(14)
    model = build_model(16, 4, 2, seed=0)
    probs = forward(model, rng.normal(size=30000))
    assert probs.shape == (2,)
    assert ((probs >= 0) & (probs <= 1)).all()


def test_swap_test_at_larger_width():
    rng = np.random.default_rng(15)
    psi = Statevector(10, random_state_vector(rng, 10))
    phi = Statevector(10, random_state_vector(rng, 10))
    assert abs(swap_test_fidelity(psi, phi) - direct_fidelity(psi, phi)) < 1e-9
