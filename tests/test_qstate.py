"""Statevector engine: known vectors, dense-matrix oracle, invariants."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hqcg import (
    BasisProjector,
    CapacityError,
    Controlled,
    ControlledSwap,
    ShapeError,
    Single,
    StateError,
    Statevector,
    Swap,
    apply_gate,
    inner_product,
    projector_probability,
    zero_state,
)
from hqcg.qstate import apply_controlled_matrix, apply_single_matrix, apply_swap_kernel
from oracles import circuit_matrix, gate_matrix, random_gate, random_state_vector, \
    random_unitary_2x2

SRC = Path(__file__).resolve().parent.parent / "src"

S2 = 1.0 / np.sqrt(2.0)
H = np.array([[1, 1], [1, -1]]) * S2
RY_PI = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_zero_state_one_qubit():
    np.testing.assert_array_equal(zero_state(1).amplitudes, [1, 0])


def test_zero_state_two_qubits():
    np.testing.assert_array_equal(zero_state(2).amplitudes, [1, 0, 0, 0])


def test_zero_state_capacity_guard():
    with pytest.raises(CapacityError):
        zero_state(27)
    with pytest.raises(CapacityError):
        zero_state(0)


def test_hadamard_on_zero():
    out = apply_gate(zero_state(1), Single(0, H))
    np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-15)


def test_controlled_ry_pi_control_active():
    # |10> (qubit 0 set) -> |11>
    state = Statevector(2, [0, 1, 0, 0])
    out = apply_gate(state, Controlled(0, 1, RY_PI))
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_controlled_ry_pi_control_inactive():
    out = apply_gate(zero_state(2), Controlled(0, 1, RY_PI))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_swap_exchanges_bits():
    state = Statevector(2, [0, 1, 0, 0])  # |01> in (q1 q0) order
    out = apply_gate(state, Swap(0, 1))
    np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_gate_index_bounds():
    with pytest.raises(IndexError):
        apply_gate(zero_state(2), Single(2, H))


def test_non_unitary_matrix_rejected():
    with pytest.raises(StateError):
        Single(0, np.array([[1, 0], [0, 2]]))


def test_statevector_validates_norm_and_length():
    with pytest.raises(StateError):
        Statevector(1, [1.0, 1.0])
    with pytest.raises(ShapeError):
        Statevector(2, [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_statevector_rejects_non_finite_amplitudes(bad):
    # a NaN norm must fail the norm check, not pass it as "not too far"
    for amps in ([bad, 0.0], [1.0, bad], [bad, bad]):
        with pytest.raises(StateError):
            Statevector(1, amps)


def test_random_circuit_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n = 5
    state = Statevector(n, random_state_vector(rng, n))
    gates = [random_gate(rng, n) for _ in range(50)]
    out = state
    for g in gates:
        out = apply_gate(out, g)
    expected = circuit_matrix(n, gates) @ state.amplitudes
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_equivalence_small_widths(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        state = Statevector(n, random_state_vector(rng, n))
        gates = [random_gate(rng, n) for _ in range(12)]
        out = state
        for g in gates:
            out = apply_gate(out, g)
        expected = circuit_matrix(n, gates) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-10)


def test_norm_preserved_over_long_random_circuits():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        state = Statevector(n, random_state_vector(rng, n))
        for _ in range(60):
            state = apply_gate(state, random_gate(rng, n))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9


def test_gate_application_is_linear():
    rng = np.random.default_rng(3)
    n = 4
    gate = random_gate(rng, n)
    a = random_state_vector(rng, n)
    b = random_state_vector(rng, n)
    alpha, beta = 0.6, 0.8j
    mixed = alpha * a + beta * b
    mixed_norm = mixed / np.linalg.norm(mixed)
    out_mixed = apply_gate(Statevector(n, mixed_norm), gate).amplitudes
    out_a = apply_gate(Statevector(n, a), gate).amplitudes
    out_b = apply_gate(Statevector(n, b), gate).amplitudes
    expected = (alpha * out_a + beta * out_b) / np.linalg.norm(mixed)
    np.testing.assert_allclose(out_mixed, expected, atol=1e-10)


def test_controlled_gate_leaves_control_zero_subspace_untouched():
    rng = np.random.default_rng(4)
    n = 4
    for _ in range(10):
        state = random_state_vector(rng, n)
        gate = Controlled(1, 3, np.asarray(random_gate(rng, 1).matrix))
        out = apply_gate(Statevector(n, state), gate).amplitudes
        idx = np.arange(1 << n)
        inactive = ((idx >> gate.control) & 1) == 0
        # bitwise identical: the kernel copies these amplitudes through
        np.testing.assert_array_equal(out[inactive], state[inactive])


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_on_stacked_states_match_dense_oracle(n):
    """Each kernel on a (3, 2^n) stack: every target, every ordered
    (control, target) pair, every swap with and without a control."""
    rng = np.random.default_rng(300 + n)
    stack = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    before = stack.copy()
    m = random_unitary_2x2(rng)
    pairs = list(itertools.permutations(range(n), 2))
    runs = [(Single(t, m), apply_single_matrix(stack, n, t, m)) for t in range(n)]
    runs += [(Controlled(c, t, m), apply_controlled_matrix(stack, n, c, t, m))
             for c, t in pairs]
    runs += [(Swap(a, b), apply_swap_kernel(stack, n, a, b)) for a, b in pairs]
    runs += [(ControlledSwap(c, a, b), apply_swap_kernel(stack, n, a, b, control=c))
             for c, a, b in itertools.permutations(range(n), 3)]
    for gate, out in runs:
        dense = gate_matrix(n, gate)
        expected = np.array([dense @ row for row in stack])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12, err_msg=repr(gate))
    np.testing.assert_array_equal(stack, before)


def test_swap_test_keeps_no_allocation_after_it_returns():
    # a fresh process, so no earlier call in this suite has warmed anything
    code = textwrap.dedent("""
        import tracemalloc
        import numpy as np
        from hqcg import Statevector, swap_test_fidelity
        rng = np.random.default_rng(0)
        psi, phi = (Statevector(8, v / np.linalg.norm(v))
                    for v in rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256)))
        tracemalloc.start()
        swap_test_fidelity(psi, phi)
        print(tracemalloc.get_traced_memory()[0])
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024


def test_inner_product_self_is_one():
    rng = np.random.default_rng(5)
    state = Statevector(3, random_state_vector(rng, 3))
    assert abs(inner_product(state, state) - 1.0) < 1e-9


def test_inner_product_orthonormal_and_plus():
    zero = zero_state(1)
    one = Statevector(1, [0, 1])
    plus = Statevector(1, [S2, S2])
    assert inner_product(zero, one) == 0
    assert abs(inner_product(plus, zero) - S2) < 1e-12


def test_inner_product_width_mismatch():
    with pytest.raises(ShapeError):
        inner_product(zero_state(1), zero_state(2))


def test_projector_probabilities():
    plus = Statevector(1, [S2, S2])
    assert projector_probability(zero_state(1), BasisProjector(0, 0)) == 1.0
    assert abs(projector_probability(plus, BasisProjector(0, 1)) - 0.5) < 1e-12


def test_projector_completeness():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        state = Statevector(n, random_state_vector(rng, n))
        q = int(rng.integers(n))
        total = (projector_probability(state, BasisProjector(q, 0))
                 + projector_probability(state, BasisProjector(q, 1)))
        assert abs(total - 1.0) < 1e-12


def test_projector_bounds_and_bit_validation():
    with pytest.raises(IndexError):
        projector_probability(zero_state(1), BasisProjector(1, 0))
    with pytest.raises(ShapeError):
        BasisProjector(0, 2)


def test_apply_gate_is_pure():
    state = zero_state(1)
    before = state.amplitudes.copy()
    apply_gate(state, Single(0, H))
    np.testing.assert_array_equal(state.amplitudes, before)
