"""Property tests over random geometries: the pull-back forward pass against
a gate-by-gate statevector simulation, and the folded adjoint gradient
against the finite-difference oracle at the criterion-4 tolerance and
against the exact dense gradient oracle near rounding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hqcg import (
    Controlled,
    Single,
    amplitude_encode,
    apply_gate,
    build_model,
    forward_batch,
    inner_product,
    loss_and_gradients,
    zero_state,
)
from hqcg.circuit import rotation_matrices, split_triples
from hqcg.train import bce_rows
from oracles import finite_diff_oracle, gradient_oracle

X = np.array([[0, 1], [1, 0]], dtype=complex)
PROPERTY = settings(deadline=None, derandomize=True, database=None)


def _group_sizes(n):
    """Group sizes that divide n into at least two groups."""
    return [g for g in range(2, n // 2 + 1) if n % g == 0]


@st.composite
def problems(draw, max_qubits=8):
    """(model, signals, labels): n in [4, max_qubits], C in [1, 4], L in
    [1, 2^n] (padded when L < 2^n), B in [1, 5]."""
    n = draw(st.integers(4, max_qubits).filter(_group_sizes))
    g = draw(st.sampled_from(_group_sizes(n)))
    classes = draw(st.integers(1, 4))
    length = draw(st.integers(1, 1 << n))
    batch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = build_model(n, g, classes, seed=int(rng.integers(2**32)))
    signals = rng.normal(size=(batch, length))
    labels = (rng.random((batch, classes)) < 0.5).astype(float)
    return model, signals, labels


def _gate_by_gate_probs(model, signals):
    """Scores from one Statevector per sample and per class, gate by gate."""
    n, theta = model.num_qubits, model.theta
    phis = []
    for angles in split_triples(model, theta.reshape(-1, 3))[2]:
        phi = zero_state(n)
        for q in range(n):
            phi = apply_gate(phi, Single(q, rotation_matrices(angles[q])))
        for k in range(n):
            phi = apply_gate(phi, Controlled(k, (k + 1) % n, X))
        phis.append(phi)
    probs = np.empty((len(signals), model.num_classes))
    for s, signal in enumerate(signals):
        psi = amplitude_encode(signal, n)
        for gate in model.lqcg.gates + model.gqcg.gates:
            u = rotation_matrices(theta[list(gate.param_slot)])
            psi = apply_gate(psi, Controlled(gate.control, gate.target, u))
        probs[s] = [abs(inner_product(phi, psi)) ** 2 for phi in phis]
    return probs


@PROPERTY
@given(problems())
def test_forward_batch_matches_gate_by_gate(problem):
    model, signals, _ = problem
    expected = _gate_by_gate_probs(model, signals)
    np.testing.assert_allclose(forward_batch(model, signals), expected,
                               rtol=0, atol=1e-12)


@settings(PROPERTY, max_examples=25)
@given(problems())
def test_loss_and_gradients_match_references(problem):
    model, signals, labels = problem
    loss, analytic = loss_and_gradients(model, signals, labels)
    expected = np.mean(bce_rows(_gate_by_gate_probs(model, signals), labels))
    assert abs(loss - expected) <= 1e-12
    fd = finite_diff_oracle(model, signals, labels, eps=1e-5)
    tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
    assert (np.abs(analytic - fd) <= tol).all()


@settings(PROPERTY, max_examples=50)
@given(problems(max_qubits=6))
def test_loss_and_gradients_match_exact_gradient_oracle(problem):
    # every component within 1e-10 of its own size, or within 1e-12 of the
    # largest where cancellation leaves it near zero (the phase slots are 0)
    model, signals, labels = problem
    loss, analytic = loss_and_gradients(model, signals, labels)
    expected_loss, expected = gradient_oracle(model, signals, labels)
    assert abs(loss - expected_loss) <= 1e-12
    np.testing.assert_allclose(analytic, expected, rtol=1e-10,
                               atol=1e-12 * np.abs(expected).max())
