"""Gradient engine vs the finite-difference oracle and closed forms."""

import itertools

import numpy as np
import pytest

import hqcg.circuit
import hqcg.grad
from hqcg import (
    ConfigError,
    NumericError,
    ShapeError,
    Statevector,
    batch_loss,
    build_model,
    finite_diff_oracle,
    forward_batch,
    loss_and_gradients,
    zero_state,
)
from hqcg.circuit import rotation_matrix
from hqcg.grad import gate_environment
from hqcg.qstate import Single, apply_controlled_matrix, apply_gate, inner_product
from hqcg.train import PROB_FLOOR


def _random_batch(rng, model, batch, length):
    signals = rng.normal(size=(batch, length))
    labels = (rng.random((batch, model.num_classes)) < 0.5).astype(float)
    return signals, labels


def _contract_ok(analytic, fd):
    tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
    return bool((np.abs(analytic - fd) <= tol).all())


def test_single_ry_closed_form():
    # p(t) = |<1|Ry(t)|0>|^2 = sin^2(t/2); at t = pi/2: p = 0.5, dp/dt = 0.5.
    one = Statevector(1, [0, 1])

    def prob(t):
        psi = apply_gate(zero_state(1), Single(0, rotation_matrix(0.0, t, 0.0)))
        return abs(inner_product(psi, one)) ** 2

    t = np.pi / 2
    assert abs(prob(t) - 0.5) < 1e-12
    eps = 1e-6
    dp = (prob(t + eps) - prob(t - eps)) / (2 * eps)
    assert abs(dp - 0.5) < 1e-9
    # label 1 loss L = -log p; dL/dt = -(1/p) dp/dt = -1 at t = pi/2
    dl = (-np.log(prob(t + eps)) + np.log(prob(t - eps))) / (2 * eps)
    assert abs(dl - (-1.0)) < 1e-6


def test_perfect_predictions_give_zero_gradients():
    # zero angles: psi = encode(v), class states |0..0>; a spike signal on
    # index 0 yields p_i = 1 exactly, matching all-ones labels.
    model = build_model(4, 2, 2, theta=np.zeros(3 * 4 + 3 * 2 + 3 * 4 * 2))
    signal = np.zeros((1, 16))
    signal[0, 0] = 2.0
    labels = np.ones((1, 2))
    loss, grads = loss_and_gradients(model, signal, labels)
    assert loss < 1e-6
    assert np.linalg.norm(grads) < 1e-6


def test_gradients_match_oracle_across_widths():
    rng = np.random.default_rng(21)
    cases = [(4, 2, 2, 3), (4, 2, 3, 12), (6, 3, 3, 40)]
    checked = 0
    for n, g, classes, length in cases:
        for _ in range(7):
            model = build_model(n, g, classes, seed=int(rng.integers(10000)))
            signals, labels = _random_batch(rng, model, 3, length)
            _, analytic = loss_and_gradients(model, signals, labels)
            fd = finite_diff_oracle(model, signals, labels, eps=1e-5)
            assert _contract_ok(analytic, fd)
            checked += 1
    assert checked >= 20


def test_gradient_descent_step_decreases_loss():
    rng = np.random.default_rng(22)
    wins = 0
    for trial in range(100):
        model = build_model(4, 2, 2, seed=trial)
        signals, labels = _random_batch(rng, model, 3, 10)
        loss, grads = loss_and_gradients(model, signals, labels)
        model.theta = model.theta - 1e-3 * grads
        after = batch_loss(model, signals, labels)
        wins += after < loss
    assert wins >= 95


def test_gradient_determinism_bitwise():
    rng = np.random.default_rng(23)
    model = build_model(6, 3, 2, seed=77)
    signals, labels = _random_batch(rng, model, 4, 30)
    loss_a, grads_a = loss_and_gradients(model, signals, labels)
    loss_b, grads_b = loss_and_gradients(model, signals, labels)
    assert loss_a == loss_b
    np.testing.assert_array_equal(grads_a, grads_b)


def test_finite_diff_zero_in_saturated_clamp():
    # prob pinned at exactly 1 sits outside the clamp window: FD sees a
    # flat loss and so must the analytic path.
    model = build_model(4, 2, 2, theta=np.zeros(3 * 4 + 3 * 2 + 3 * 4 * 2))
    signal = np.zeros((1, 16))
    signal[0, 0] = 1.0
    labels = np.zeros((1, 2))  # label 0 with p = 1: loss clamps at -log(floor)
    fd = finite_diff_oracle(model, signal, labels, eps=1e-5)
    _, analytic = loss_and_gradients(model, signal, labels)
    assert np.abs(fd).max() < 1e-6
    assert np.abs(analytic).max() < 1e-12
    assert PROB_FLOOR == 1e-7


def test_finite_diff_eps_range():
    model = build_model(4, 2, 2, seed=0)
    signals = np.ones((1, 4))
    labels = np.ones((1, 2))
    with pytest.raises(ConfigError):
        finite_diff_oracle(model, signals, labels, eps=1e-2)


def test_finite_diff_restores_theta():
    model = build_model(4, 2, 2, seed=0)
    before = model.theta.copy()
    finite_diff_oracle(model, np.ones((1, 4)), np.ones((1, 2)))
    np.testing.assert_array_equal(model.theta, before)


def test_shape_validation():
    model = build_model(4, 2, 2, seed=0)
    with pytest.raises(ShapeError):
        loss_and_gradients(model, np.ones((0, 4)), np.ones((0, 2)))
    with pytest.raises(ShapeError):
        loss_and_gradients(model, np.ones((2, 4)), np.ones((2, 3)))


def test_non_finite_parameters_raise_numeric_error():
    model = build_model(4, 2, 2, seed=0)
    model.theta = model.theta.copy()
    model.theta[0] = np.inf
    with pytest.raises(NumericError):
        loss_and_gradients(model, np.ones((1, 4)), np.ones((1, 2)))


def test_class_phase_slots_have_exactly_zero_gradient():
    # Each class-state rotation starts with Rz(a) on |0>, a global phase.
    rng = np.random.default_rng(24)
    model = build_model(6, 3, 3, seed=5)
    signals, labels = _random_batch(rng, model, 4, 40)
    _, analytic = loss_and_gradients(model, signals, labels)
    n = model.num_qubits
    phase = [model.class_params_offset + 3 * n * c + 3 * q
             for c in range(model.num_classes) for q in range(n)]
    assert len(phase) == n * model.num_classes
    assert (analytic[phase] == 0.0).all()
    fd = finite_diff_oracle(model, signals, labels, eps=1e-5)
    assert _contract_ok(analytic[phase], fd[phase])
    others = np.setdiff1d(np.arange(model.num_params), phase)
    assert (analytic[others] != 0.0).all()


def test_gate_environment_matches_controlled_derivative_kernel():
    # vdot(bra, P1 (x) M ket) computed by the kernel, for every ordered
    # (control, target) pair: adjacent, distant, control above and below.
    rng = np.random.default_rng(26)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in range(2, 7):
        for control, target in itertools.permutations(range(n), 2):
            bra, ket, m = cplx(3, 1 << n), cplx(3, 1 << n), cplx(2, 2)
            want = np.vdot(bra, apply_controlled_matrix(ket, n, control, target, m,
                                                        keep_inactive=False))
            env = gate_environment(bra, ket, n, control, target)
            assert abs(np.sum(m * env) - want) <= 1e-13 * abs(want), (n, control, target)


def test_kernels_never_see_more_than_class_count_rows(monkeypatch):
    # The batch is folded into one ket per class before any gate runs, so
    # neither the row count nor the number of kernel calls grows with B.
    # Class states are built without kernels, and gate derivatives are 2x2
    # environment contractions: the gradient only pulls back and pushes
    # forward through each circuit gate, and the forward pass only pulls back.
    seen = []

    def recording(kernel):
        def wrapped(amps, *args, **kwargs):
            seen.append(1 if amps.ndim == 1 else amps.shape[0])
            return kernel(amps, *args, **kwargs)
        return wrapped

    for module in (hqcg.circuit, hqcg.grad):
        for name in ("apply_controlled_matrix", "apply_single_matrix"):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))

    rng = np.random.default_rng(25)
    model = build_model(8, 4, 4, seed=6)
    num_gates = len(model.lqcg.gates) + len(model.gqcg.gates)
    for batch in (2, 64):
        signals, labels = _random_batch(rng, model, batch, 40)
        seen.clear()
        loss_and_gradients(model, signals, labels)
        assert len(seen) == 2 * num_gates == 20, batch
        assert max(seen) <= model.num_classes, batch
        seen.clear()
        forward_batch(model, signals)
        assert len(seen) == num_gates, batch
        assert max(seen) <= model.num_classes, batch
