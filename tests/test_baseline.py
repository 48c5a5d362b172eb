"""Feed-forward baseline: forward values, backprop vs finite differences."""

import numpy as np
import pytest

from hqcg import ShapeError, build_mlp, mlp_forward_batch, mlp_gradients
from hqcg.baseline import MLPModel, mlp_param_count
from oracles import central_difference


def test_zero_parameters_give_half_probabilities():
    model = MLPModel((4, 3, 3, 2), np.zeros(mlp_param_count((4, 3, 3, 2))))
    np.testing.assert_allclose(mlp_forward_batch(model, [[1.0, -2.0, 0.5, 3.0]]),
                               [[0.5, 0.5]], atol=1e-15)


def test_hand_computed_forward():
    # widths 1-2-2-1; weights chosen so the affine stack is easy to follow
    widths = (1, 2, 2, 1)
    theta = np.concatenate([
        np.array([1.0, -1.0]),        # w1 (2x1)
        np.array([0.0, 0.5]),         # b1
        np.array([1.0, 1.0, 0.0, 1.0]),  # w2 (2x2) rows (1,1), (0,1)
        np.array([0.0, 0.0]),         # b2
        np.array([2.0, -1.0]),        # w3 (1x2)
        np.array([0.25]),             # b3
    ])
    model = MLPModel(widths, theta)
    x = 1.5
    a1 = np.maximum([1.0 * x + 0.0, -1.0 * x + 0.5], 0)      # (1.5, 0)
    a2 = np.maximum([a1[0] + a1[1], a1[1]], 0)               # (1.5, 0)
    z3 = 2.0 * a2[0] - 1.0 * a2[1] + 0.25                    # 3.25
    expected = 1.0 / (1.0 + np.exp(-z3))
    np.testing.assert_allclose(mlp_forward_batch(model, [[x]]), [[expected]], atol=1e-15)


def test_outputs_in_open_unit_interval():
    rng = np.random.default_rng(0)
    model = build_mlp(12, 8, 3, seed=1)
    probs = mlp_forward_batch(model, rng.normal(size=(20, 12)))
    assert (probs > 0).all() and (probs < 1).all()


def test_gradients_match_finite_differences():
    # generic random parameters keep ReLU inputs away from the exact kink,
    # where finite differences and the subgradient can legitimately differ
    rng = np.random.default_rng(1)
    widths = (6, 5, 5, 3)
    for trial in range(5):
        theta = rng.normal(scale=0.7, size=mlp_param_count(widths))
        model = MLPModel(widths, theta)
        signals = rng.normal(size=(4, 6))
        labels = (rng.random((4, 3)) < 0.5).astype(float)
        _, analytic = mlp_gradients(model, signals, labels)

        def loss_at(theta):
            probe = MLPModel(model.layer_widths, theta)
            return mlp_gradients(probe, signals, labels)[0]

        fd = central_difference(loss_at, model.theta, 1e-6)
        tol = np.maximum(1e-7, 1e-4 * np.abs(fd))
        assert (np.abs(analytic - fd) <= tol).all()


def test_single_step_decreases_loss():
    rng = np.random.default_rng(2)
    wins = 0
    for trial in range(50):
        model = build_mlp(5, 4, 2, seed=100 + trial)
        signals = rng.normal(size=(3, 5))
        labels = (rng.random((3, 2)) < 0.5).astype(float)
        loss, grads = mlp_gradients(model, signals, labels)
        after_model = MLPModel(model.layer_widths, model.theta - 1e-3 * grads)
        after, _ = mlp_gradients(after_model, signals, labels)
        wins += after < loss
    assert wins >= 48


def test_saturated_outputs_give_zero_gradients():
    # huge output biases push both probabilities into the clamp
    widths = (2, 2, 2, 2)
    theta = np.zeros(mlp_param_count(widths))
    theta[-2:] = [50.0, -50.0]  # b3: p = (1 - eps, eps)
    model = MLPModel(widths, theta)
    signals = np.array([[1.0, 1.0]])
    labels = np.array([[1.0, 0.0]])
    loss, grads = mlp_gradients(model, signals, labels)
    assert loss < 1e-6
    assert np.abs(grads).max() < 1e-12


def test_shape_validation():
    model = build_mlp(4, 3, 2, seed=0)
    with pytest.raises(ShapeError):
        mlp_forward_batch(model, np.ones((2, 5)))
    with pytest.raises(ShapeError):
        mlp_gradients(model, np.ones((2, 4)), np.ones((2, 3)))


def test_param_count_formula():
    widths = (256, 64, 64, 4)
    expected = 256 * 64 + 64 + 64 * 64 + 64 + 64 * 4 + 4
    assert mlp_param_count(widths) == expected
    assert build_mlp(256, 64, 4, seed=0).theta.size == expected
