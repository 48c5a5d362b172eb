"""Gradient engine vs the finite-difference oracle and closed forms."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqcg.circuit
import hqcg.grad
import hqcg.qstate
from hqcg import (
    ConfigError,
    EncodingError,
    NumericError,
    ShapeError,
    Statevector,
    batch_loss,
    build_model,
    forward_batch,
    loss_and_gradients,
    zero_state,
)
from hqcg.circuit import apply_param_circuit, block_environments, block_gradients, \
    build_gqcg, build_lqcg, chain_blocks, class_gradients, class_state_trace, layer_order, \
    rotation_matrices, rotations
from hqcg.qstate import Controlled, Single, apply_gate, inner_product
from oracles import P1, circuit_matrix, finite_diff_oracle, gate_matrix, \
    random_state_vector, site_matrix
from hqcg.train import PROB_FLOOR

SRC = Path(__file__).resolve().parent.parent / "src"


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
        psi = apply_gate(zero_state(1), Single(0, rotation_matrices((0.0, t, 0.0))))
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


def test_gradients_match_oracle_with_six_wide_blocks():
    # n=12, g=6: two 6-wide LQCG blocks, the widest any finite-difference
    # check reaches, at the criterion-4 tolerance
    rng = np.random.default_rng(26)
    model = build_model(12, 6, 2, seed=8)
    signals, labels = _random_batch(rng, model, 3, 700)
    _, analytic = loss_and_gradients(model, signals, labels)
    assert _contract_ok(analytic, finite_diff_oracle(model, signals, labels, eps=1e-5))


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


def _layers(n):
    """Every LQCG and GQCG of width n, one per group size; at n=12 only the
    group sizes of a model, which needs two groups or more."""
    sizes = [g for g in range(2, n + 1 if n <= 8 else n // 2 + 1) if n % g == 0]
    return [build_lqcg(n, g) for g in sizes] + \
        [build_gqcg(n, g) for g in sizes if n // g >= 2]


def _gates(circuit, theta):
    """The layer's gates as qstate ``Controlled`` gates, in application order."""
    return [Controlled(g.control, g.target,
                       rotation_matrices(theta[np.subtract(g.param_slot, circuit.param_offset)]))
            for g in circuit.gates]


def _gate_ops(circuit, theta, deriv):
    """Dense gate matrices of the layer in application order, with gate i
    replaced by P1 (x) dU/d(angle j) for ``deriv = (i, j)``."""
    ops = [gate_matrix(circuit.num_qubits, g) for g in _gates(circuit, theta)]
    gate = circuit.gates[deriv[0]]
    dmats = rotations(theta.reshape(-1, 3))[1]
    ops[deriv[0]] = site_matrix(circuit.num_qubits,
                                {gate.control: P1, gate.target: dmats[deriv]})
    return ops


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 12])
def test_fused_layers_match_dense_gate_product(n):
    # blocks against the dense product of their gates on local qubits; up to
    # n=8 the whole layer and its adjoint against the register oracle, at
    # n=12 the layer against gate-by-gate statevector runs
    rng = np.random.default_rng(27 + n)
    for circuit in _layers(n):
        # only a layer whose blocks cover the register in order reads the
        # amplitudes in layer order without a copy, and every LQCG layer does
        layout, kets = circuit.layout, np.zeros((3, 1 << n), complex)
        ordered = kets.reshape((-1,) + (2,) * n).transpose(layout.into)
        assert np.shares_memory(ordered.reshape(layout.views[-1]), kets) \
            == (len(circuit.blocks) * circuit.width == n)
        theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
        gates = _gates(circuit, theta)
        angles = theta.reshape(len(circuit.blocks), circuit.width, 3)
        blocks = chain_blocks(rotation_matrices(angles))[0]
        for block, fused in zip(circuit.blocks, blocks):
            local = {q: j for j, q in enumerate(block)}
            want = circuit_matrix(len(block), [Controlled(local[g.control], local[g.target],
                                                          g.matrix)
                                               for g in gates if g.control in local])
            np.testing.assert_allclose(fused, want, rtol=0, atol=1e-12)
        if n <= 8:
            dense = circuit_matrix(n, gates)
            eye = np.eye(1 << n, dtype=complex)
            np.testing.assert_allclose(apply_param_circuit(eye, circuit, blocks).T, dense,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(apply_param_circuit(eye, circuit, blocks, adjoint=True).T,
                                       dense.conj().T, rtol=0, atol=1e-12)
        else:
            states = [Statevector(n, random_state_vector(rng, n)) for _ in range(3)]
            kets = np.array([psi.amplitudes for psi in states])
            for g in gates:
                states = [apply_gate(psi, g) for psi in states]
            np.testing.assert_allclose(apply_param_circuit(kets, circuit, blocks),
                                       [psi.amplitudes for psi in states], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_block_environment_derivatives_match_dense_derivative(n):
    # sum_i <bra_i| dU |ket_i> for every angle of every layer, read from the
    # block environments of the states on the layer's far side, the bra and
    # U ket, with W = E conj(V): in natural order for a layer whose blocks
    # cover the register in order (LQCG), and otherwise (GQCG) with the bra
    # in layer order and U ket as the layer's product leaves it, as the step
    # reads them; multiplying the bra by i turns the real part the sweep
    # returns into the imaginary part
    rng = np.random.default_rng(28 + n)
    for circuit in _layers(n):
        theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
        mats, dmats = rotations(theta.reshape(len(circuit.blocks), circuit.width, 3))
        chain = chain_blocks(mats)
        bra = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        ket = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        natural = len(circuit.blocks) * circuit.width == n
        if natural:
            out = apply_param_circuit(ket, circuit, chain[0])
        else:
            out = apply_param_circuit(layer_order(ket, circuit), circuit, chain[0])
            assert out.shape == (3, (1 << n) >> circuit.width, 1 << circuit.width)
            out = out.swapaxes(1, 2)
        got = []
        for phase in (1.0, 1j):
            far = phase * bra if natural else layer_order(phase * bra, circuit)
            envs = block_environments(far, out, circuit)
            got.append(block_gradients(envs, chain, dmats))
        got = (got[0] + 1j * got[1]).reshape(-1, 3)
        for i, j in itertools.product(range(len(circuit.gates)), range(3)):
            amps = ket.T
            for op in _gate_ops(circuit, theta, deriv=(i, j)):
                amps = op @ amps
            want = np.vdot(bra.T, amps)
            assert abs(got[i, j] - want) <= 1e-13 * abs(want), (circuit.blocks, i, j)


def test_cached_tables_are_read_only():
    # every lru_cache in the package hands the same result to every caller,
    # so no array it returns may be writable
    cached = {name: fn for module in (hqcg.circuit, hqcg.grad, hqcg.qstate)
              for name, fn in vars(module).items() if hasattr(fn, "cache_info")}
    assert set(cached) == {"chain_axes", "_ring_permutation", "gate_picks",
                           "class_gathers", "scoring_columns"}
    model = build_model(4, 2, 2, seed=0)
    results = [cached["chain_axes"](3),
               cached["_ring_permutation"](3), cached["_ring_permutation"](3, True),
               *cached["gate_picks"](3), *cached["class_gathers"](model.gqcg),
               cached["scoring_columns"](model.lqcg, model.gqcg, model.num_classes,
                                         model.theta.tobytes(), 16)]
    arrays = [r for r in results if isinstance(r, np.ndarray)]
    assert len(arrays) == 7
    for table in arrays:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1
    # so are the module-level tables every step reads
    for table in (hqcg.circuit._HALF, hqcg.circuit._EYE):
        assert not table.flags.writeable


def test_step_runs_no_kernel_and_a_fixed_number_of_layers(monkeypatch):
    # The batch is folded into one ket per class before any layer runs, and
    # each layer is a few fused block products: the gradient pulls back and
    # pushes forward through each layer once, the forward pass only pulls
    # back, and only when its memo misses; no qstate kernel runs, and no
    # layer sees more than C rows.
    layers, kernels = [], []

    def recording(fn, log):
        def wrapped(amps, *args, **kwargs):
            log.append(1 if amps.ndim == 1 else amps.shape[0])
            return fn(amps, *args, **kwargs)
        return wrapped

    for module in (hqcg.circuit, hqcg.grad, hqcg.qstate):
        for name in ("apply_controlled_matrix", "apply_single_matrix", "apply_swap_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(getattr(module, name), kernels))
    layer = recording(hqcg.circuit.apply_param_circuit, layers)
    for module in (hqcg.circuit, hqcg.grad):
        monkeypatch.setattr(module, "apply_param_circuit", layer)

    rng = np.random.default_rng(25)
    model = build_model(8, 4, 4, seed=6)
    for batch in (2, 64):
        signals, labels = _random_batch(rng, model, batch, 40)
        layers.clear()
        loss_and_gradients(model, signals, labels)
        assert len(layers) == 4, batch
        assert max(layers) <= model.num_classes, batch
        layers.clear()
        hqcg.grad.scoring_columns.cache_clear()
        forward_batch(model, signals)
        assert len(layers) == 2, batch
        assert max(layers) <= model.num_classes, batch
        layers.clear()
        forward_batch(model, signals)
        assert layers == [], batch
    assert kernels == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9])
def test_class_gradients_match_dense_derivative(n):
    # the reverse sweeps over the partial products of the grouped builder,
    # for every group size in {1, 2, 3, n} that divides n, against
    # Re <xi|d phi>, with d phi built densely: the Kronecker product of the
    # class columns with column q replaced by its derivative, then the CNOT
    # ring as gates
    rng = np.random.default_rng(40 + n)
    angles = rng.uniform(-np.pi, np.pi, (3, 3 * n))
    mats, dmats = rotations(angles.reshape(3, n, 3))
    ring = hqcg.circuit._ring_permutation
    xi = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    cnots = circuit_matrix(n, [Controlled(k, (k + 1) % n, x_gate)
                               for k in range(n)] if n > 1 else [])
    want = np.empty((3, n, 2))
    for c, q, j in itertools.product(range(3), range(n), range(2)):
        cols = {p: mats[c, p, :, :1] for p in range(n)}
        cols[q] = dmats[c, q, j + 1, :, :1]
        want[c, q, j] = np.vdot(xi[c], cnots @ site_matrix(n, cols)[:, 0]).real
    for group_size in sorted(g for g in {1, 2, 3, n} if n % g == 0):
        _, trace = class_state_trace(mats[..., 0], group_size, ring(n, inverse=True))
        got = class_gradients(xi, mats[..., 0], trace, dmats[:, :, 1:, :, 0], ring(n))
        assert (abs(got - want) <= 1e-13 * abs(want)).all(), group_size


# 61 rows of 4096 values score in product blocks of 30, 30 and 1 rows
@pytest.mark.parametrize("n, g, classes, batch, length",
                         [(8, 4, 4, 17, 100), (12, 4, 4, 17, 100), (8, 4, 3, 17, 100),
                          (12, 4, 4, 61, 4096)],
                         ids=["8-4-4", "12-4-4", "8-4-3", "12-4-4-61x4096"])
def test_step_scores_and_loss_are_the_forward_pass_bit_for_bit(n, g, classes, batch, length,
                                                               monkeypatch):
    # one forward path: the step's loss is batch_loss and the scores it
    # takes the loss of are forward_batch's, to the last bit
    rng = np.random.default_rng(29 + n + classes)
    model = build_model(n, g, classes, seed=n * classes)
    signals, labels = _random_batch(rng, model, batch, length)
    seen, bce_rows = [], hqcg.grad.bce_rows

    def recording(probs, labels):
        seen.append(probs.copy())
        return bce_rows(probs, labels)

    monkeypatch.setattr(hqcg.grad, "bce_rows", recording)
    loss, _ = loss_and_gradients(model, signals, labels)
    monkeypatch.undo()
    assert len(seen) == 1
    assert seen[0].tobytes() == forward_batch(model, signals).tobytes()
    assert np.float64(loss).tobytes() == np.float64(batch_loss(model, signals, labels)).tobytes()


# 600 rows of 4096 values, scored in 30-row product blocks: row 44 lies
# inside the second block, and row 300 starts the eleventh
@pytest.mark.parametrize("row", [44, 300])
@pytest.mark.parametrize("value, message", [(np.nan, "contains NaN or Inf"),
                                            (np.inf, "contains NaN or Inf"),
                                            (0.0, "is all-zero")], ids=["nan", "inf", "zero"])
def test_bad_signal_rows_are_named_by_their_batch_row(row, value, message):
    rng = np.random.default_rng(31)
    model = build_model(12, 4, 4, seed=5)
    signals, labels = _random_batch(rng, model, 600, 4096)
    if value == 0.0:
        signals[row] = 0.0
    else:
        signals[row, 7] = value
    with pytest.raises(EncodingError, match=f"signal row {row} {message}"):
        forward_batch(model, signals)
    with pytest.raises(EncodingError, match=f"signal row {row} {message}"):
        loss_and_gradients(model, signals, labels)


_THREAD_RUN = """
import hashlib
import numpy as np
from hqcg import build_model, forward_batch, loss_and_gradients
for n, g, classes, length, batch in [(8, 4, 4, 256, 64), (12, 4, 4, 4096, 64)]:
    rng = np.random.default_rng(n)
    model = build_model(n, g, classes, seed=n)
    signals = rng.normal(size=(batch, length))
    labels = (rng.random((batch, classes)) < 0.5).astype(float)
    loss, grads = loss_and_gradients(model, signals, labels)
    for name, value in [("scores", forward_batch(model, signals)),
                        ("loss", np.float64(loss)), ("gradient", grads)]:
        print(n, name, hashlib.sha256(value.tobytes()).hexdigest())
"""


def test_scores_loss_and_gradient_bytes_do_not_depend_on_blas_threads():
    # at L=4096 the 64 rows span three product blocks
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


# calls made from hqcg frames in one (8, 4, 4) step of 64 rows: 348 before
# the layouts were cached on the circuits, 212 after; the budget keeps ~10%
STEP_CALL_BUDGET = 233


def test_step_call_budget():
    # counts Python and C calls, not time, so it cannot flake on a busy host
    package = os.path.dirname(hqcg.__file__)
    rng = np.random.default_rng(30)
    model = build_model(8, 4, 4, seed=9)
    signals, labels = _random_batch(rng, model, 64, 256)
    loss_and_gradients(model, signals, labels)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        caller = frame.f_back if event == "call" else frame
        if event in ("call", "c_call") and caller is not None \
                and caller.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(count)
    try:
        loss_and_gradients(model, signals, labels)
    finally:
        sys.setprofile(None)
    assert 0 < calls <= STEP_CALL_BUDGET, calls
