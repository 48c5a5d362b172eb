"""Amplitude encoding: qubit counts, normalization, padding, round trips."""

import numpy as np
import pytest

from hqcg import CapacityError, EncodingError, amplitude_encode, required_qubits


def test_required_qubits_known_values():
    assert required_qubits(30000) == 15
    assert required_qubits(2) == 1
    assert required_qubits(1025) == 11
    assert required_qubits(1) == 1
    assert required_qubits(1024) == 10


def test_required_qubits_empty_signal():
    with pytest.raises(EncodingError):
        required_qubits(0)


def test_encode_three_four_five():
    out = amplitude_encode([3, 4], 1)
    np.testing.assert_allclose(out.amplitudes, [0.6, 0.8], atol=1e-15)


def test_encode_with_padding():
    out = amplitude_encode([1, 2, 2], 2)
    np.testing.assert_allclose(out.amplitudes, [1 / 3, 2 / 3, 2 / 3, 0], atol=1e-15)


def test_encode_zero_vector_rejected():
    with pytest.raises(EncodingError):
        amplitude_encode([0, 0, 0], 2)


def test_encode_capacity():
    with pytest.raises(CapacityError):
        amplitude_encode([1.0] * 5, 2)


def test_encode_non_finite_rejected():
    with pytest.raises(EncodingError):
        amplitude_encode([1.0, np.nan], 1)


def test_encode_norm_overflow_rejected():
    # finite entries whose L2 norm overflows: the same error as encode_rows
    with pytest.raises(EncodingError, match="overflows"):
        amplitude_encode([1e200, 1e200], 1)


def test_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 40))
        if np.linalg.norm(v) == 0:
            continue
        a = amplitude_encode(v, 6).amplitudes
        b = amplitude_encode(3.7 * v, 6).amplitudes
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_order_and_sign_preservation():
    v = np.array([0.5, -0.25, 2.0, 1.0])
    amps = amplitude_encode(v, 2).amplitudes.real
    for i in range(4):
        for j in range(4):
            assert (v[i] > v[j]) == (amps[i] > amps[j])
    assert amps[1] < 0


def test_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 100))
        if np.linalg.norm(v) == 0:
            continue
        amps = amplitude_encode(v, 7).amplitudes
        recovered = (amps[: v.size] * np.linalg.norm(v)).real
        np.testing.assert_allclose(recovered, v, rtol=1e-9, atol=1e-12)
        assert np.abs(amps[v.size:]).max(initial=0.0) == 0.0


def test_default_width_is_minimal():
    assert amplitude_encode([1, 2, 3]).num_qubits == 2
