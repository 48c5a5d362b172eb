"""Amplitude encoding: write an L2-normalized real signal into state amplitudes.

A signal of length l needs ceil(log2(l)) qubits (minimum one); unused
amplitudes at indices >= l stay zero, so basis index == signal index.
Signed values are encoded as-is: normalization preserves relative
magnitudes and signs.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, EncodingError
from .qstate import Statevector, check_qubits


def required_qubits(length: int) -> int:
    """Minimum qubit count to amplitude-encode a signal of ``length`` values."""
    if length < 1:
        raise EncodingError("cannot encode an empty signal")
    return max(1, (int(length) - 1).bit_length())


def amplitude_encode(values, num_qubits: int | None = None) -> Statevector:
    """Encode a 1-D signal as a unit-norm statevector, zero-padded at the tail;
    the one-row case of ``encode_rows``."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = required_qubits(v.size) if num_qubits is None else num_qubits
    return Statevector(n, encode_rows(v.reshape(1, -1), n)[0])


def row_norms(signals: np.ndarray, num_qubits: int) -> np.ndarray:
    """L2 norm of every row of a (batch, length) matrix, once the rows are
    known to fit ``num_qubits`` and to be encodable: finite, not all zero,
    and with a norm that does not overflow."""
    signals = np.asarray(signals, dtype=np.float64)
    if signals.ndim != 2 or signals.shape[1] == 0:
        raise EncodingError(
            f"expected a (batch, length) matrix, got shape {signals.shape}")
    check_qubits(num_qubits)
    if signals.shape[1] > (1 << num_qubits):
        raise CapacityError(
            f"signals of length {signals.shape[1]} do not fit in {num_qubits} qubits"
        )
    norms = np.sqrt(np.einsum("ij,ij->i", signals, signals))
    bad = ~np.isfinite(norms)
    if bad.any():
        raise EncodingError(f"signal row {int(np.argmax(bad))} contains NaN or Inf "
                            "or overflows its L2 norm")
    if (norms == 0.0).any():
        raise EncodingError(
            f"signal row {int(np.argmin(norms > 0))} is all-zero and cannot be encoded"
        )
    return norms


def encode_rows(signals: np.ndarray, num_qubits: int) -> np.ndarray:
    """Encode a (batch, length) matrix into raw (batch, 2^n) amplitudes."""
    sig = np.asarray(signals, dtype=np.float64)
    norms = row_norms(sig, num_qubits)
    amps = np.zeros((sig.shape[0], 1 << num_qubits), dtype=np.complex128)
    amps[:, : sig.shape[1]] = sig / norms[:, None]
    return amps
