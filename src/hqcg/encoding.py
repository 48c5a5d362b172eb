"""Amplitude encoding: write an L2-normalized real signal into state amplitudes.

A signal of length l needs ceil(log2(l)) qubits (minimum one); unused
amplitudes at indices >= l stay zero, so basis index == signal index.
Signed values are encoded as-is: normalization preserves relative
magnitudes and signs.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, EncodingError, ShapeError
from .qstate import Statevector, check_qubits


def required_qubits(length: int) -> int:
    """Minimum qubit count to amplitude-encode a signal of ``length`` values."""
    if length < 1:
        raise EncodingError("cannot encode an empty signal")
    return max(1, (int(length) - 1).bit_length())


def amplitude_encode(values, num_qubits: int | None = None) -> Statevector:
    """Encode a 1-D signal as a unit-norm statevector, zero-padded at the tail;
    the one-row case of ``encode_rows``."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim > 1:
        raise ShapeError(f"expected one 1-D signal, got shape {v.shape}")
    n = required_qubits(v.size) if num_qubits is None else num_qubits
    return Statevector(n, encode_rows(v.reshape(1, -1), n)[0])


def check_rows(signals: np.ndarray, num_qubits: int) -> None:
    """Refuse a matrix that is not (batch, length) or whose rows do not fit
    ``num_qubits``."""
    if signals.ndim != 2 or signals.shape[1] == 0:
        raise EncodingError(
            f"expected a (batch, length) matrix, got shape {signals.shape}")
    check_qubits(num_qubits)
    if signals.shape[1] > (1 << num_qubits):
        raise CapacityError(
            f"signals of length {signals.shape[1]} do not fit in {num_qubits} qubits"
        )


def checked_norms(squares: np.ndarray) -> np.ndarray:
    """The L2 norms of signal rows from their squared norms, once every row is
    known to be encodable: finite, not all zero, and not overflowing its norm."""
    # one pass each when all is well: a NaN makes both extremes NaN
    if not (np.minimum.reduce(squares) > 0.0 and np.maximum.reduce(squares) < np.inf):
        bad = ~np.isfinite(squares)
        if bad.any():
            raise EncodingError(f"signal row {int(np.argmax(bad))} contains NaN or Inf "
                                "or overflows its L2 norm")
        raise EncodingError(
            f"signal row {int(np.argmin(squares > 0))} is all-zero and cannot be encoded"
        )
    return np.sqrt(squares)


def encode_rows(signals: np.ndarray, num_qubits: int) -> np.ndarray:
    """Encode a (batch, length) matrix into raw (batch, 2^n) amplitudes, once
    its rows are known to fit ``num_qubits`` and to be encodable."""
    sig = np.asarray(signals, dtype=np.float64)
    check_rows(sig, num_qubits)
    with np.errstate(over="ignore"):  # checked_norms refuses a norm that overflows
        norms = checked_norms(np.vecdot(sig, sig))
    amps = np.zeros((sig.shape[0], 1 << num_qubits), dtype=np.complex128)
    amps[:, : sig.shape[1]] = sig / norms[:, None]
    return amps
