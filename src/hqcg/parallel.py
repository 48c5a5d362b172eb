"""Deterministic chunk-parallel evaluation.

Rows are split into chunks of at most CHUNK_BYTES (8 MiB) each, and
results are reassembled in submission order, so the output is bitwise
independent of the worker count. A batch that fits one chunk runs on the
calling thread; only two or more chunks start a pool. The HQCG_THREADS
environment variable caps the pool size (0 or unset = auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, ShapeError

CHUNK_BYTES = 1 << 23


def thread_count(explicit: int | None = None) -> int:
    """Resolve the worker count from an explicit value or HQCG_THREADS."""
    if explicit is None:
        raw = os.environ.get("HQCG_THREADS", "0")
        try:
            explicit = int(raw)
        except ValueError:
            raise ConfigError(
                f"HQCG_THREADS must be a non-negative integer, got {raw!r}"
            ) from None
    if explicit < 0:
        raise ConfigError(f"thread count must be >= 0, got {explicit}")
    if explicit == 0:
        return min(4, os.cpu_count() or 1)
    return explicit


def map_rows(fn, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
    """Apply ``fn`` to slices of ``rows`` of at most CHUNK_BYTES each (at
    least one row); concat in order."""
    if len(rows) == 0:
        raise ShapeError("cannot map over an empty batch")
    step = max(1, CHUNK_BYTES // rows[0].nbytes)
    chunks = [rows[i : i + step] for i in range(0, len(rows), step)]
    workers = thread_count(threads)
    if workers <= 1 or len(chunks) <= 1:
        parts = [fn(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, chunks))
    return np.concatenate(parts, axis=0)
