"""Deterministic chunk-parallel evaluation.

Rows are split into chunks of at most CHUNK_BYTES (8 MiB) each, and
results are reassembled in submission order, so the output is bitwise
independent of the worker count. A batch that fits one chunk runs on the
calling thread; only two or more chunks start a pool, of up to four of
the CPUs the process may run on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ShapeError

CHUNK_BYTES = 1 << 23
PRODUCT_MACS = 10**6
"""Multiply-adds (rows x length x 2C) per block of ``circuit.score_rows``: the
largest product OpenBLAS 0.3.31 runs unpacked, by its small-matrix kernel, on
an AVX-512 Xeon. On one BLAS thread, (2048x4096) @ (4096x8) took 12.7 ms as one
call and 4.9 ms in 30-row blocks."""


def thread_count() -> int:
    """Pool size: up to four of the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)  # no affinity call on this platform


def map_rows(fn, rows: np.ndarray, threads: int | None = None) -> np.ndarray:
    """Apply ``fn`` to slices of ``rows`` of at most CHUNK_BYTES each (at
    least one row) on ``threads`` workers (None: thread_count()); concat
    in order."""
    if len(rows) == 0:
        raise ShapeError("cannot map over an empty batch")
    step = max(1, CHUNK_BYTES // rows[0].nbytes)
    chunks = [rows[i : i + step] for i in range(0, len(rows), step)]
    workers = thread_count() if threads is None else threads
    if workers <= 1 or len(chunks) <= 1:
        parts = [fn(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(fn, chunks))
    return np.concatenate(parts, axis=0)
