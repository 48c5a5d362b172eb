"""A deterministic chunk pool that no library code calls: scoring runs one
row-block pass per batch on the calling thread (``circuit.score_rows``).
perfbench/run.py still imports this module, reads ``thread_count`` and
wraps ``circuit.map_rows``, so the pool stays for it alone.

``map_rows`` splits rows into chunks of at most CHUNK_BYTES (8 MiB) and
reassembles the results in order, so the output is bitwise independent of
the worker count; two or more chunks start a pool of up to four of the
CPUs the process may run on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ShapeError

CHUNK_BYTES = 1 << 23


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
