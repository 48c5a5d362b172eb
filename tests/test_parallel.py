"""Chunk-parallel evaluation: pool size, byte-budget chunks and bitwise
invariance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqcg.parallel
from hqcg import build_model, forward_batch
from hqcg.parallel import CHUNK_BYTES, map_rows

SRC = Path(__file__).resolve().parent.parent / "src"


def _chunk_lengths(rows):
    lengths = []

    def fn(chunk):
        lengths.append(len(chunk))
        return chunk[:, :1]

    map_rows(fn, rows, threads=1)
    return lengths


def _count_pools(monkeypatch):
    """Count ThreadPoolExecutor constructions inside ``hqcg.parallel``."""
    made = []

    class Counting(hqcg.parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hqcg.parallel, "ThreadPoolExecutor", Counting)
    return made


# Prints the pool size unpinned, then pinned to one CPU; the pin acts on
# this child process only.
_PINNED = """
import os
from hqcg.parallel import thread_count
print(thread_count(), min(4, len(os.sched_getaffinity(0))))
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(thread_count())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity call on this platform")
def test_thread_count_resolution():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _PINNED], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    unpinned, pinned = proc.stdout.splitlines()
    count, cpus = unpinned.split()
    assert count == cpus
    assert pinned == "1"


def test_chunks_split_by_bytes():
    assert CHUNK_BYTES == 256 * 4096 * 8
    assert _chunk_lengths(np.zeros((3 * 256 + 17, 4096))) == [256, 256, 256, 17]
    assert _chunk_lengths(np.zeros((2000, 256))) == [2000]
    # a row wider than the budget is still one row per chunk
    assert _chunk_lengths(np.zeros((3, CHUNK_BYTES // 8 + 1))) == [1, 1, 1]


def test_sub_budget_batch_runs_on_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a batch under one chunk started a pool")

    monkeypatch.setattr(hqcg.parallel, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(hqcg.parallel, "thread_count", lambda: 4)
    model = build_model(8, 4, 3, seed=3)
    signals = np.random.default_rng(1).normal(size=(2000, 256))
    probs = forward_batch(model, signals)
    assert probs.shape == (2000, 3)


def test_map_rows_output_independent_of_workers(monkeypatch):
    made = _count_pools(monkeypatch)
    rows = np.arange((3 * 256 + 17) * 4096, dtype=float).reshape(-1, 4096)

    def fn(chunk):
        return np.cumsum(chunk[:, 0])[:, None]

    single = map_rows(fn, rows, threads=1)
    assert made == []
    pooled = map_rows(fn, rows, threads=4)
    assert made == [4]
    assert single.tobytes() == pooled.tobytes()


def test_thread_count_reaches_forward_batch(monkeypatch):
    made = _count_pools(monkeypatch)
    model = build_model(8, 4, 3, seed=3)
    # two full chunks of 256-value rows and a 9-row tail
    rows = 2 * (CHUNK_BYTES // (256 * 8)) + 9
    signals = np.random.default_rng(1).normal(size=(rows, 256))
    monkeypatch.setattr(hqcg.parallel, "thread_count", lambda: 1)
    a = forward_batch(model, signals)
    assert made == []
    monkeypatch.setattr(hqcg.parallel, "thread_count", lambda: 4)
    b = forward_batch(model, signals)
    assert made == [4]
    assert a.tobytes() == b.tobytes()

