"""Chunk-parallel evaluation: thread resolution, byte-budget chunks and
bitwise invariance."""

import shutil
import subprocess

import numpy as np
import pytest

import hqcg.parallel
from hqcg import ConfigError, build_model, forward_batch
from hqcg.parallel import CHUNK_BYTES, map_rows, thread_count


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


def test_thread_count_resolution(monkeypatch):
    monkeypatch.delenv("HQCG_THREADS", raising=False)
    assert thread_count(2) == 2
    assert thread_count(0) >= 1  # auto
    monkeypatch.setenv("HQCG_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("HQCG_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.setenv("HQCG_THREADS", "lots")
    with pytest.raises(ConfigError):
        thread_count()
    with pytest.raises(ConfigError):
        thread_count(-1)


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
    monkeypatch.setenv("HQCG_THREADS", "4")
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


def test_env_variable_reaches_forward_batch(monkeypatch):
    made = _count_pools(monkeypatch)
    model = build_model(8, 4, 3, seed=3)
    # two full chunks of 256-value rows and a 9-row tail
    rows = 2 * (CHUNK_BYTES // (256 * 8)) + 9
    signals = np.random.default_rng(1).normal(size=(rows, 256))
    monkeypatch.setenv("HQCG_THREADS", "1")
    a = forward_batch(model, signals)
    assert made == []
    monkeypatch.setenv("HQCG_THREADS", "4")
    b = forward_batch(model, signals)
    assert made == [4]
    assert a.tobytes() == b.tobytes()


@pytest.mark.skipif(shutil.which("hqcg") is None,
                    reason="console script not installed")
def test_console_script_runs():
    proc = subprocess.run(
        ["hqcg", "inspect", "--qubits", "8", "--group-size", "4",
         "--classes", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "LQCG: 8 gates, 24 params" in proc.stdout
