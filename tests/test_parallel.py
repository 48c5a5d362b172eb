"""Chunk-parallel evaluation: thread resolution and bitwise invariance."""

import shutil
import subprocess

import numpy as np
import pytest

from hqcg import ConfigError, build_model, forward_batch
from hqcg.parallel import CHUNK_ROWS, map_rows, thread_count


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


def test_map_rows_output_independent_of_workers():
    rows = np.arange(CHUNK_ROWS * 3 + 17, dtype=float).reshape(-1, 1)

    def fn(chunk):
        return np.cumsum(chunk[:, 0])[:, None]

    single = map_rows(fn, rows, threads=1)
    pooled = map_rows(fn, rows, threads=4)
    np.testing.assert_array_equal(single, pooled)


def test_env_variable_reaches_forward_batch(monkeypatch):
    rng = np.random.default_rng(1)
    model = build_model(6, 3, 2, seed=3)
    signals = rng.normal(size=(CHUNK_ROWS + 9, 64))
    monkeypatch.setenv("HQCG_THREADS", "1")
    a = forward_batch(model, signals)
    monkeypatch.setenv("HQCG_THREADS", "4")
    b = forward_batch(model, signals)
    np.testing.assert_array_equal(a, b)


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
