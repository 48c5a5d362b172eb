#!/usr/bin/env python3
"""Reference figures for the README: forward and loss-plus-gradient per geometry.

    python3 perfbench/figures.py

Best of three calls, one thread (HQCG_THREADS=1, one BLAS thread), the same
settings as the baseline table in ROADMAP.md. Prints a Markdown table.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GEOMETRIES = [  # (qubits, group size, classes, signal length, batch)
    (8, 4, 4, 256, 64),
    (12, 4, 4, 4096, 64),
    (16, 4, 8, 30000, 16),
]
REPEATS = 3


def best_of(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    import numpy as np
    import hqcg
    print("| geometry | forward | loss + gradient | gradient ÷ forward | class states |")
    print("|---|---|---|---|---|")
    for n, g, c, length, batch in GEOMETRIES:
        spec = hqcg.SyntheticSpec(num_classes=c, signal_len=length,
                                  num_samples=batch, seed=0)
        signals, labels, _ = hqcg.stack_samples(hqcg.generate_synthetic(spec))
        model = hqcg.build_model(n, g, c, seed=0)
        fwd = best_of(lambda: hqcg.forward_batch(model, signals))
        grad = best_of(lambda: hqcg.loss_and_gradients(model, signals, labels))
        states = best_of(lambda: hqcg.class_state_matrix(model))
        print(f"| n={n}, C={c}, L={length}, B={batch} | {fwd * 1e3:.0f} ms "
              f"| {grad * 1e3:.0f} ms | {grad / fwd:.1f}× | {states * 1e3:.0f} ms |")
    print(f"\nnumpy {np.__version__}, {len(os.sched_getaffinity(0))} CPUs")
    return 0


if __name__ == "__main__":
    from run import limit_threads
    os.environ["HQCG_THREADS"] = "1"
    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
