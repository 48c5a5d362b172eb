"""Mutation runner: how many one-line faults do the oracles catch?

Each mutant below replaces one exact piece of a line in ``src/hqcg``. The
runner copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary
directory, applies the mutant there (it must match exactly once), runs a
fixed fast subset of the tests with ``-x`` and prints ``killed`` when a test
fails and ``survived`` when all pass. A mutant marked equivalent changes no
result the package promises (only rounding, or nothing at all), so it is
expected to survive.

Pytest does not collect this file. Run it by hand from the repository root:

    python tests/mutants.py            # every mutant, a few minutes
    python tests/mutants.py W-order    # only the named mutants

It exits 1 if a mutant that is not marked equivalent survives.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

SUBSET = ["tests/test_grad.py", "tests/test_properties.py", "tests/test_circuit.py",
          "tests/test_encoding.py", "tests/test_train.py", "tests/test_acceptance.py"]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/hqcg
    old: str
    new: str
    equivalent: bool = False


MUTANTS = [
    # the step's state layout: block environments, W, class states, fold
    Mutant("W-order", "circuit.py", "np.matmul(envs, unitaries.conj(), out=rest[-1])",
           "np.matmul(unitaries.conj(), envs, out=rest[-1])"),
    Mutant("W-no-conj", "circuit.py", "np.matmul(envs, unitaries.conj(), out=rest[-1])",
           "np.matmul(envs, unitaries, out=rest[-1])"),
    Mutant("env-no-conj", "circuit.py", "    bra = bra.conj()\n", "    bra = bra.copy()\n"),
    Mutant("env-lowest-block-operands", "circuit.py",
           "np.matmul(b[..., 0].T, k[..., 0], out=env)",
           "np.matmul(k[..., 0].T, b[..., 0], out=env)"),
    Mutant("env-upper-block-no-swap", "circuit.py",
           "np.sum(b @ k.swapaxes(1, 2), axis=0, out=env)",
           "np.sum(b @ k.reshape(b.shape[0], -1, b.shape[1]), axis=0, out=env)"),
    Mutant("gqcg-env-operands", "grad.py",
           "block_environments(states, xi.swapaxes(1, 2), model.gqcg)",
           "block_environments(xi.swapaxes(1, 2), states, model.gqcg)"),
    Mutant("lqcg-env-operands", "grad.py", "block_environments(beta, u, model.lqcg)",
           "block_environments(u, beta, model.lqcg)"),
    Mutant("gather-ring-direction", "circuit.py",
           "_ring_permutation(n, inverse=True)[ordered]", "_ring_permutation(n)[ordered]"),
    Mutant("read-ring-direction", "circuit.py", "product[_ring_permutation(n)]",
           "product[_ring_permutation(n, inverse=True)]"),
    Mutant("read-layer-order", "circuit.py", "product[_ring_permutation(n)]",
           "ordered[_ring_permutation(n)]"),
    Mutant("group-bit-order", "circuit.py",
           "(cols[:, :, p, :, None] * inner[-1][:, :, None, :])",
           "(inner[-1][:, :, :, None] * cols[:, :, p, None, :])"),
    Mutant("across-group-order", "circuit.py",
           "(groups[:, j, :, None] * outer[-1][:, None, :])",
           "(outer[-1][:, :, None] * groups[:, j, None, :])"),
    Mutant("group-gradient-fold", "circuit.py", "t = (groups[:, j, None, :] @ t)[:, 0]",
           "t = (groups[:, j - 1, None, :] @ t)[:, 0]"),
    Mutant("column-gradient-conj", "circuit.py",
           "envs[:, :, p] = (t @ inner[p - 1][..., None])[..., 0]",
           "envs[:, :, p] = (t @ inner[p - 1].conj()[..., None])[..., 0]"),
    # the class side a step and a scoring memo miss share, and the memo
    Mutant("class-side-gather-table", "grad.py", "class_gathers(model.gqcg)[0])",
           "class_gathers(model.gqcg)[1])"),
    Mutant("class-side-read-table", "grad.py", "class_gathers(model.gqcg)[1])",
           "class_gathers(model.gqcg)[0])"),
    Mutant("memo-miss-scores-beta", "grad.py",
           "_class_side(model, rotation_matrices(model.theta.reshape(-1, 3)))[-1]",
           "_class_side(model, rotation_matrices(model.theta.reshape(-1, 3)))[-2]"),
    Mutant("memo-key-theta-order", "grad.py", "model.theta.tobytes(), signals.shape[1])",
           "np.sort(model.theta).tobytes(), signals.shape[1])"),
    Mutant("memo-unbounded", "grad.py", "@lru_cache(maxsize=1)", "@lru_cache(maxsize=None)"),
    Mutant("kets-imag-sign", "grad.py", "kets.imag[:, : signals.shape[1]] = folded[len(kets) :]",
           "kets.imag[:, : signals.shape[1]] = -folded[len(kets) :]"),
    Mutant("kets-real-from-imag", "grad.py",
           "kets.real[:, : signals.shape[1]] = folded[: len(kets)]",
           "kets.real[:, : signals.shape[1]] = folded[len(kets) :]"),
    # earlier faults: layers, ring, gradient factors, head, encoding, optimiser
    Mutant("skip-gate-target", "circuit.py", "t = (j + 1) % width", "t = (j - 1) % width"),
    Mutant("reversed-ring", "circuit.py", "<< ((k + 1) % num_qubits)",
           "<< ((k - 1) % num_qubits)"),
    Mutant("gradient-factor", "grad.py", "grads *= 2.0 / signals.shape[0]",
           "grads *= 1.0 / signals.shape[0]"),
    Mutant("fold-scale", "grad.py", "pairs *= scale[:, None]",
           "pairs *= scale[:, None] * (1 + 1e-6)"),
    Mutant("phase-slot", "grad.py", "classes[..., 0] = 0.0", "classes[..., 0] = 1e-12"),
    Mutant("overlap-slice", "circuit.py", "pulled[:, :length]", "pulled[:, 1 : length + 1]"),
    Mutant("norm-exponent", "encoding.py", "return np.sqrt(squares)",
           "return squares ** 0.5000001"),
    Mutant("adam-bias-correction", "train.py", "m2_hat = m2 / (1.0 - BETA2 ** t)",
           "m2_hat = m2 / (1.0 - BETA2 ** (t + 1))"),
    # equivalent: zeros where every entry is written, and another blocking
    Mutant("block-gradients-zeros", "circuit.py", "rest = np.empty_like(factors)",
           "rest = np.zeros_like(factors)", equivalent=True),
    Mutant("score-rows-blocking", "circuit.py", "step = rows if rows >= 8 else len(signals)",
           "step = rows if rows >= 8 else max(rows, 1)", equivalent=True),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """(the first failing test, or "" if none failed, seconds) for one
    mutant, tested in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="hqcg-mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / "src" / "hqcg" / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        assert count == 1, f"{mutant.name}: {mutant.old!r} matches {count} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *SUBSET],
                              cwd=tree, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        failed = [line for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED", "ERROR"))]
        if proc.returncode != 0 and not failed:
            failed = [f"pytest exited {proc.returncode}"]
        return (failed[0].split(" - ")[0] if failed else ""), seconds


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    missed = 0
    for mutant in chosen:
        failed, seconds = run(mutant)
        verdict = "killed" if failed else "survived"
        if mutant.equivalent:
            verdict += " (equivalent)"
        elif not failed:
            missed += 1
        print(f"{mutant.name:28s} {mutant.path:12s} {verdict:24s} {seconds:5.1f} s  {failed}",
              flush=True)
    print(f"{missed} non-equivalent survivors of {len(chosen)} mutants")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
