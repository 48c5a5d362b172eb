"""In-memory spans around calls into the hqcg modules.

A span is (id, name, start, end, parent, bytes). Spans nest through a
per-thread stack; work handed to the chunk pool in ``parallel.map_rows``
is parented explicitly to the ``parallel.map_rows`` span that submitted it.

Self time of a span is its duration minus the union of its children's
intervals. ``qstate.kernel`` spans are transparent: they are counted and
timed, but their time stays inside the self time of the stage that called
the kernel, so stage self times partition the run and the kernel figures
are a second, cross-cutting view of the same seconds.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict

TRANSPARENT = {"qstate.kernel"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record the enclosed block; the yielded dict takes computed ``bytes``."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": next(self._ids), "bytes": 0}
        stack.append(rec["id"])
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((rec["id"], name, start, end, parent, rec["bytes"]))

    def wrap(self, name, fn, nbytes=None, parent: int | None = None):
        """``fn`` recorded as a span; ``name`` may be a function of the
        arguments, ``nbytes`` a function of (args, result) giving bytes."""
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label, parent) as rec:
                out = fn(*args, **kwargs)
                if nbytes is not None:
                    rec["bytes"] = nbytes(args, out)
            return out
        return traced

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per name: calls, self seconds, computed bytes and the largest
        single-call bytes, over spans with id > ``since``."""
        spans = [s for s in self.spans if s[0] > since]
        children = defaultdict(list)
        for sid, name, start, end, parent, _ in spans:
            if parent is not None and name not in TRANSPARENT:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "bytes": 0, "max_bytes": 0})
        for sid, name, start, end, _, size in spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - _covered(children.get(sid, []))
            entry["bytes"] += size
            entry["max_bytes"] = max(entry["max_bytes"], size)
        return dict(out)

    def last_id(self) -> int:
        return max((s[0] for s in self.spans), default=0)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set (module, attribute, value) triples; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
