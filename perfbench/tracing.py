"""Spans around the benchmark's calls into perinet, kept in memory.

A span is ``[name, start, end, parent, op]``: start and end come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (None
for an operation's root span) and ``op`` is the id of the operation the
span belongs to.  Spans are recorded only from the benchmark's own files,
one per public call, so ``reduction`` and ``intlinalg``, which perinet
reaches only internally, have none.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans when enabled; otherwise only forwards the calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.own_s = 0.0            # time spent recording spans
        self._open: int | None = None
        self._op: int | None = None
        self._ops = 0

    def _begin(self, name: str) -> tuple[list, int | None]:
        t = perf_counter()
        parent = self._open
        self._open = len(self.spans)
        span = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(span)
        span[1] = perf_counter()
        self.own_s += span[1] - t
        return span, parent

    def _end(self, span: list, parent: int | None):
        span[2] = perf_counter()
        self._open = parent
        self.own_s += perf_counter() - span[2]

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span, parent = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span, parent)

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; spans opened inside get its id."""
        if not self.enabled:
            yield
            return
        self._ops += 1
        self._op = self._ops
        span, parent = self._begin(name)
        try:
            yield
        finally:
            self._end(span, parent)
            self._op = None

    def records(self, t0: float) -> list[dict]:
        """The spans as JSON records, times in seconds from ``t0``."""
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]


def layer_seconds(spans: list[list]) -> dict[str, list[float]]:
    """Durations of the spans of each name."""
    out: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out


def self_seconds(spans: list[list]) -> list[tuple[str, float]]:
    """(name, self time) of each operation's root span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(name, end - start - child[i])
            for i, (name, start, end, parent, _) in enumerate(spans) if parent is None]
