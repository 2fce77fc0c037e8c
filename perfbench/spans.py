"""In-memory span recorder and self-time accounting.

A span is one call into a layer: its name, start, end and the span that
was open when it began (its parent).  Leaf kernels that run too often to
record one by one are not spans: their time is added to the innermost open
span's `kernel_s`, which self time then subtracts like a child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int  # index into the recorder's spans, -1 for a root
    kernel_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans in the order they were opened; the stack holds open ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), None, parent))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._stack.pop()
        self.spans[sid].end = self.clock()

    def add_kernel_time(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].kernel_s += seconds


def _covered(lo: float, hi: float, intervals: list) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its children cover.

    Children may nest or overlap one another; their union is subtracted
    once, clipped to the parent's interval.  Aggregated kernel time is
    subtracted on top, since it is never inside a child span.
    """
    children: dict = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        max(0.0, s.duration - _covered(s.start, s.end, children.get(i, [])) - s.kernel_s)
        for i, s in enumerate(spans)
    ]


def totals_by_name(spans: list) -> dict:
    """name -> [calls, inclusive seconds, self seconds].

    Inclusive time counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += selfs[i]
        anc = s.parent
        while anc >= 0 and spans[anc].name != s.name:
            anc = spans[anc].parent
        if anc < 0:
            row[1] += s.duration
    return out
