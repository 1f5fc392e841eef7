"""In-memory spans around the benchmark's calls into each package module.

A span is (name, start_ns, end_ns, parent, op): ``parent`` is the index of
the enclosing span in the same list (-1 for a root) and ``op`` names the
operation the span belongs to. Spans stay in memory until the run writes
them out; clocks are ``perf_counter_ns``, which is monotonic and shared by
the processes of one machine.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: object = None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()


def self_times_ns(spans: list[list]) -> list[tuple[str, object, int]]:
    """(name, op, self time) per span: its duration minus the time its
    direct children cover."""
    covered = [0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[0], s[4], s[2] - s[1] - covered[i]) for i, s in enumerate(spans)]


def merge(into: list[list], spans: list[list], process: str) -> None:
    """Append another process's spans, re-basing their parent indices and
    tagging each with the process it ran in."""
    base = len(into)
    for name, start, end, parent, op, *_ in spans:
        into.append([name, start, end, parent + base if parent >= 0 else -1, op, process])
