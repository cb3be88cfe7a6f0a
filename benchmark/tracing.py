"""Spans around the benchmark's calls into the library.

A span is one timed call: its name, start, end and the span it ran inside.
Spans stay in memory and are written out when the run ends.  Untraced passes
use ``NullTracer``, whose spans cost one shared no-op context manager.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans of one pass; parents come from the nesting of ``span``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and call count per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Per layer (span-name prefix), span time not covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def to_json(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent}
                for name, start, end, parent in self.spans]


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str):
        return self._noop
