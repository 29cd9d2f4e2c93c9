"""In-memory span tracing around the public functions of puzzlefonts.

The tracer rebinds a function's name in the module (or class) that looks it
up at call time, so calls made by the library itself are traced too: for
example `solve_belt` reaches `compute_belt` through the globals of
`puzzlefonts.conveyer`, and `conveyer` imports `path_is_simple` by name.
Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    request: int       # id of the benchmark operation that caused the span
    parent: int        # index of the enclosing span, -1 at the top level
    start: float
    end: float


class Tracer:
    """Records spans and counts at the patched layer boundaries."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.active = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` recording one span per call; `on_result(counts, args, result)`
        adds counts derived from a call's arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = Span(name, tracer.request, parent, start, end)
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own bookkeeping)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unpatch_all()

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def self_times(self, key=lambda span: span.name) -> dict:
        """Span duration minus the part covered by its direct child spans.

        Spans of one thread nest and never overlap, so the covered part is the
        sum of the children's durations.  `key` groups the spans.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[key(span)] += (span.end - span.start) - child_time[index]
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps([index, s.name, s.request, s.parent,
                                     round(s.start, 9), round(s.end, 9)]) + "\n")
