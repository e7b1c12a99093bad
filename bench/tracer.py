"""In-memory spans and the self-time arithmetic over them.

A span is ``(name, start_ns, end_ns, parent)`` where ``parent`` is the
index of the span that was open when this one began (``-1`` for a root).
They are recorded in memory while the workload runs and only read after
it ends.  A span's *self time* is its duration minus the
durations of its direct children; summing self time by name therefore
accounts for every nanosecond of a root span exactly once, however the
names nest or recurse.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

Span = tuple[str, int, int, int]


class Tracer:
    """Records nested spans; one instance per traced process.

    While the workload runs only an event log of plain integers grows
    (``name id, start`` on entry, ``-1, end`` on exit): no per-span object
    is allocated, so tracing adds nothing for the garbage collector to
    walk.  :meth:`spans` replays the log into spans afterwards.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.log: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> None:
        self.log.append(self._name_id(name))
        self.log.append(time.perf_counter_ns())

    def end(self) -> None:
        """Close the innermost open span."""
        self.log.append(-1)
        self.log.append(time.perf_counter_ns())

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._name_id(name)
        push = self.log.append
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            push(name_id)
            push(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                push(-1)
                push(clock())

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def reset(self) -> None:
        """Forget every span (in place: installed wrappers hold the log)."""
        self.log.clear()

    def spans(self) -> list[Span]:
        """The log as spans, in the order they began (parents first)."""
        spans: list[list] = []
        open_: list[int] = []
        log = self.log
        for i in range(0, len(log), 2):
            if log[i] >= 0:
                spans.append(
                    [self.names[log[i]], log[i + 1], 0, open_[-1] if open_ else -1]
                )
                open_.append(len(spans) - 1)
            else:
                spans[open_.pop()][2] = log[i + 1]
        if open_:
            raise RuntimeError(f"{len(open_)} spans never ended")
        return [tuple(s) for s in spans]


def self_times(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """``{root name: {span name: summed self ns}}`` over a span forest.

    The root's own self time (time under it in no child span) is listed
    under the root's name, so each inner dict sums to its root's duration.
    """
    spans = list(spans)
    child_ns = [0] * len(spans)
    root_of = [0] * len(spans)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent < 0:
            root_of[i] = i
        else:
            root_of[i] = root_of[parent]  # parents precede children
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _) in enumerate(spans):
        out[spans[root_of[i]][0]][name] += (end - start) - child_ns[i]
    return {root: dict(by_name) for root, by_name in out.items()}


def span_counts(spans: Iterable[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)


def write_chrome_trace(spans: Iterable[Span], path) -> None:
    """Export as Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
    spans = list(spans)
    t0 = min((s[1] for s in spans), default=0)
    events = [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": (start - t0) / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": 1,
            "tid": 1,
        }
        for name, start, end, _ in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
