"""Wall-clock span profiling for the compiler (Table IV instrumentation).

Two entry points:

* ``with profiler.span("frontend"):`` — a timed region measured by the
  profiler itself (phases of the ``ncc`` driver).
* ``profiler.record("dce", duration_ns=..., meta=...)`` — a completed
  measurement handed in by code that already timed itself (the pass
  manager, which times a pass and sizes the IR around it only when the
  profiler is enabled).

Spans nest: a span opened while another is active becomes its child, so
per-pass spans recorded during the "passes" phase roll up under it.
:data:`NULL_PROFILER` is the shared disabled instance — ``span()`` on it
is a no-op context and ``record()`` returns immediately, so callers
never branch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class ProfileSpan:
    """One timed region."""

    name: str
    category: str = "phase"  # "phase" | "pass" | caller-defined
    start_ns: int = 0
    end_ns: int = 0
    parent: Optional["ProfileSpan"] = field(default=None, repr=False)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "category": self.category,
            "duration_ns": self.duration_ns,
        }
        if self.parent is not None:
            d["parent"] = self.parent.name
        if self.meta:
            d["meta"] = dict(self.meta)
        return d


class _SpanContext:
    """Context manager opening/closing one live span."""

    __slots__ = ("_profiler", "span")

    def __init__(self, profiler: "Profiler", span: ProfileSpan) -> None:
        self._profiler = profiler
        self.span = span

    def __enter__(self) -> ProfileSpan:
        self.span.start_ns = time.perf_counter_ns()
        self._profiler._stack.append(self.span)
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end_ns = time.perf_counter_ns()
        self._profiler._stack.pop()


class _NullSpanContext:
    """Disabled span: enters/exits without touching the clock."""

    __slots__ = ()
    _span = ProfileSpan("<disabled>")

    def __enter__(self) -> ProfileSpan:
        return self._span

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Profiler:
    """Collects :class:`ProfileSpan` records for one compilation."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[ProfileSpan] = []
        self._stack: list[ProfileSpan] = []

    # -- recording -----------------------------------------------------------
    def span(self, name: str, category: str = "phase", **meta: Any):
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        sp = ProfileSpan(
            name,
            category,
            parent=self._stack[-1] if self._stack else None,
            meta=meta,
        )
        self.spans.append(sp)
        return _SpanContext(self, sp)

    def record(
        self,
        name: str,
        *,
        category: str = "pass",
        duration_ns: int,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        """Store an externally timed span (no clock reads here)."""
        if not self.enabled:
            return
        sp = ProfileSpan(
            name,
            category,
            start_ns=0,
            end_ns=duration_ns,
            parent=self._stack[-1] if self._stack else None,
            meta=meta or {},
        )
        self.spans.append(sp)

    # -- queries -------------------------------------------------------------
    def phases(self) -> list[ProfileSpan]:
        return [s for s in self.spans if s.category == "phase"]

    def passes(self) -> list[ProfileSpan]:
        return [s for s in self.spans if s.category == "pass"]

    def total_seconds(self) -> float:
        """Wall time of all *top-level* spans (children excluded)."""
        return sum(s.seconds for s in self.spans if s.parent is None)

    def pass_summary(self) -> list[dict[str, Any]]:
        """Per-pass aggregate: runs, total seconds, changes, IR size delta.

        Ordered by first appearance, i.e. pipeline order.
        """
        agg: dict[str, dict[str, Any]] = {}
        for sp in self.passes():
            row = agg.setdefault(
                sp.name,
                {"name": sp.name, "runs": 0, "seconds": 0.0, "changes": 0, "instrs_delta": 0},
            )
            row["runs"] += 1
            row["seconds"] += sp.seconds
            row["changes"] += sp.meta.get("changes", 0)
            before = sp.meta.get("instrs_before")
            after = sp.meta.get("instrs_after")
            if before is not None and after is not None:
                row["instrs_delta"] += after - before
        return list(agg.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "phases": [
                {"name": s.name, "seconds": s.seconds, **({"meta": s.meta} if s.meta else {})}
                for s in self.phases()
            ],
            "passes": self.pass_summary(),
            "total_seconds": self.total_seconds(),
            "spans": [s.to_dict() for s in self.spans],
        }


#: Shared disabled profiler: safe to pass anywhere, records nothing.
NULL_PROFILER = Profiler(enabled=False)
