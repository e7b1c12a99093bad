"""Event queue with integer-nanosecond time.

Hot-path design (this file is under every packet of every end-to-end
benchmark):

* Heap entries are plain ``(time_ns, seq, fn, args)`` tuples, so
  ``heapq`` orders them with C-level integer comparisons — no Python
  ``__lt__`` call per sift step.  ``seq`` is unique, so the tuple
  comparison never reaches the callable.
* The entry itself carries ``(fn, args)`` instead of a captured closure:
  callers schedule bound methods plus arguments
  (``sim.after(d, self._arrive, node, pkt)``), which avoids allocating a
  closure cell per event.
* Nothing is ever cancelled.  A timeout carries what it guards and, when
  it fires, checks that this is still current; a superseded one runs as a
  no-op.  So there are no handles, and an entry costs one tuple.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional


class Simulator:
    """A minimal discrete-event simulator.

    Integer nanoseconds avoid floating-point drift over long runs (the AGG
    throughput experiment simulates hundreds of milliseconds of 100G
    traffic).  Fractional delays round *up* (like
    :meth:`~repro.netsim.net.Link.serialization_ns`): truncation would let
    sub-nanosecond float delays schedule "now", making supposedly-delayed
    work instantaneous.  Same-nanosecond events fire in scheduling order.
    """

    def __init__(self) -> None:
        self.now_ns = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self.events_processed = 0

    # The two entry points duplicate the push on purpose: they run several
    # times per packet per hop and an extra frame each is measurable.
    def at(self, time_ns: int | float, callback: Callable[..., None], *args) -> None:
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        if type(time_ns) is not int:
            time_ns = math.ceil(time_ns)
        heapq.heappush(self._queue, (time_ns, next(self._seq), callback, args))

    def after(self, delay_ns: int | float, callback: Callable[..., None], *args) -> None:
        if type(delay_ns) is not int:
            # Round up, never down: int() truncation let sub-ns float
            # delays become instantaneous (0 ns) events.
            delay_ns = math.ceil(delay_ns)
        if delay_ns < 0:
            raise ValueError(
                f"cannot schedule in the past ({self.now_ns + delay_ns} < {self.now_ns})"
            )
        heapq.heappush(self._queue, (self.now_ns + delay_ns, next(self._seq), callback, args))

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains, the horizon passes, or
        the event budget is exhausted."""
        queue = self._queue
        pop = heapq.heappop
        if until_ns is None and max_events is None:
            # The loop below without its two per-event tests.
            while queue:
                self.now_ns, _, fn, args = pop(queue)
                fn(*args)
                self.events_processed += 1
            return
        n = 0
        while queue:
            if until_ns is not None and queue[0][0] > until_ns:
                self.now_ns = until_ns
                return
            self.now_ns, _, fn, args = pop(queue)
            fn(*args)
            self.events_processed += 1
            n += 1
            if max_events is not None and n >= max_events:
                return
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)

    @property
    def pending(self) -> int:
        return len(self._queue)
