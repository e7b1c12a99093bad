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
* Two tiers: an entry no earlier than the last one appended to the FIFO
  *lane* (a deque) is appended to it, and only an earlier one is pushed
  onto the heap.  ``seq`` only grows, so the lane is sorted by
  ``(time_ns, seq)`` and ``run`` pops the smaller of the two heads: the
  firing order is the one a single heap gives.  Open-loop sends and
  fixed timeouts are scheduled in time order, so they stay out of the
  heap unless a later entry already sits at the lane's tail.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
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
        self._lane: deque[tuple[int, int, Callable[..., None], tuple]] = deque()
        #: time of the last entry appended to the lane
        self._lane_ns = 0
        self._seq = itertools.count()
        self.events_processed = 0

    # The two entry points duplicate the push on purpose: they run several
    # times per packet per hop and an extra frame each is measurable.
    # ``Network._hop`` repeats it for the fused hop, for the same reason.
    def at(self, time_ns: int | float, callback: Callable[..., None], *args) -> None:
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        if type(time_ns) is not int:
            time_ns = math.ceil(time_ns)
        if time_ns >= self._lane_ns:
            self._lane_ns = time_ns
            self._lane.append((time_ns, next(self._seq), callback, args))
        else:
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
        time_ns = self.now_ns + delay_ns
        if time_ns >= self._lane_ns:
            self._lane_ns = time_ns
            self._lane.append((time_ns, next(self._seq), callback, args))
        else:
            heapq.heappush(self._queue, (time_ns, next(self._seq), callback, args))

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains, the horizon passes, or
        the event budget is exhausted."""
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        popleft = lane.popleft
        n = 0
        try:
            if until_ns is None and max_events is None:
                # The loop below without its two per-event tests.  While the
                # lane is not empty its head cannot change (callbacks only
                # append), so the heap drains up to it against a local.
                while lane or queue:
                    if lane:
                        head = lane[0]
                        while queue and queue[0] < head:
                            self.now_ns, _, fn, args = pop(queue)
                            fn(*args)
                            n += 1
                        self.now_ns, _, fn, args = popleft()
                    else:
                        self.now_ns, _, fn, args = pop(queue)
                    fn(*args)
                    n += 1
                return
            while lane or queue:
                tier = lane if lane and not (queue and queue[0] < lane[0]) else queue
                if until_ns is not None and tier[0][0] > until_ns:
                    self.now_ns = until_ns
                    return
                self.now_ns, _, fn, args = pop(queue) if tier is queue else popleft()
                fn(*args)
                n += 1
                if max_events is not None and n >= max_events:
                    return
            if until_ns is not None:
                self.now_ns = max(self.now_ns, until_ns)
        finally:
            # a callback that raises is not counted
            self.events_processed += n

    @property
    def pending(self) -> int:
        return len(self._queue) + len(self._lane)
