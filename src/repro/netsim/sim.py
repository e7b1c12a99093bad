"""Event queue with integer-nanosecond time.

Hot-path design (this file is under every packet of every end-to-end
benchmark):

* Heap entries are plain ``(time_ns, seq, fn, args, handle)`` tuples, so
  ``heapq`` orders them with C-level integer comparisons — no Python
  ``__lt__`` call per sift step.  ``seq`` is unique, so the tuple
  comparison never reaches the callable.
* The entry itself carries ``(fn, args)`` instead of a captured closure:
  callers schedule bound methods plus arguments
  (``sim.after(d, self._arrive, node, pkt)``), which avoids allocating a
  closure cell per event.
* ``handle`` is the :class:`Event` that ``at`` / ``after`` returned, or
  ``None`` for a :meth:`Simulator.defer` schedule nobody can cancel —
  such an event costs one tuple and nothing else.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional


class Event:
    """The cancellation handle of one scheduled callback."""

    __slots__ = ("time_ns", "seq", "cancelled", "_on_cancel")

    def __init__(self, time_ns: int, seq: int, on_cancel: Callable[[], None]) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.cancelled = False
        #: the owning Simulator's hook while the event sits in its heap (None
        #: once popped), so cancellation is accounted for without a queue scan.
        self._on_cancel: Optional[Callable[[], None]] = on_cancel

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time_ns}, seq={self.seq}{state})"


class Simulator:
    """A minimal discrete-event simulator.

    Integer nanoseconds avoid floating-point drift over long runs (the AGG
    throughput experiment simulates hundreds of milliseconds of 100G
    traffic).  Fractional delays round *up* (like
    :meth:`~repro.netsim.net.Link.serialization_ns`): truncation would let
    sub-nanosecond float delays schedule "now", making supposedly-delayed
    work instantaneous.

    Cancelled events are removed lazily: they keep their heap slot until
    popped, but a live count makes :attr:`pending` O(1), and the heap is
    compacted whenever cancelled entries outnumber live ones (timeout-heavy
    workloads like the AGG retransmission window would otherwise grow the
    heap without bound).
    """

    #: don't bother compacting heaps smaller than this.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self.now_ns = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple, Optional[Event]]] = []
        self._seq = itertools.count()
        self._cancelled_in_queue = 0
        self.events_processed = 0
        self.compactions = 0

    # The three entry points duplicate the push on purpose: they run several
    # times per packet per hop and an extra frame each is measurable.
    def at(self, time_ns: int | float, callback: Callable[..., None], *args) -> Event:
        if time_ns < self.now_ns:
            raise ValueError(f"cannot schedule in the past ({time_ns} < {self.now_ns})")
        if type(time_ns) is not int:
            time_ns = math.ceil(time_ns)
        seq = next(self._seq)
        ev = Event(time_ns, seq, self._note_cancel)
        heapq.heappush(self._queue, (time_ns, seq, callback, args, ev))
        return ev

    def after(self, delay_ns: int | float, callback: Callable[..., None], *args) -> Event:
        if type(delay_ns) is not int:
            # Round up, never down: int() truncation let sub-ns float
            # delays become instantaneous (0 ns) events.
            delay_ns = math.ceil(delay_ns)
        time_ns = self.now_ns + delay_ns if delay_ns > 0 else self.now_ns
        seq = next(self._seq)
        ev = Event(time_ns, seq, self._note_cancel)
        heapq.heappush(self._queue, (time_ns, seq, callback, args, ev))
        return ev

    def defer(self, delay_ns: int | float, callback: Callable[..., None], *args) -> None:
        """:meth:`after` for a caller that will never cancel: same time,
        same ``seq`` draw, but no :class:`Event` is built or returned."""
        if type(delay_ns) is not int:
            delay_ns = math.ceil(delay_ns)
        time_ns = self.now_ns + delay_ns if delay_ns > 0 else self.now_ns
        heapq.heappush(self._queue, (time_ns, next(self._seq), callback, args, None))

    def _note_cancel(self) -> None:
        self._cancelled_in_queue += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        In place (slice assignment): ``run()`` holds a local reference to
        the queue list, and cancels fired from inside event callbacks can
        compact mid-run — rebinding ``self._queue`` would strand the loop
        on a stale list.
        """
        self._queue[:] = [e for e in self._queue if e[4] is None or not e[4].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0
        self.compactions += 1

    def run(self, until_ns: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains, the horizon passes, or
        the event budget is exhausted."""
        queue = self._queue
        pop = heapq.heappop
        if until_ns is None and max_events is None:
            # The loop below without its two per-event tests.
            while queue:
                time_ns, _, fn, args, handle = pop(queue)
                if handle is not None:
                    handle._on_cancel = None
                    if handle.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                self.now_ns = time_ns
                fn(*args)
                self.events_processed += 1
            return
        n = 0
        while queue:
            if until_ns is not None and queue[0][0] > until_ns:
                self.now_ns = until_ns
                return
            time_ns, _, fn, args, handle = pop(queue)
            if handle is not None:
                # Out of the heap: a later cancel() must not touch our accounting.
                handle._on_cancel = None
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
            self.now_ns = time_ns
            fn(*args)
            self.events_processed += 1
            n += 1
            if max_events is not None and n >= max_events:
                return
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)

    @property
    def pending(self) -> int:
        return len(self._queue) - self._cancelled_in_queue
