"""At-most-once delivery state: sliding seen-windows and reply caches.

The device-side half of the reliable-messaging layer.  A
:class:`DedupWindow` remembers, per sender, which sequence numbers have
already been accepted so duplicated packets (network duplication, or a
sender retransmitting into a path whose first copy did get through) are
never applied twice — essential for non-idempotent kernels like AGG's
streaming aggregation.  A :class:`ReplayCache` keeps the forwarding
decision produced for recent sequence numbers so a duplicate can be
answered by *replaying* the original outcome instead of silently dropping
it (the classic at-most-once RPC reply cache, cf. NetRPC).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, TypeVar

from repro.runtime.constants import (
    DEFAULT_DEDUP_WINDOW,
    DEFAULT_REPLAY_CACHE_CAPACITY,
)

T = TypeVar("T")


class DedupWindow:
    """Per-sender sliding window of already-seen sequence numbers.

    The window is an integer bitmap of the ``window`` most recent sequence
    numbers below the highest seen.  Anything older than the window is
    conservatively treated as a duplicate: re-applying an ancient message
    is never safe, while dropping it only costs a retransmission.

    With ``ordered=True`` the window additionally enforces per-sender
    FIFO: *any* sequence number below the sender's highest accepted one
    is rejected, even if never seen.  Protocols like SwitchML's slot
    aggregation assume per-flow in-order delivery — a late out-of-order
    packet from a worker that has since advanced a round corrupts the
    version-alternating bitmap — so their device turns this on and lets
    the sender's (fresh-sequence) retransmission recover the message.
    """

    def __init__(
        self, window: int = DEFAULT_DEDUP_WINDOW, *, ordered: bool = False
    ) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.ordered = ordered
        #: stale (older-than-high, never seen) packets rejected by ordered
        #: mode — distinct from true duplicates for telemetry.
        self.stale_rejected = 0
        #: sender id -> (highest seq seen, bitmap over [high - window, high])
        self._state: dict[int, tuple[int, int]] = {}

    def check_and_add(self, sender: int, seq: int) -> bool:
        """Record ``seq`` from ``sender``; returns True iff it is new."""
        entry = self._state.get(sender)
        if entry is None:
            self._state[sender] = (seq, 1)
            return True
        high, bits = entry
        if seq > high:
            shift = seq - high
            if shift >= self.window:
                bits = 1
            else:
                bits = ((bits << shift) | 1) & ((1 << self.window) - 1)
            self._state[sender] = (seq, bits)
            return True
        offset = high - seq
        if offset >= self.window:
            return False  # beyond the window: assume already seen
        if (bits >> offset) & 1:
            return False
        if self.ordered:
            self.stale_rejected += 1
            return False
        self._state[sender] = (high, bits | (1 << offset))
        return True

    def reset(self) -> None:
        self._state.clear()


class ReplayCache(Generic[T]):
    """Bounded map from (sender, seq) to the outcome produced for it."""

    def __init__(self, capacity: int = DEFAULT_REPLAY_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple[int, int], T]" = OrderedDict()

    def put(self, sender: int, seq: int, outcome: T) -> None:
        key = (sender, seq)
        self._entries[key] = outcome
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, sender: int, seq: int) -> Optional[T]:
        return self._entries.get((sender, seq))

    def reset(self) -> None:
        self._entries.clear()
