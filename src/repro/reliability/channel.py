"""Host-side reliable messaging over the simulated runtime.

:class:`ReliableChannel` wraps one simulated :class:`~repro.netsim.net.Host`
and gives its application sequence-numbered sends with ACK tracking,
retransmission on an exponential-backoff timer, receive-side duplicate
suppression, and a reply cache for request/response protocols:

* :meth:`request` — send a kernel message with a fresh sequence number.
  With ``retransmit=True`` the channel re-sends until a reply carrying
  the same sequence number arrives (or retries are exhausted); with
  ``retransmit=False`` the message is tracked for ACK/latency telemetry
  only and the application drives its own recovery (AGG's slot protocol).
  A tracking entry arms no timer: it is live until its deadline, and
  every read of it treats an expired entry as gone.
* :meth:`send_reply` — answer an incoming reliable request with one
  packet, echoing its sequence number so the requester's channel
  completes the exchange, and caching the reply so a duplicated/
  retransmitted request is answered by replaying it instead of re-running
  the (possibly non-idempotent) application handler.
* :meth:`retarget` — point all future transmissions (and immediately
  re-send everything outstanding) at a different device: the sender half
  of control-plane failover.

The channel interposes on ``host.on_receive``: construct it *after* the
application has installed its handler; reliability control traffic is
consumed, everything else is passed through exactly once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.netsim.net import Host, Network
from repro.runtime.message import (
    ACT_CODES,
    KernelSpec,
    NetCLPacket,
    NO_DEVICE,
    REL_ACK,
    REL_DATA,
    REL_FLAG_ACK_REQ,
    REL_FLAG_REPLY,
)
from repro.reliability.dedup import DedupWindow, ReplayCache
from repro.runtime.constants import DEFAULT_REPLY_CACHE_CAPACITY

_PASS = ACT_CODES["pass"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Retransmission timing: exponential backoff with a cap."""

    base_timeout_ns: int = 300_000
    factor: float = 2.0
    max_timeout_ns: int = 5_000_000
    max_retries: int = 10

    def timeout_ns(self, attempt: int) -> int:
        return min(int(self.base_timeout_ns * self.factor**attempt), self.max_timeout_ns)


@dataclass
class _Pending:
    seq: int
    template: Optional[NetCLPacket]  #: ``None``: tracking entries are never re-sent
    sent_ns: int
    retransmit: bool
    attempts: int = 0
    #: when the current timeout actually expires; the timer event may
    #: wake earlier (see ReliableChannel._arm) and re-sleeps until this.
    #: A tracking entry arms no timer and is live only before it.
    deadline_ns: int = 0
    #: whether a timer event for this send sits in the simulator.
    armed: bool = False


class ReliableChannel:
    """Reliable sequence-numbered messaging for one simulated host."""

    def __init__(
        self,
        network: Network,
        host: Host,
        spec: KernelSpec,
        *,
        target_device: int,
        comp: int = 1,
        policy: Optional[BackoffPolicy] = None,
        ack: bool = True,
    ) -> None:
        self.network = network
        self.host = host
        self.spec = spec
        self.target_device = target_device
        self.comp = comp
        self.policy = policy or BackoffPolicy()
        self.ack = ack
        self.pending: dict[int, _Pending] = {}
        self._seq = itertools.count(1)
        self._app_receive = host.on_receive
        host.on_receive = self._handle
        self._recv_window = DedupWindow()
        #: (sender, seq) -> the reply sent for that request.
        self._replies: ReplayCache[NetCLPacket] = ReplayCache(DEFAULT_REPLY_CACHE_CAPACITY)
        m = network.metrics
        tag = f"h{host.host_id}"
        self._sent = m.counter(f"reliability.ch.sent.{tag}")
        self._retransmits = m.counter(f"reliability.ch.retransmits.{tag}")
        self._completed = m.counter(f"reliability.ch.completed.{tag}")
        self._expired = m.counter(f"reliability.ch.expired.{tag}")
        self._acks = m.counter(f"reliability.ch.acks.{tag}")
        self._dup_rx = m.counter(f"reliability.ch.dup_rx_dropped.{tag}")
        self._reply_replays = m.counter(f"reliability.ch.reply_replays.{tag}")
        self._corrupt_rx = m.counter(f"reliability.ch.corrupt_rx_dropped.{tag}")
        self._rtt = m.histogram(f"reliability.ch.rtt_ns.{tag}")

    # -- sending -------------------------------------------------------------------
    def request(
        self,
        values,
        *,
        dst: int,
        retransmit: bool = True,
        spec: Optional[KernelSpec] = None,
        comp: Optional[int] = None,
    ) -> int:
        """Send a sequence-numbered kernel message; returns the seq.

        ``spec``/``comp`` override the channel defaults per request, for
        applications that multiplex several computations (with distinct
        message layouts) over one host's channel — e.g. the collective
        workers' expmax + reduce streams.
        """
        seq = next(self._seq)
        packet = NetCLPacket.build(
            self.host.host_id, dst, NO_DEVICE, self.target_device,
            self.comp if comp is None else comp, _PASS,
            (self.spec if spec is None else spec).plan.encode(values),
        )
        packet.stamp_reliability(REL_DATA, seq, REL_FLAG_ACK_REQ if self.ack else 0)
        now = self.network.sim.now_ns
        if retransmit:
            self.pending[seq] = _Pending(seq, packet, now, True)
            self._transmit(seq)
            return seq
        self._sweep(now)
        deadline = now + self.policy.timeout_ns(0)
        self.pending[seq] = _Pending(seq, None, now, False, deadline_ns=deadline)
        self.host.send_packet(packet)
        self._sent.inc()
        return seq

    def _transmit(self, seq: int) -> None:
        p = self.pending.get(seq)
        if p is None:
            return
        p.template.to = self.target_device
        self.host.send_packet(p.template.copy())
        self._sent.inc()
        self._arm(p)

    def _arm(self, p: _Pending) -> None:
        # Deadline-based re-arm: moving the deadline re-uses a live timer
        # event (it wakes at its old time, sees the deadline moved, and
        # re-sleeps) instead of scheduling a fresh one per transmission.
        p.deadline_ns = self.network.sim.now_ns + self.policy.timeout_ns(p.attempts)
        if not p.armed:
            p.armed = True
            self.network.sim.at(p.deadline_ns, self._timer_fire, p)

    def _timer_fire(self, p: _Pending) -> None:
        if self.pending.get(p.seq) is not p:
            return  # completed or discarded while the timer slept
        now = self.network.sim.now_ns
        if now < p.deadline_ns:
            # Spurious wake: the deadline moved while we slept.
            self.network.sim.at(p.deadline_ns, self._timer_fire, p)
            return
        p.armed = False
        p.attempts += 1
        if p.attempts > self.policy.max_retries:
            self.pending.pop(p.seq, None)
            self._expired.inc()
            return
        self._retransmits.inc()
        self._transmit(p.seq)

    def send_reply(
        self,
        request: NetCLPacket,
        values,
        *,
        comp: Optional[int] = None,
        spec: Optional[KernelSpec] = None,
    ) -> None:
        """Answer a reliable request with one packet, echoing its sequence
        number; the reply is cached, so a duplicated request replays it."""
        reply = NetCLPacket.build(
            self.host.host_id, request.src, NO_DEVICE, NO_DEVICE,
            self.comp if comp is None else comp, _PASS,
            (self.spec if spec is None else spec).plan.encode(values),
        )
        reply.stamp_reliability(REL_DATA, request.rel_seq, REL_FLAG_REPLY)
        self._replies.put(request.src, request.rel_seq, reply)
        self.host.send_packet(reply.copy())

    # -- tracking entries ------------------------------------------------------------
    # A tracking entry is live while ``now < deadline_ns``: a timer would
    # fire at the deadline before anything the send caused.
    def _live(self, seq: int) -> Optional[_Pending]:
        """The entry for ``seq``; an expired tracking entry is dropped."""
        p = self.pending.get(seq)
        if p is not None and not p.retransmit and self.network.sim.now_ns >= p.deadline_ns:
            del self.pending[seq]
            return None
        return p

    def _sweep(self, now: int) -> None:
        """Drop the expired tracking entries.  They sit in send order,
        which is deadline order, so the first live one ends the sweep."""
        expired = []
        for seq, p in self.pending.items():
            if not p.retransmit:
                if now < p.deadline_ns:
                    break
                expired.append(seq)
        for seq in expired:
            del self.pending[seq]

    def forget(self, seq: int) -> None:
        """Stop tracking ``seq`` (an application abandoned the send)."""
        self.pending.pop(seq, None)

    # -- completion / failover -----------------------------------------------------
    def _complete(self, seq: int) -> None:
        p = self._live(seq)
        if p is None:
            return
        del self.pending[seq]
        self._completed.inc()
        self._rtt.observe(self.network.sim.now_ns - p.sent_ns)

    def retarget(self, device_id: int) -> None:
        """Point at a different device (failover).

        Retransmit-mode requests are immediately re-sent at the new
        target.  ACK-tracking-only requests (``retransmit=False``) are
        discarded instead: their ACKs died with the old target, and the
        application protocol owns recovery — blindly replaying stale
        sends onto a fresh device can violate app invariants (e.g. AGG's
        version-alternating bitmap, where an old-round contribution
        clears the other version's bit).
        """
        self.target_device = device_id
        for seq, p in list(self.pending.items()):
            if p.retransmit:
                self._transmit(seq)
            else:
                self.pending.pop(seq, None)

    @property
    def outstanding(self) -> int:
        self._sweep(self.network.sim.now_ns)
        return len(self.pending)

    # -- receiving -----------------------------------------------------------------
    def _handle(self, packet: NetCLPacket, now_ns: int) -> None:
        kind = packet.rel_kind
        if kind is None:
            self._deliver(packet, now_ns)
            return
        if not packet.reliability_intact:
            self._corrupt_rx.inc()
            return
        if kind == REL_ACK:
            p = self._live(packet.rel_seq)
            if p is not None:
                self._acks.inc()
                if not p.retransmit:
                    self._complete(packet.rel_seq)
            return
        seq = packet.rel_seq
        # A reply (flagged by the responder, or our own message coming
        # back via reflect/multicast) completes the matching request.
        # Retransmission control and app delivery are decoupled: delivery
        # is deduped by (sender, seq) regardless of how — or whether —
        # the exchange completed (e.g. an ACK may complete an AGG send
        # before its multicast result arrives; the result must still be
        # delivered exactly once).
        is_reply = bool(packet.rel_flags & REL_FLAG_REPLY) or packet.src == self.host.host_id
        if is_reply:
            self._complete(seq)
        if not self._recv_window.check_and_add(packet.src, seq):
            self._dup_rx.inc()
            if not is_reply:
                # A duplicated/retransmitted request we already answered:
                # replay the cached reply instead of re-running the app.
                cached = self._replies.get(packet.src, seq)
                if cached is not None:
                    self._reply_replays.inc()
                    self.host.send_packet(cached.copy())
            return
        self._deliver(packet, now_ns)

    def _deliver(self, packet: NetCLPacket, now_ns: int) -> None:
        if self._app_receive is not None:
            self._app_receive(packet, now_ns)
