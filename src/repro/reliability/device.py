"""The reliable NetCL device runtime.

:class:`ReliableNetCLDevice` extends :class:`~repro.runtime.device.NetCLDevice`
with the device-side half of the reliability protocol:

* **integrity** — reliable packets whose data section no longer matches
  their trailer CRC (in-network corruption) are dropped; the sender's
  retransmission recovers them;
* **at-most-once** — a :class:`~repro.reliability.dedup.DedupWindow`
  keyed by (source host, sequence number) guarantees a kernel is never
  applied twice to the same message, even for non-idempotent kernels;
* **replay** — duplicates whose original produced a forwarding decision
  get that decision replayed (fresh packet copy), so a retransmission
  still elicits the lost response without recomputing;
* **ACK** — packets carrying the ACK-request flag are acknowledged to
  the source host through the control side-channel
  (:meth:`drain_control`), which both the netsim switch and the UDP
  switch execute after the main forwarding decision.

Reliability applies only to packets *addressed to this device*; transit
no-ops forward untouched, so only the terminal computing device dedups
and acknowledges.
"""

from __future__ import annotations

from repro.runtime.device import ForwardDecision, ForwardKind, NetCLDevice
from repro.runtime.message import (
    ACT_CODES,
    NetCLPacket,
    NO_DEVICE,
    REL_ACK,
    REL_DATA,
    REL_FLAG_ACK_REQ,
)
from repro.reliability.dedup import DedupWindow, ReplayCache


class ReliableNetCLDevice(NetCLDevice):
    """A NetCL device with dedup, replay, integrity checks, and ACKs."""

    def __init__(self, *args, ordered: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.dedup = DedupWindow(ordered=ordered)
        self.replay: ReplayCache[ForwardDecision] = ReplayCache()
        self._control: list[ForwardDecision] = []
        self._accepted = self.metrics.counter("reliability.accepted")
        self._dup_drops = self.metrics.counter("reliability.dup_drops")
        self._replays = self.metrics.counter("reliability.replays")
        self._corrupt_drops = self.metrics.counter("reliability.corrupt_drops")
        self._stale_drops = self.metrics.counter("reliability.stale_drops")
        self._acks_sent = self.metrics.counter("reliability.acks_sent")

    # -- lifecycle ----------------------------------------------------------------
    def reset_state(self) -> None:
        super().reset_state()
        self.dedup.reset()
        self.replay.reset()
        self._control.clear()

    def drain_control(self) -> list[ForwardDecision]:
        out, self._control = self._control, []
        return out

    # -- packet path --------------------------------------------------------------
    def process(self, packet: NetCLPacket) -> ForwardDecision:
        if packet.rel_kind is None or packet.to != self.device_id:
            return super().process(packet)
        if packet.rel_kind != REL_DATA:
            # Stray control packet at a device: consume it.
            return ForwardDecision(ForwardKind.DROP)
        if not packet.reliability_intact:
            self._corrupt_drops.inc()
            return ForwardDecision(ForwardKind.DROP)
        if packet.rel_flags & REL_FLAG_ACK_REQ:
            self._control.append(self._make_ack(packet))
            self._acks_sent.inc()
        stale_before = self.dedup.stale_rejected
        if not self.dedup.check_and_add(packet.src, packet.rel_seq):
            if self.dedup.stale_rejected > stale_before:
                # Ordered mode rejected an out-of-order (never-accepted)
                # packet: dropping it restores the per-flow FIFO the app
                # protocol assumes; no decision exists to replay.
                self._stale_drops.inc()
                return ForwardDecision(ForwardKind.DROP)
            self._dup_drops.inc()
            cached = self.replay.get(packet.src, packet.rel_seq)
            # Only unicast responses are replayed.  Re-multicasting a
            # cached decision would re-broadcast an arbitrarily old
            # result to every member (a network-duplicated trigger can
            # arrive cycles later, when slot-reuse protocols can no
            # longer tell the epoch apart); senders that genuinely lost
            # a broadcast recover through the kernel's own retransmission
            # path with a fresh sequence number.
            if cached is not None and cached.kind == ForwardKind.TO_HOST:
                self._replays.inc()
                replay_pkt = cached.packet.copy() if cached.packet is not None else None
                return ForwardDecision(cached.kind, cached.target, replay_pkt)
            return ForwardDecision(ForwardKind.DROP)
        self._accepted.inc()
        decision = super().process(packet)
        if decision.packet is not None and decision.packet.rel_kind is not None:
            # The kernel rewrote the data section; keep the trailer honest.
            decision.packet.restamp_crc()
        self.replay.put(packet.src, packet.rel_seq, decision)
        return decision

    def _make_ack(self, packet: NetCLPacket) -> ForwardDecision:
        ack = NetCLPacket(
            src=packet.src, dst=packet.src, from_=self.device_id, to=NO_DEVICE,
            comp=packet.comp, act=ACT_CODES["pass"], data=b"",
        )
        ack.stamp_reliability(REL_ACK, packet.rel_seq)
        return ForwardDecision(ForwardKind.TO_HOST, packet.src, ack)


def reliable_device(*, ordered: bool = False):
    """A device factory for :meth:`repro.deploy.AbstractTopology.realise`:
    a :class:`ReliableNetCLDevice` reporting into the network's registry."""
    return lambda device_id, compiled, metrics: ReliableNetCLDevice(
        device_id, compiled.module, compiled.kernels(), metrics=metrics, ordered=ordered
    )
