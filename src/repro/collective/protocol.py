"""The shared windowed slot-stream protocol core (SwitchML-style).

This is AGG's worker machinery (§VII, Fig. 14) factored out so every
in-network aggregation protocol — AGG's single-switch integer sum and
the hierarchical collectives in :mod:`repro.collective` — runs the same
host-side engine:

* a tensor is streamed as fixed-size *rounds* (AGG calls them chunks)
  over a window of protocol *slots*;
* each slot carries an alternating version bit, so the switch keeps the
  previously completed aggregate available for retransmission while the
  next round builds in the other version (no worker can be more than one
  round ahead of another);
* lost results are recovered by re-sending the contribution — the
  switch-side ``cnt == 0`` path answers with the completed aggregate;
* after a failover or a tenant migration the control plane calls
  :func:`resync_streams` to rebuild in-flight rounds on the replacement.

Subclasses define ``_chunk_payload(chunk)`` (the wire fields after the
4-field slot header, or ``None`` to park the round until its data is
ready) and ``_accept_result(chunk, values)`` (consume one completed
round); the wire layout is always ``[ver, bmp_idx, agg_idx, mask,
*payload]``.

The module also owns stall diagnostics: a run that ends incomplete can
name *which* workers and rounds are missing (:class:`StallError`)
instead of failing a bare completion assert — and the run
lifecycle every cluster of such workers shares (:class:`SlotCluster`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.runtime import KernelSpec, Message
from repro.runtime.constants import DEFAULT_SLOT_TIMEOUT_NS, NUM_SLOTS
from repro.runtime.message import NetCLPacket, unpack_packet


@dataclass
class StreamStats:
    """Per-stream protocol statistics (the shape AGG always exposed)."""

    elements_aggregated: int = 0
    chunks_completed: int = 0
    retransmissions: int = 0
    finished_at_ns: Optional[int] = None


class StallError(RuntimeError):
    """A run ended with incomplete workers.

    ``reports`` holds one line per stalled worker naming the missing
    rounds and the slots still in flight — the diagnostics a bare
    completion assert never gave.
    """

    def __init__(self, message: str, reports: list[str]):
        super().__init__(message)
        self.reports = reports


def stall_reports(workers, *, what: str = "worker", label: str = "chunk") -> list[str]:
    """One diagnostic line per incomplete worker (empty when all done).

    ``workers`` is any iterable of objects with a ``stall_report``
    method (:class:`SlotStream`, ``AggWorker``, ``CollectiveWorker``).
    """
    reports = []
    for w in workers:
        r = w.stall_report(label=label)
        if r is not None:
            reports.append(f"{what} {getattr(w, 'worker_index', '?')}: {r}")
    return reports


def raise_stalled(reports: list[str], *, what: str = "worker") -> None:
    """Raise :class:`StallError` if ``reports`` names any stalled ``what``."""
    if reports:
        raise StallError(
            f"{len(reports)} {what}(s) stalled:\n  " + "\n  ".join(reports),
            reports,
        )


def require_all_done(workers, *, what: str = "worker", label: str = "chunk") -> None:
    """Raise :class:`StallError` naming every incomplete worker."""
    raise_stalled(stall_reports(workers, what=what, label=label), what=what)


def resync_streams(streams) -> None:
    """Restart the slots of ``streams`` after their switch lost its state.

    ``streams`` are the slot streams contributing to the same
    switch slots (``None`` entries — a worker with no job yet — are
    skipped).  A crashed or migrated switch took the in-flight partial
    aggregates with it, and the control plane does not know how far each
    had got, so every slot restarts at the earliest round any stream
    still has in flight there.  Streams already past it re-contribute
    (their data is still at hand); a re-contribution that lands on a
    completed slot is answered with the held result, which simply
    advances the stream again.  Nothing in flight means nothing to do.
    """
    live = [s for s in streams if s is not None]
    flights = [s.in_flight() for s in live]
    for slot in sorted(set().union(*flights)):
        base = min(f[slot] for f in flights if slot in f)
        for s in live:
            s.resync_slot(slot, base)


class SlotCluster:
    """The run lifecycle of a set of slot-stream workers on one network.

    Subclasses provide ``network`` and ``workers`` (anything with
    ``start``, ``done``, ``worker_index`` and ``stall_report``);
    ``what`` is how a stall report names one worker.
    """

    what = "worker"
    _started = False

    def run(self, until_ms: float = 200.0, *, require_done: bool = False) -> None:
        """Start the workers (once per job) and drive the simulation;
        ``require_done`` raises a diagnostic :class:`StallError` on a
        stall.

        The horizon is *relative* to the current simulated time (the
        simulator clock is advanced to the horizon even when the event
        queue drains, so an absolute horizon would make every run after
        the first a no-op)."""
        if not self._started:
            for w in self.workers:
                w.start()
            self._started = True
        sim = self.network.sim
        sim.run(until_ns=sim.now_ns + int(until_ms * 1e6))
        if require_done:
            self.require_done()

    def require_done(self) -> None:
        require_all_done(self.workers, what=self.what, label="chunk")

    def stall_report(self) -> list[str]:
        """One diagnostic line per incomplete worker (empty when done)."""
        return stall_reports(self.workers, what=self.what)


class SlotStream:
    """One host's windowed, version-alternating slot stream.

    The round currently riding slot ``s`` is always ``s + k*window``;
    round ``r``'s version bit is ``(r // window) & 1`` and its state
    index at the switch is ``ver * num_slots + slot``.
    """

    def __init__(
        self,
        network,
        host_id: int,
        worker_index: int,
        spec: KernelSpec,
        num_rounds: int,
        *,
        window: int = 16,
        timeout_ns: int = DEFAULT_SLOT_TIMEOUT_NS,
        device_id: int,
        comp: int = 1,
        slot_base: int = 0,
        install_handler: bool = True,
    ) -> None:
        self.network = network
        self.host = network.hosts[host_id]
        if install_handler:
            self.host.on_receive = self._on_receive
        self.host_id = host_id
        self.worker_index = worker_index
        self.spec = spec
        self.num_rounds = num_rounds
        self.num_chunks = num_rounds  # AGG-compatible alias
        #: first switch slot this stream owns.  Collectives share slots
        #: (every worker contributes to the same rounds); independent
        #: streams multiplexed onto one switch (repro.rpc clients) each
        #: take a disjoint ``[slot_base, slot_base + window)`` range so
        #: their rounds never collide in the slot registers.
        self.slot_base = slot_base
        self.window = min(window, NUM_SLOTS - slot_base)
        if self.window < 1:
            raise ValueError(
                f"slot_base {slot_base} leaves no slots of {NUM_SLOTS}"
            )
        self.timeout_ns = timeout_ns
        self.device_id = device_id
        self.comp = comp
        self.num_slots = NUM_SLOTS
        #: optional repro.reliability channel: sends then carry sequence
        #: numbers so the switch's dedup window filters network-duplicated
        #: packets (the worker keeps driving its own retransmissions, each
        #: with a fresh sequence number).
        self.channel = None
        #: channel seq -> (slot, round) it carried, to reject responses to
        #: sends that are no longer current (a reflect answering a stale
        #: retransmission can arrive a full version cycle late, when the
        #: version bit alone can no longer distinguish it).
        self._sent_seqs: dict[int, tuple[int, int]] = {}
        #: (slot, ver) -> the last aggregate accepted there.  When we
        #: complete a round through a reflect, the broadcast copy of that
        #: same result may still be in flight; if it lands a full version
        #: cycle later the version bit matches again, so we recognize the
        #: zombie by its payload (results carry no round identity).
        self._last_result: dict[tuple[int, int], list[int]] = {}
        self.stats = StreamStats()
        #: slot -> round currently in flight on that slot (or None)
        self._slot_chunk: dict[int, Optional[int]] = {}
        self._done_chunks: set[int] = set()
        #: slot -> token of the one timeout that may still act on it.  A
        #: re-arm (a resync can re-send a round whose timeout is live) or
        #: the stream finishing supersedes the older ones: they fire as
        #: no-ops.
        self._live_timeout: dict[int, int] = {}
        self._tokens = itertools.count()

    # -- subclass hooks -----------------------------------------------------------
    def _result_key(self, values: list) -> list:
        """Payload identity used by the zombie-broadcast filter."""
        last = values[-1]
        return list(last) if isinstance(last, list) else [last]

    def _result_round(self, values: list) -> Optional[int]:
        """Round identity echoed by the wire format, if it carries one.

        AGG's format does not (results are matched by slot/version and
        payload); the collective format echoes the sender's round tag, so
        stale broadcasts are rejected exactly instead of heuristically.
        """
        return None

    def _on_finished(self) -> None:
        """All rounds completed (called once, timeouts already void)."""

    # -- protocol -----------------------------------------------------------------
    def start(self) -> None:
        for slot in range(self.window):
            self._send_chunk(slot, slot)

    def _send_chunk(self, slot: int, chunk: int) -> None:
        if chunk >= self.num_rounds:
            self._slot_chunk[slot] = None
            self._check_done()
            return
        self._slot_chunk[slot] = chunk
        payload = self._chunk_payload(chunk)
        if payload is None:
            return  # parked: no timeout until the payload exists
        round_ = chunk // self.window
        ver = round_ & 1
        gslot = self.slot_base + slot
        head = [
            ver,
            gslot,  # bmp_idx
            ver * self.num_slots + gslot,  # agg_idx
            1 << self.worker_index,  # mask
        ]
        if self.channel is not None:
            seq = self.channel.request(
                head + payload,
                dst=self.host_id,
                retransmit=False,
                spec=self.spec,
                comp=self.comp,
            )
            self._sent_seqs[seq] = (slot, chunk)
        else:
            msg = Message(
                src=self.host_id, dst=self.host_id, comp=self.comp, to=self.device_id
            )
            self.host.send_message(msg, self.spec, head + payload)
        token = self._live_timeout[slot] = next(self._tokens)
        self.network.sim.after(self.timeout_ns, self._timeout, slot, chunk, token)

    def _timeout(self, slot: int, chunk: int, token: int) -> None:
        if self._live_timeout.get(slot) == token and self._slot_chunk.get(slot) == chunk:
            self.stats.retransmissions += 1
            self._send_chunk(slot, chunk)

    def resync_slot(self, slot: int, chunk: int) -> None:
        """Failover resynchronization: restart ``slot`` at ``chunk``.

        After a switch crash the aggregation state for in-flight rounds
        is gone; every worker must re-contribute from the earliest round
        any worker still needs on each slot — including rounds this
        worker already completed (its data is still available, and
        re-receiving a completed result simply advances the slot again).
        """
        if chunk >= self.num_rounds:
            return
        self._send_chunk(slot, chunk)

    def _on_receive(self, packet: NetCLPacket, now_ns: int) -> None:
        self.handle(packet, now_ns)

    def handle(self, packet: NetCLPacket, now_ns: int) -> None:
        values = unpack_packet(packet, self.spec)
        ver, bmp_idx, agg_idx = values[0], values[1], values[2]
        slot = bmp_idx - self.slot_base
        if slot < 0:
            return  # another stream's slot range
        if packet.rel_kind is not None and packet.src == self.host_id:
            # A response on our own flow (reflect, or the multicast our
            # send triggered): only the send still in flight on its slot
            # may complete it.  Other workers' flows reuse the same
            # sequence numbers, so the map applies only to our src.
            origin = self._sent_seqs.pop(packet.rel_seq, None)
            if origin is not None and self._slot_chunk.get(origin[0]) != origin[1]:
                return  # answers a send this slot has moved past
        chunk = self._slot_chunk.get(slot)
        if chunk is None:
            return
        expected_ver = (chunk // self.window) & 1
        if ver != expected_ver or agg_idx != expected_ver * self.num_slots + bmp_idx:
            return  # stale duplicate from an earlier round
        tag = self._result_round(values)
        if tag is not None and tag != (chunk & 0xFFFF):
            return  # result of an older round that wrapped the version bit
        key = self._result_key(values)
        if packet.src != self.host_id and self._last_result.get((slot, ver)) == key:
            return  # zombie broadcast of a result we already completed
        self._last_result[(slot, ver)] = key
        if chunk in self._done_chunks:
            # A resynced slot re-received an already-held result: advance.
            self._send_chunk(slot, chunk + self.window)
            return
        self._done_chunks.add(chunk)
        self.stats.chunks_completed += 1
        self._accept_result(chunk, values)
        self._send_chunk(slot, chunk + self.window)

    def _check_done(self) -> None:
        if len(self._done_chunks) == self.num_rounds and self.stats.finished_at_ns is None:
            self.stats.finished_at_ns = self.network.sim.now_ns
            self._live_timeout.clear()
            self._on_finished()

    @property
    def done(self) -> bool:
        return len(self._done_chunks) == self.num_rounds

    def in_flight(self) -> dict[int, int]:
        """slot -> the round riding it now, in slot order (idle slots
        omitted)."""
        return {s: c for s, c in sorted(self._slot_chunk.items()) if c is not None}

    # -- diagnostics --------------------------------------------------------------
    def incomplete_chunks(self) -> list[int]:
        """Rounds not yet completed (empty when done)."""
        return sorted(set(range(self.num_rounds)) - self._done_chunks)

    def stall_report(self, *, label: str = "chunk") -> Optional[str]:
        """One-line diagnosis of what this stream is still missing."""
        if self.done:
            return None
        missing = self.incomplete_chunks()
        shown = ", ".join(str(c) for c in missing[:12])
        if len(missing) > 12:
            shown += f" … +{len(missing) - 12} more"
        return (
            f"{len(missing)}/{self.num_rounds} {label}s missing [{shown}]; "
            f"in flight (slot->{label}): {self.in_flight()}"
        )
