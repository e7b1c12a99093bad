"""The fault-injection engine: applies a :class:`ChaosPlan` to a network.

:class:`ChaosController` installs itself as the network's per-hop fault
injector and schedules the plan's node events on the simulator.  All
randomness comes from one RNG derived from the plan seed, and the event
queue is deterministic, so a (plan, topology, workload) triple replays
bit-identically.

Everything the controller does is counted in the network's telemetry
registry under ``chaos.*`` — injected faults are observable, never
silent.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.netsim.net import Network, NodeKey
from repro.runtime.message import NetCLPacket
from repro.chaos.plan import ChaosEvent, ChaosPlan, LinkFaults, link_name, parse_node


class ChaosConflictError(RuntimeError):
    """A controller was armed on a network another controller drives."""


class ChaosController:
    """Drives one ChaosPlan against one Network.

    A network has one fault hook, so at most one controller is armed on
    it at a time: arming a second raises :class:`ChaosConflictError`
    instead of silently replacing the first (combine faults in one plan).
    """

    def __init__(
        self, network: Network, plan: ChaosPlan, *, rng: Optional[random.Random] = None
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = rng or random.Random(f"{plan.seed}:chaos")
        m = network.metrics
        self._lost = m.counter("chaos.lost")
        self._corrupted = m.counter("chaos.corrupted")
        self._duplicated = m.counter("chaos.duplicated")
        self._reordered = m.counter("chaos.reordered")
        self._jitter_ns = m.counter("chaos.jitter_ns")
        self._events_fired = m.counter("chaos.events_fired")
        self._armed = False

    def arm(self) -> "ChaosController":
        """Install the fault hook and schedule all plan events."""
        if self._armed:
            return self
        if self.network.fault_injector is not None:
            raise ChaosConflictError(
                "another ChaosController is already armed on this network; "
                "disarm it first or put both fault models in one ChaosPlan"
            )
        self._armed = True
        self.network.fault_injector = self
        now = self.network.sim.now_ns
        for event in self.plan.events:
            self.network.sim.at(max(now, event.at_ns), self._fire, event)
        return self

    def disarm(self) -> None:
        if self.network.fault_injector is self:
            self.network.fault_injector = None
        self._armed = False

    # -- scheduled events --------------------------------------------------------
    def _fire(self, event: ChaosEvent) -> None:
        self._events_fired.inc()
        if event.kind == "crash":
            self.network.crash_switch(parse_node(event.node)[1])
        elif event.kind == "restart":
            self.network.restart_switch(parse_node(event.node)[1])
        elif event.kind == "link_down":
            self.network.set_link_up(parse_node(event.a), parse_node(event.b), False)
        elif event.kind == "link_up":
            self.network.set_link_up(parse_node(event.a), parse_node(event.b), True)

    # -- per-hop fault hook (called by Network._hop) ------------------------------
    def on_transmit(
        self, at: NodeKey, nxt: NodeKey, packet: NetCLPacket, delay_ns: int
    ) -> list[tuple[int, NetCLPacket]]:
        """Returns the (delay, packet) deliveries for this transmission —
        empty for a loss, two entries for a duplication."""
        faults = self.plan.faults_for(at, nxt)
        if faults is None:
            return [(delay_ns, packet)]
        rng = self.rng
        if faults.loss and rng.random() < faults.loss:
            self._lost.inc()
            self.network.metrics.counter(f"chaos.lost.{link_name(at, nxt)}").inc()
            return []
        pkt = packet
        if faults.corrupt and packet.data and rng.random() < faults.corrupt:
            pkt = self._corrupt(packet)
        delay = delay_ns
        if faults.jitter_ns:
            extra = rng.randrange(0, faults.jitter_ns + 1)
            delay += extra
            self._jitter_ns.inc(extra)
        if faults.reorder and rng.random() < faults.reorder:
            delay += rng.randrange(1, faults.reorder_delay_ns + 1)
            self._reordered.inc()
        deliveries = [(delay, pkt)]
        if faults.duplicate and rng.random() < faults.duplicate:
            self._duplicated.inc()
            gap = rng.randrange(1, max(2, faults.reorder_delay_ns + 1))
            deliveries.append((delay + gap, pkt.copy()))
        return deliveries

    def _corrupt(self, packet: NetCLPacket) -> NetCLPacket:
        """Flip random bits in one byte of the data section (a copy)."""
        self._corrupted.inc()
        data = bytearray(packet.data)
        i = self.rng.randrange(len(data))
        data[i] ^= self.rng.randrange(1, 256)
        out = packet.copy()
        out.data = bytes(data)
        return out


def apply_faults(faults: LinkFaults, network: Network, *links) -> ChaosController:
    """One fault model on specific links (or all, if none given), armed
    immediately with the network's derived chaos RNG -- how a lossy link
    is described (``apply_faults(LinkFaults(loss=p), net, (a, b))``)."""
    plan = ChaosPlan(seed=network.seed, default_link=None if links else faults)
    for a, b in links:
        plan.links[link_name(a, b)] = faults
    controller = ChaosController(network, plan, rng=network.child_rng("chaos"))
    return controller.arm()
