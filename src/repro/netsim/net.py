"""Hosts, switches, links, and routing.

Nodes are keyed by ``(kind, id)`` with ``kind`` in ``{"h", "d"}`` — host
ids and device ids are separate namespaces, matching the NetCL system
model (§IV).  Packets move hop by hop: every switch on the path invokes
its NetCL device runtime, which either computes (when the packet's ``to``
matches) or forwards it as a no-op — exactly the base-program behavior of
§VI-C.  Routing uses shortest paths over the topology graph
(:class:`repro.netsim.graph.Graph`).

Observability (``repro.telemetry``): every network owns a
:class:`MetricRegistry` with per-link tx counters, per-node rx/tx
counters, and drops broken down by cause; ``packets_dropped`` /
``packets_lost`` are views over those counters.  A run is bit-identical
per seed, so a run is explained by re-running it, not by per-hop records.

Hot-path design (see DESIGN.md "Simulator performance"):

* Per-hop work schedules bound methods with arguments (no closures), and
  per-link instruments are pre-resolved into :class:`_LinkStats`.
* One event per hop on the fault-free path: a packet's link arrival and
  its switch pipeline (or host receive) are a single event.
* Routing is a per-source next-hop cache under one rule: **any topology
  change clears every cached table, and each table is rebuilt lazily by
  the source that next forwards** (``route_rebuilds`` counts the work).
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.netsim.graph import Graph
from repro.netsim.sim import Simulator
from repro.runtime.device import ForwardDecision, ForwardKind, NetCLDevice
from repro.runtime.message import KernelSpec, Message, NetCLPacket, NO_DEVICE
from repro.telemetry import MetricRegistry

NodeKey = tuple[str, int]

_TO_HOST = ForwardKind.TO_HOST
_TO_DEVICE = ForwardKind.TO_DEVICE


def HOST(i: int) -> NodeKey:
    return ("h", i)


def DEVICE(i: int) -> NodeKey:
    return ("d", i)


def node_name(node: NodeKey) -> str:
    """``("h", 1)`` -> ``"h1"``, ``("d", 2)`` -> ``"d2"``."""
    return f"{node[0]}{node[1]}"


@dataclass(slots=True)
class Link:
    """One link's physical parameters.  Faults (loss, duplication, ...)
    are not a property of the link: they come only from a
    :class:`repro.chaos.ChaosPlan` (``apply_faults``)."""

    latency_ns: int = 1000
    bandwidth_gbps: float = 100.0

    def serialization_ns(self, size_bytes: int) -> int:
        # Gbps == bits/ns.  Round *up*: flooring lets small packets on fast
        # links serialize in 0 ns, making back-to-back sends instantaneous.
        # Any packet on the wire occupies it for at least 1 ns.
        return max(1, math.ceil(size_bytes * 8 / self.bandwidth_gbps))


@dataclass
class _LinkStats:
    """Pre-resolved per-link state (hot path: attribute access only)."""

    link: Link
    tx_packets: object
    tx_bytes: object
    lost: object
    #: memo of latency + serialization for the last packet size seen on
    #: this link (traffic is overwhelmingly same-sized within a run).
    cost_size: int = -1
    cost_ns: int = 0


class Host:
    """An end host running NetCL host code.

    A host with an ``on_receive`` handler hands each delivered packet to
    it and keeps nothing; only a sink (no handler) records its packets in
    ``received`` as ``(time_ns, packet)``, so a long run pins no packet
    its handler has consumed.
    """

    def __init__(self, network: "Network", host_id: int) -> None:
        self.network = network
        self.host_id = host_id
        self.key = HOST(host_id)
        self.on_receive: Optional[Callable[[NetCLPacket, int], None]] = None
        self.received: list[tuple[int, NetCLPacket]] = []
        #: host-side per-packet processing overhead (NIC + kernel + app).
        self.rx_overhead_ns = 1500
        self.tx_overhead_ns = 1500
        #: when True, overheads model a single-core packet path: each
        #: packet *occupies* the host for its overhead window, so a burst
        #: of N arrivals (or departures) serializes instead of overlapping.
        #: Off by default — workloads that care about host packet-rate
        #: limits (e.g. repro.rpc's fan-out comparison) opt in on both
        #: sides of their comparison.
        self.serialize_overheads = False
        self._tx_free_ns = 0
        self._rx_free_ns = 0
        self._rx_packets = network.metrics.counter(f"node.rx_packets.h{host_id}")
        self._tx_packets = network.metrics.counter(f"node.tx_packets.h{host_id}")
        #: what a fused hop schedules, bound once instead of once per hop
        self._fused_event = self._rx_up

    # -- sending -------------------------------------------------------------------
    def send_message(
        self, msg: Message, spec: KernelSpec, values, *, delay_ns: int = 0
    ) -> NetCLPacket:
        """``send()``: pack a message and push it into the network."""
        packet = NetCLPacket.from_message(msg, spec, values)
        self.send_packet(packet, delay_ns=delay_ns)
        return packet

    def send_packet(self, packet: NetCLPacket, *, delay_ns: int = 0) -> None:
        self._tx_packets.value += 1
        overhead = self.tx_overhead_ns
        if self.serialize_overheads:
            now = self.network.sim.now_ns + delay_ns
            start = max(now, self._tx_free_ns)
            self._tx_free_ns = start + overhead
            overhead += start - now
        self.network.sim.after(
            delay_ns + overhead, self.network.inject, self.key, packet
        )

    # -- receiving -------------------------------------------------------------------
    def deliver(self, packet: NetCLPacket) -> None:
        overhead = self.rx_overhead_ns
        if self.serialize_overheads:
            now = self.network.sim.now_ns
            start = max(now, self._rx_free_ns)
            self._rx_free_ns = start + overhead
            overhead += start - now
        self.network.sim.after(overhead, self._rx_up, packet)

    def _rx_up(self, packet: NetCLPacket) -> None:
        self._rx_packets.value += 1
        now = self.network.sim.now_ns
        if self.on_receive is None:
            self.received.append((now, packet))
        else:
            self.on_receive(packet, now)


class Switch:
    """A switch node wrapping one NetCL device runtime."""

    def __init__(
        self,
        network: "Network",
        device: NetCLDevice,
        *,
        processing_ns: int = 400,
    ) -> None:
        self.network = network
        self.device = device
        self.key = DEVICE(device.device_id)
        #: per-packet pipeline latency (from the Fig. 13 model when the
        #: program was fitted; a default otherwise).
        self.processing_ns = processing_ns
        self._rx_packets = network.metrics.counter(f"node.rx_packets.d{device.device_id}")
        #: a device that queues control packets (reliability ACKs) drains
        #: them after each forwarding decision; the others define no drain
        self._drain_control = getattr(device, "drain_control", None)
        #: what a fused hop schedules, bound once instead of once per hop
        self._fused_event = self._pipeline_done

    def deliver(self, packet: NetCLPacket) -> None:
        self._rx_packets.value += 1
        # Tofino pipelines are full line-rate: processing adds latency but
        # never becomes a throughput bottleneck, so packets pipeline freely.
        self.network.sim.after(self.processing_ns, self._pipeline_done, packet, False)

    def _pipeline_done(self, packet: NetCLPacket, fused: bool = True) -> None:
        """The packet leaves the pipeline.  A ``fused`` event (the
        fault-free hop) is also its link arrival: it counts the receive,
        and since the switch's state is only known now, a crash or a
        removal anywhere in the hop drops the packet here, counted.  After
        :meth:`deliver` a crash inside the pipeline drops it uncounted."""
        network = self.network
        key = self.key
        if fused:
            self._rx_packets.value += 1
        if key in network._down:
            if fused:
                network._drop_node_down.inc()
            return
        if fused and network.switches.get(key[1]) is not self:
            network._drop_unknown_node.inc()
            return
        decision = self.device.process(packet)
        kind = decision.kind
        out = decision.packet
        if out is not None and (kind is _TO_HOST or kind is _TO_DEVICE):
            # The unicast case of execute_decision, in this frame.
            target = decision.target
            if kind is _TO_HOST:
                out.dst = target
                out.to = NO_DEVICE
                toward = ("h", target)
            else:
                out.to = target
                toward = ("d", target)
            if toward == key:
                network._arrive(key, out)
            else:
                network._hop(key, toward, out)
        else:
            network.execute_decision(key, decision)
        if self._drain_control is not None:
            for extra in self._drain_control():
                network.execute_decision(key, extra)


def pipeline_latency_ns(compiled, fallback: int = 500) -> int:
    """The ``processing_ns`` of a switch running ``compiled``: the Fig. 13
    latency model's total when the program was fitted, else ``fallback``."""
    return int(compiled.report.latency.total_ns) if compiled.report else fallback


class Network:
    def __init__(
        self,
        sim: Optional[Simulator] = None,
        *,
        seed: int = 1,
        metrics: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim or Simulator()
        self.graph = Graph()
        self.hosts: dict[int, Host] = {}
        self.switches: dict[int, Switch] = {}
        self.links: dict[frozenset, Link] = {}
        self.multicast_groups: dict[int, list[NodeKey]] = {}
        self.seed = seed
        #: per-source next-hop tables, filled lazily on demand.  An entry
        #: carries the stats of the link to its next hop; every topology
        #: change clears every table, so the pair can never go stale.
        self._routes: dict[NodeKey, dict[NodeKey, tuple[NodeKey, _LinkStats]]] = {}
        #: single-source route recomputations performed (perf telemetry).
        self.route_rebuilds = 0
        self.metrics = metrics or MetricRegistry()
        self._link_stats: dict[frozenset, _LinkStats] = {}
        #: optional fault-injection layer (repro.chaos) consulted per hop.
        self.fault_injector: Optional[object] = None
        self._down: set[NodeKey] = set()
        #: links administratively downed via set_link_up(..., up=False);
        #: restart_switch must not resurrect these.
        self._admin_down: set[frozenset] = set()
        self._drop_no_route = self.metrics.counter("net.drop.no_route")
        self._drop_unknown_node = self.metrics.counter("net.drop.unknown_node")
        self._drop_kernel = self.metrics.counter("net.drop.kernel")
        self._drop_node_down = self.metrics.counter("net.drop.node_down")
        self._lost_total = self.metrics.counter("net.lost")

    def child_rng(self, name: str) -> random.Random:
        """A named RNG derived from this network's seed.

        Subsystems (chaos, workload generators) derive their own streams
        so one ``--seed`` reproduces the whole run without the streams
        perturbing each other's draw sequences.
        """
        return random.Random(f"{self.seed}:{name}")

    # -- counter views (kept for compatibility with pre-telemetry callers) ---------
    @property
    def packets_dropped(self) -> int:
        """Packets dropped by the network or a kernel (loss excluded)."""
        return int(self.metrics.total("net.drop."))

    @property
    def packets_lost(self) -> int:
        """Packets lost to injected link faults (:mod:`repro.chaos`)."""
        return int(self._lost_total.value)

    # -- topology ------------------------------------------------------------------
    def add_host(self, host_id: int) -> Host:
        host = Host(self, host_id)
        self.hosts[host_id] = host
        self.graph.add_node(host.key)
        # An isolated node changes no existing shortest path: no
        # invalidation needed; the new source's table fills lazily.
        return host

    def add_switch(self, device: NetCLDevice, *, processing_ns: int = 400) -> Switch:
        if processing_ns < 0:
            raise ValueError(f"processing_ns must be >= 0, got {processing_ns}")
        sw = Switch(self, device, processing_ns=processing_ns)
        self.switches[device.device_id] = sw
        self.graph.add_node(sw.key)
        return sw

    def link(self, a: NodeKey, b: NodeKey, link: Optional[Link] = None) -> Link:
        link = link or Link()
        self.graph.add_edge(a, b)
        key = frozenset((a, b))
        self.links[key] = link
        name = "-".join(sorted((node_name(a), node_name(b))))
        stats = _LinkStats(
            link=link,
            tx_packets=self.metrics.counter(f"link.tx_packets.{name}"),
            tx_bytes=self.metrics.counter(f"link.tx_bytes.{name}"),
            lost=self.metrics.counter(f"link.lost.{name}"),
        )
        self._link_stats[key] = stats
        self._routes.clear()
        return link

    def add_multicast_group(self, gid: int, members: list[NodeKey]) -> None:
        """Multicast groups contain *adjacent* nodes only (§V-A): every
        member must already be in the topology with at least one link."""
        for m in members:
            if m not in self.graph or self.graph.degree(m) == 0:
                raise ValueError(
                    f"multicast group {gid}: member {node_name(m)} is not an "
                    "adjacent node (add it to the topology and link it first)"
                )
        self.multicast_groups[gid] = list(members)

    # -- failures (repro.chaos / repro.reliability) --------------------------------
    def is_up(self, key: NodeKey) -> bool:
        return key not in self._down

    def crash_switch(self, device_id: int) -> None:
        """Take a switch down: its edges leave the topology (transit
        reroutes around it) and packets addressed to it are dropped."""
        key = DEVICE(device_id)
        if key in self._down:
            return
        self._down.add(key)
        for neighbor in list(self.graph.neighbors(key)):
            self.graph.remove_edge(key, neighbor)
        self._routes.clear()
        self.metrics.counter("net.crashes").inc()

    def restart_switch(self, device_id: int) -> None:
        """Bring a crashed switch back with *empty* state (a reboot): the
        device loses all register and lookup contents.  Administratively
        downed links (:meth:`set_link_up`) stay down."""
        key = DEVICE(device_id)
        if key not in self._down:
            return
        self._down.discard(key)
        for link_key in self.links:
            if key in link_key and link_key not in self._admin_down:
                a, b = tuple(link_key)
                other = b if a == key else a
                if other not in self._down:
                    self.graph.add_edge(a, b)
        self._routes.clear()
        sw = self.switches.get(device_id)
        if sw is not None:
            sw.device.reset_state()
        self.metrics.counter("net.restarts").inc()

    def remove_link(self, a: NodeKey, b: NodeKey) -> None:
        """Decommission one link entirely (service migration: a tenant
        device detaches from a physical switch).  Unlike
        :meth:`set_link_up` the link is forgotten — a later
        :meth:`restart_switch` will not resurrect it."""
        key = frozenset((a, b))
        if key not in self.links:
            raise KeyError(f"no link {a} -- {b}")
        del self.links[key]
        self._link_stats.pop(key, None)
        self._admin_down.discard(key)
        if self.graph.has_edge(a, b):
            self.graph.remove_edge(a, b)
        self._routes.clear()

    def remove_switch(self, device_id: int) -> None:
        """Decommission a switch node and every link touching it
        (service eviction: a tenant's device leaves the fabric).
        Historical counters stay in the metric registry."""
        key = DEVICE(device_id)
        self.switches.pop(device_id, None)
        for link_key in [k for k in self.links if key in k]:
            del self.links[link_key]
            self._link_stats.pop(link_key, None)
            self._admin_down.discard(link_key)
        if self.graph.has_node(key):
            self.graph.remove_node(key)
        self._down.discard(key)
        self._routes.clear()

    def set_link_up(self, a: NodeKey, b: NodeKey, up: bool) -> None:
        """Administratively flap one link; routing reconverges around it."""
        key = frozenset((a, b))
        if key not in self.links:
            raise KeyError(f"no link {a} -- {b}")
        if up:
            self._admin_down.discard(key)
            if a not in self._down and b not in self._down:
                self.graph.add_edge(a, b)
                self._routes.clear()
        else:
            self._admin_down.add(key)
            if self.graph.has_edge(a, b):
                self.graph.remove_edge(a, b)
                self._routes.clear()

    # -- routing -------------------------------------------------------------------
    def _rebuild_source(self, src: NodeKey) -> dict[NodeKey, tuple[NodeKey, _LinkStats]]:
        """(Re)compute one source's next-hop table."""
        table: dict[NodeKey, tuple[NodeKey, _LinkStats]] = {}
        if src in self.graph:
            link_stats = self._link_stats
            for dst, path in self.graph.shortest_paths(src).items():
                if len(path) > 1:
                    table[dst] = (path[1], link_stats[frozenset((src, path[1]))])
        self._routes[src] = table
        self.route_rebuilds += 1
        return table

    # -- packet movement ------------------------------------------------------------------
    def inject(self, at: NodeKey, packet: NetCLPacket) -> None:
        """A node pushes a packet into the network."""
        target = ("d", packet.to) if packet.to != NO_DEVICE else ("h", packet.dst)
        if target == at:
            self._arrive(at, packet)
            return
        self._hop(at, target, packet)

    def _hop(self, at: NodeKey, toward: NodeKey, packet: NetCLPacket) -> None:
        table = self._routes.get(at)
        if table is None:
            table = self._rebuild_source(at)
        route = table.get(toward)
        if route is None:
            self._drop_no_route.inc()
            return
        nxt, stats = route
        size = packet.size_bytes
        if size == stats.cost_size:
            delay = stats.cost_ns
        else:
            link = stats.link
            delay = link.latency_ns + link.serialization_ns(size)
            stats.cost_size = size
            stats.cost_ns = delay
        if self.fault_injector is None:
            # Fast path: one delivery, no fault model consulted; counter
            # increments are inlined (see metrics.py's hot-path note).
            stats.tx_packets.value += 1
            stats.tx_bytes.value += size
            # One event per hop: the receiver's latency joins the link's.
            kind, ident = nxt
            fn = None
            if kind == "d":
                sw = self.switches.get(ident)
                if sw is not None and packet.mcast_members is None:
                    delay += sw.processing_ns
                    fn = sw._fused_event
            else:
                host = self.hosts.get(ident)
                if host is not None and not host.serialize_overheads:
                    delay += host.rx_overhead_ns
                    fn = host._fused_event
            sim = self.sim
            if fn is None:
                sim.after(delay, self._arrive, nxt, packet)
            elif type(delay) is not int or delay < 0:
                sim.after(delay, fn, packet)  # rounds up, or rejects
            else:
                # Simulator.after's push, without its frame (every hop).
                t = sim.now_ns + delay
                if t >= sim._lane_ns:
                    sim._lane_ns = t
                    sim._lane.append((t, next(sim._seq), fn, (packet,)))
                else:
                    heapq.heappush(sim._queue, (t, next(sim._seq), fn, (packet,)))
            return
        deliveries = self.fault_injector.on_transmit(at, nxt, packet, delay)
        if not deliveries:
            self._lost_total.inc()
            stats.lost.inc()
            return
        for delay_ns, pkt in deliveries:
            stats.tx_packets.inc()
            stats.tx_bytes.inc(pkt.size_bytes)
            self.sim.after(delay_ns, self._arrive, nxt, pkt)

    def _arrive(self, node: NodeKey, packet: NetCLPacket) -> None:
        if node in self._down:
            self._drop_node_down.inc()
            return
        kind, ident = node
        if kind == "h":
            host = self.hosts.get(ident)
            if host is None:
                self._drop_unknown_node.inc()
                return
            # Only deliver to the addressed host; transit through hosts is
            # not a thing (hosts are leaves).
            host.deliver(packet)
        else:
            members = packet.mcast_members
            if members is not None:
                # A shared multicast transit replica: re-expand it here
                # instead of delivering it to the switch pipeline.
                packet.mcast_members = None
                self._fanout(node, packet, members)
                return
            sw = self.switches.get(ident)
            if sw is None:
                self._drop_unknown_node.inc()
                return
            sw.deliver(packet)

    # -- forwarding decisions --------------------------------------------------------------
    def execute_decision(self, at: NodeKey, decision: ForwardDecision) -> None:
        kind = decision.kind
        packet = decision.packet
        if kind == ForwardKind.DROP:
            self._drop_kernel.inc()
            return
        if packet is None:
            # A non-DROP decision without a packet is a runtime bug in the
            # device; count it instead of losing the packet invisibly.
            self.metrics.counter("net.drop.null_decision").inc()
            return
        if kind == ForwardKind.TO_HOST:
            packet.dst = decision.target
            packet.to = NO_DEVICE
            self._route_from(at, ("h", decision.target), packet)
        elif kind == ForwardKind.TO_DEVICE:
            packet.to = decision.target
            self._route_from(at, ("d", decision.target), packet)
        elif kind == ForwardKind.MULTICAST:
            members = self.multicast_groups.get(decision.target)
            if not members:
                # Empty or unknown group: the replication fans out to
                # nothing, which used to look exactly like success.
                self.metrics.counter("net.drop.empty_group").inc()
                return
            self._fanout(at, packet, members)

    def _fanout(self, at: NodeKey, packet: NetCLPacket, members) -> None:
        """Egress-aware multicast replication (hierarchical fan-out).

        Members directly reachable from ``at`` get their own replica, as
        a real switch emits one copy per egress port.  Members that share
        a next-hop *switch* travel as a single transit replica annotated
        with the members it still covers; that switch re-expands it on
        arrival (see :meth:`_arrive`) — the spine sends one copy per ToR
        instead of one per worker, which is where the hierarchical tree's
        "hops saved" come from.
        """
        table = self._routes.get(at)
        if table is None:
            table = self._rebuild_source(at)
        direct = []
        shared: dict[NodeKey, list[NodeKey]] = {}
        for member in members:
            nxt, _ = table.get(member) or (None, None)
            if nxt is None or nxt == member or nxt[0] == "h" or member == at:
                direct.append(member)
            else:
                shared.setdefault(nxt, []).append(member)
        for member in direct:
            copy = packet.copy()
            if member[0] == "h":
                copy.dst = member[1]
                copy.to = NO_DEVICE
            else:
                copy.to = member[1]
            self._route_from(at, member, copy)
        saved = 0
        for nxt, covered in shared.items():
            copy = packet.copy()
            # The transit replica is never kernel-dispatched: _arrive
            # intercepts it by its member annotation.  Address it to no
            # device so a miss degrades to an unknown-host drop.
            copy.to = NO_DEVICE
            copy.dst = 0
            copy.mcast_members = tuple(covered)
            saved += len(covered) - 1
            self._hop(at, nxt, copy)
        if saved:
            self.metrics.counter("net.multicast.hops_saved").inc(saved)

    def _route_from(self, at: NodeKey, toward: NodeKey, packet: NetCLPacket) -> None:
        if toward == at:
            self._arrive(at, packet)
            return
        self._hop(at, toward, packet)
