"""The fabric description, its one realiser and the one placement search
(see the :mod:`repro.deploy` package docstring)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterator, Optional

from repro.core.driver import CompiledProgram
from repro.ir.module import Module
from repro.netsim import (
    DEVICE,
    HOST,
    Graph,
    Link,
    Network,
    NodeKey,
    pipeline_latency_ns,
)
from repro.reliability.failover import FailoverManager, ReplicatedConnection
from repro.runtime.control import DeviceConnection
from repro.runtime.device import NetCLDevice

#: a physical switch ``s`` hosting no program of the topology appears in
#: the live network as transit device ``TRANSIT_BASE + s``.
TRANSIT_BASE = 10_000


def transit_device(device_id: int) -> NetCLDevice:
    """A switch running only the operator's base program: every NetCL
    packet is a no-op there and is forwarded untouched."""
    return NetCLDevice(device_id, Module(f"transit{device_id}"), [])


class DeploymentError(Exception):
    """Placement failed.

    When the failure is resource-driven the error carries a
    :class:`PlacementBreakdown` in :attr:`breakdown`: the demand of the
    abstract device that could not be placed and, per physical switch,
    the residual headroom plus the specific reason that switch was
    rejected (stages/SRAM/SALU shortfall, occupancy, reachability).
    The service admission path (``repro.service``) surfaces this to the
    tenant so a reject names the binding resource instead of a bare
    "does not fit".
    """

    def __init__(self, message: str, *, breakdown: Optional["PlacementBreakdown"] = None):
        super().__init__(message)
        self.breakdown = breakdown


@dataclass
class SwitchResidual:
    """One switch's remaining headroom and why it was rejected."""

    switch_id: int
    free_stages: float
    free_sram_pct: float
    free_salu_pct: float
    reason: str

    def to_dict(self) -> dict:
        return {
            "switch": self.switch_id,
            "free_stages": self.free_stages,
            "free_sram_pct": round(self.free_sram_pct, 2),
            "free_salu_pct": round(self.free_salu_pct, 2),
            "reason": self.reason,
        }


@dataclass
class PlacementBreakdown:
    """Which device could not be placed, what it needed, and the
    per-switch residual that made every candidate infeasible."""

    device: int
    need_stages: int
    need_sram_pct: float
    need_salu_pct: float
    switches: list[SwitchResidual] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"abstract device {self.device} needs {self.need_stages} stages, "
            f"{self.need_sram_pct:.1f}% SRAM, {self.need_salu_pct:.1f}% SALUs; "
            "per-switch residual:"
        ]
        for sw in self.switches:
            lines.append(
                f"  switch {sw.switch_id}: {sw.free_stages:g} stages, "
                f"{sw.free_sram_pct:.1f}% SRAM, {sw.free_salu_pct:.1f}% SALUs "
                f"free -- {sw.reason}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "need": {
                "stages": self.need_stages,
                "sram_pct": round(self.need_sram_pct, 2),
                "salu_pct": round(self.need_salu_pct, 2),
            },
            "switches": [sw.to_dict() for sw in self.switches],
        }


def fit_reason(
    need_stages: float, need_sram_pct: float, need_salu_pct: float, free: list
) -> Optional[str]:
    """Why ``free`` = [stages, sram_pct, salu_pct] cannot host the demand
    (None when it fits) — names the binding resource and the shortfall."""
    if need_stages > free[0]:
        return f"stages {free[0]:g} < {need_stages:g}"
    if need_sram_pct > free[1]:
        return f"SRAM {free[1]:.1f}% < {need_sram_pct:.1f}%"
    if need_salu_pct > free[2]:
        return f"SALUs {free[2]:.1f}% < {need_salu_pct:.1f}%"
    return None


@dataclass(frozen=True)
class DeviceDemand:
    """Per-switch resource demand of one abstract device."""

    stages: int
    sram_pct: float
    salu_pct: float


def demand_of(dev_id: int, cp: Optional[CompiledProgram]) -> DeviceDemand:
    """Demand of abstract device ``dev_id``'s program, from the fitter's report."""
    if cp is None or cp.report is None:
        raise DeploymentError(
            f"abstract device {dev_id}: program was not fitted; "
            "compile with fit=True first"
        )
    return DeviceDemand(cp.report.stages_used, cp.report.sram_pct, cp.report.salus_pct)


@dataclass
class AbstractTopology:
    """The topology the NetCL program was written against (§IV, Fig. 5c).

    The one description of a fabric: every application states its shape
    once as a function returning one of these, and standalone cluster,
    service tenant, planned deployment and host baseline are all
    realisations of it.
    """

    #: abstract device id -> compiled program for that device (``None``:
    #: shape only -- realised as a transit switch, which is how a host
    #: baseline gets the same graph without compiling anything)
    programs: dict[int, Optional[CompiledProgram]] = field(default_factory=dict)
    #: role name -> the devices declared with it, in declaration order
    roles: dict[str, list[int]] = field(default_factory=dict)
    #: host id -> abstract device the host's traffic enters through
    host_attachments: dict[int, int] = field(default_factory=dict)
    #: device-device edges the computation steers messages along
    device_edges: list[tuple[int, int]] = field(default_factory=list)
    #: multicast group id -> member node keys ("h"/"d", id)
    multicast_groups: dict[int, list[NodeKey]] = field(default_factory=dict)
    #: primary device -> its standby, which mirrors every link of the primary
    spares: dict[int, int] = field(default_factory=dict)
    #: the host model: per-packet host overheads occupy the host (a
    #: single-core packet path) instead of overlapping
    serialize_overheads: bool = False

    def add_device(
        self,
        device_id: int,
        compiled: Optional[CompiledProgram] = None,
        role: Optional[str] = None,
        *,
        spare_of: Optional[int] = None,
    ) -> None:
        """Declare a device; ``spare_of`` makes it that primary's standby."""
        self.programs[device_id] = compiled
        if role is not None:
            self.roles.setdefault(role, []).append(device_id)
        if spare_of is not None:
            self.spares[spare_of] = device_id

    def attach_host(self, host_id: int, device_id: int) -> None:
        prev = self.host_attachments.get(host_id)
        if prev is not None and prev != device_id:
            raise ValueError(
                f"host {host_id} is already attached to abstract device "
                f"{prev}; cannot also attach it to {device_id}"
            )
        self.host_attachments[host_id] = device_id

    def connect_devices(self, a: int, b: int) -> None:
        self.device_edges.append((a, b))

    def add_multicast_group(self, gid: int, members: list[NodeKey]) -> None:
        self.multicast_groups[gid] = list(members)

    @classmethod
    def star(cls, device_id: int, compiled, hosts: list[int], *, spare=None):
        """One switch with ``hosts`` around it -- the shape of AGG, CACHE,
        CALC and the echo tenant; ``spare=(id, program)`` adds a standby."""
        topo = cls()
        topo.add_device(device_id, compiled)
        if spare is not None:
            topo.add_device(*spare, spare_of=device_id)
        for h in hosts:
            topo.attach_host(h, device_id)
        return topo

    def validate(self) -> None:
        """Every attachment, edge, spare and device-typed group member
        must name a declared device; raises :class:`DeploymentError`
        naming the first reference that does not."""
        refs = [(d, f"the attachment of host {h}") for h, d in self.host_attachments.items()]
        refs += [(d, f"edge {a}--{b}") for a, b in self.device_edges for d in (a, b)]
        refs += [(p, f"spare {s}") for p, s in self.spares.items()]
        for gid, members in self.multicast_groups.items():
            refs += [(m[1], f"multicast group {gid}") for m in members if m[0] == "d"]
        for device_id, what in refs:
            if device_id not in self.programs:
                raise DeploymentError(
                    f"{what} names abstract device {device_id}, which the "
                    "topology does not declare"
                )

    def links(self) -> Iterator[tuple[NodeKey, NodeKey]]:
        """The links of the topology's own graph in realisation order:
        device edges, then host attachments, each in declaration order, a
        spare's copy of a link right after its primary's.  Routing is
        first-parent-wins BFS over insertion-ordered adjacency, so this
        order is part of every per-seed digest: to move a link, move its
        declaration in the shape function."""
        edges = [(DEVICE(a), DEVICE(b)) for a, b in self.device_edges]
        edges += [(HOST(h), DEVICE(d)) for h, d in self.host_attachments.items()]
        for a, b in edges:
            yield a, b
            for end, other in ((a, b), (b, a)):
                if end[0] == "d" and end[1] in self.spares:
                    yield DEVICE(self.spares[end[1]]), other

    def realise(
        self,
        fabric: Optional["PhysicalFabric"] = None,
        assignment: Optional[dict[int, int]] = None,
        *,
        seed: int = 1,
        link: Optional[Link] = None,
        device: Optional[Callable] = None,
        transit_ns: int = 350,
    ) -> "DeploymentPlan":
        """Build the live network -- the only place a fabric is wired.

        With no ``fabric`` the topology's own graph is the fabric and the
        assignment the identity: a standalone cluster, or a host baseline
        when the devices carry no program.  Otherwise ``assignment``
        (abstract device -> switch of ``fabric``) says where each program
        runs -- under its *abstract* id -- and every other switch is
        transit device ``TRANSIT_BASE + s``.  ``link`` is copied per edge;
        ``device(id, program, metrics)`` makes a programmed switch's
        runtime (default: a plain :class:`NetCLDevice` with its own
        registry); its ``processing_ns`` is the program's fitted
        pipeline latency, a transit device's is ``transit_ns``.
        """
        self.validate()
        if fabric is None:
            assignment = {d: d for d in self.programs}
            switches, hosts = list(self.programs), list(self.host_attachments)
            links = self.links()
        else:
            switches, hosts, links = fabric.switches, fabric.hosts, fabric.links
        hosted = {sid: dev for dev, sid in assignment.items()}
        template = link or Link()

        def net_id(sid: int) -> int:
            return hosted.get(sid, TRANSIT_BASE + sid)

        def net_key(node: NodeKey) -> NodeKey:
            return node if node[0] == "h" else DEVICE(net_id(node[1]))

        net = Network(seed=seed)
        devices: dict[int, NetCLDevice] = {}
        for sid in switches:
            device_id = net_id(sid)
            program = self.programs.get(device_id)
            if program is None:
                dev = transit_device(device_id)
            elif device is None:
                dev = NetCLDevice(device_id, program.module, program.kernels())
            else:
                dev = device(device_id, program, net.metrics)
            devices[device_id] = dev
            net.add_switch(
                dev,
                processing_ns=pipeline_latency_ns(program) if program else transit_ns,
            )
        for hid in hosts:
            net.add_host(hid).serialize_overheads = self.serialize_overheads
        for a, b in links:
            net.link(net_key(a), net_key(b), dataclasses.replace(template))
        for gid, members in self.multicast_groups.items():
            net.add_multicast_group(gid, list(members))
        return DeploymentPlan(self, assignment, net, devices)


@dataclass
class PhysicalSwitch:
    """One operator-owned switch and its remaining headroom.

    ``free_stages`` models "enough available resources in the base program
    to fit the NetCL code" (§VIII): the operator's existing program already
    occupies part of the pipe.
    """

    switch_id: int
    free_stages: int = 12
    free_sram_pct: float = 100.0
    free_salu_pct: float = 100.0


#: the kwargs ``PhysicalFabric.add_switch`` accepts (everything on
#: PhysicalSwitch except its identity).
_HEADROOM_FIELDS = frozenset(
    f.name for f in dataclasses.fields(PhysicalSwitch)
) - {"switch_id"}


@dataclass
class PhysicalFabric:
    """The real network: switches, hosts, and links between them."""

    switches: dict[int, PhysicalSwitch] = field(default_factory=dict)
    hosts: list[int] = field(default_factory=list)
    links: list[tuple[NodeKey, NodeKey]] = field(default_factory=list)

    def add_switch(self, switch_id: int, **headroom) -> PhysicalSwitch:
        unknown = sorted(set(headroom) - _HEADROOM_FIELDS)
        if unknown:
            raise TypeError(
                f"add_switch() got unknown headroom key "
                f"{unknown[0]!r}; valid keys: {sorted(_HEADROOM_FIELDS)}"
            )
        if switch_id in self.switches:
            raise ValueError(f"switch {switch_id} is already in the fabric")
        sw = PhysicalSwitch(switch_id, **headroom)
        self.switches[switch_id] = sw
        return sw

    def add_host(self, host_id: int) -> None:
        self.hosts.append(host_id)

    def link(self, a: NodeKey, b: NodeKey) -> None:
        self.links.append((a, b))

    def graph(self) -> Graph:
        g = Graph()
        for sid in self.switches:
            g.add_node(DEVICE(sid))
        for hid in self.hosts:
            g.add_node(HOST(hid))
        for a, b in self.links:
            g.add_edge(a, b)
        return g


@dataclass
class DeploymentPlan:
    """A realised topology: abstract device id -> physical switch id, plus
    the live network.  ``network`` / :meth:`address` / :meth:`control` /
    :meth:`register_channel` are the surface applications are wired
    against; a service :class:`~repro.service.Tenant` offers the same
    four, so standalone and tenant share one wiring.  What an application
    handed out through the last two is what recovery restores:
    :meth:`failover` for a standalone deployment, the service's migration
    for a tenant."""

    topology: AbstractTopology
    assignment: dict[int, int]
    network: Network
    devices: dict[int, NetCLDevice]
    #: abstract device id -> the control connection handed out for it
    connections: dict[int, object] = field(default_factory=dict)
    #: (abstract device id, channel) pairs the hosts opened
    channels: list[tuple[int, object]] = field(default_factory=list)

    def physical_for(self, abstract_device: int) -> int:
        return self.assignment[abstract_device]

    def address(self, device: int) -> int:
        """The id hosts put on the wire to reach ``device``'s program."""
        return device

    def control(self, device: int):
        """The control connection of ``device``; it journals when the
        topology declares a spare (the journal is what promotion replays)."""
        if device not in self.connections:
            conn = DeviceConnection(self.devices[device])
            journals = device in self.topology.spares
            self.connections[device] = ReplicatedConnection(conn) if journals else conn
        return self.connections[device]

    def register_channel(self, device: int, channel) -> None:
        self.channels.append((device, channel))

    def failover(
        self,
        *,
        heartbeat_ns: int = 100_000,
        on_failover: Optional[Callable[[FailoverManager], None]] = None,
    ) -> list[FailoverManager]:
        """Start standalone failover: one started :class:`FailoverManager`
        per ``topology.spares`` pair, in declaration order.  Promotion
        replays the journal :meth:`control` handed out for the primary
        (none if it never did) and retargets the channels registered
        under the primary, in registration order; ``on_failover(mgr)`` is
        the application's resync hook."""
        return [
            FailoverManager(
                self.network,
                primary,
                standby,
                heartbeat_ns=heartbeat_ns,
                replicated=self.connections.get(primary),
                channels=[ch for dev, ch in self.channels if dev == primary],
                on_failover=on_failover,
            ).start()
            for primary, standby in self.topology.spares.items()
        ]


class DeploymentPlanner:
    """Resource-aware placement: one depth-first search with backtracking.

    Abstract devices are placed most-demanding-first.  Each tries the
    switches with enough free stages/SRAM/SALUs in order of
    ``(distance, -free stages, switch id)``: total shortest-path
    distance to the hosts and already-placed devices it talks to, ties
    toward the emptiest switch (spread load, keep large holes), then the
    lowest id.  A dead end -- an early device taking the only switch a
    later one fits -- is undone, not fatal.  One device of a topology
    per switch: distinct devices exist to parallelise the pipeline.
    """

    #: backtracking budget: candidate switches tried across the whole
    #: search before giving up (keeps worst-case planning time bounded).
    MAX_NODES = 20_000

    def __init__(self, fabric: PhysicalFabric) -> None:
        self.fabric = fabric

    # -- planning -------------------------------------------------------------
    def plan(self, topology: AbstractTopology) -> dict[int, int]:
        """Place ``topology`` into the pristine fabric's headroom, with
        demands from the programs' fit reports."""
        topology.validate()
        demands = {dev_id: demand_of(dev_id, cp) for dev_id, cp in topology.programs.items()}
        graph = self.fabric.graph()
        for host_id in topology.host_attachments:
            host = HOST(host_id)
            if host in graph and not any(k == "d" for k, _ in graph.shortest_paths(host)):
                raise DeploymentError(
                    f"host {host_id} cannot reach any switch "
                    "(disconnected fabric)"
                )
        headroom = {
            sid: [sw.free_stages, sw.free_sram_pct, sw.free_salu_pct]
            for sid, sw in self.fabric.switches.items()
        }
        try:
            return self.search(topology, demands, headroom)
        except DeploymentError as exc:
            bd = exc.breakdown
            if bd is None:
                raise
            raise DeploymentError(
                f"no physical switch has room for abstract device {bd.device}\n"
                + bd.render(),
                breakdown=bd,
            ) from exc

    def search(
        self,
        topology: AbstractTopology,
        demands: dict[int, DeviceDemand],
        residual: dict[int, list[float]],
        *,
        exclude: FrozenSet[int] = frozenset(),
        pinned: Optional[dict[int, int]] = None,
    ) -> dict[int, int]:
        """Assign each device in ``demands`` to a switch within
        ``residual`` headroom ([stages, sram_pct, salu_pct] per switch).
        ``exclude``d switches never receive devices; ``pinned``
        assignments anchor distance scoring without being moved.  Raises
        :class:`DeploymentError` with a per-switch breakdown when no
        feasible assignment exists."""
        graph = self.fabric.graph()
        for sid in exclude:
            if DEVICE(sid) in graph:
                graph.remove_node(DEVICE(sid))
        for host_id in topology.host_attachments:
            if HOST(host_id) not in graph:
                raise DeploymentError(f"host {host_id} is not in the fabric")
        paths = graph.all_pairs_lengths()
        #: topology node -> the nodes it has a link to
        peers: dict[NodeKey, list[NodeKey]] = {}
        for a, b in topology.links():
            peers.setdefault(a, []).append(b)
            peers.setdefault(b, []).append(a)

        free = {
            sid: list(headroom)
            for sid, headroom in residual.items()
            if sid not in exclude
        }
        order = sorted(demands, key=lambda d: (-demands[d].stages, d))
        assignment: dict[int, int] = dict(pinned or {})
        state = {"nodes": 0, "breakdown": None}

        def candidates(dev_id: int) -> tuple[list[int], list[SwitchResidual]]:
            need = demands[dev_id]
            # attached hosts and already-placed peers, as fabric nodes
            neighbors = [
                n if n[0] == "h" else DEVICE(assignment[n[1]])
                for n in peers.get(DEVICE(dev_id), ())
                if n[0] == "h" or n[1] in assignment
            ]
            scored: list[tuple[float, float, int]] = []
            rejects: list[SwitchResidual] = []
            taken = set(assignment.values())
            for sid, headroom in free.items():
                if sid in taken:
                    reason = "holds another device of this tenant"
                else:
                    reason = fit_reason(
                        need.stages, need.sram_pct, need.salu_pct, headroom
                    )
                dist = 0.0
                if reason is None:
                    reach = paths.get(DEVICE(sid), {})
                    for kind, ident in neighbors:
                        hop = reach.get((kind, ident))
                        if hop is None:
                            reason = (
                                f"unreachable from "
                                f"{'host' if kind == 'h' else 'device'} {ident}"
                            )
                            break
                        dist += hop
                if reason is None:
                    scored.append((dist, -headroom[0], sid))
                else:
                    rejects.append(SwitchResidual(sid, *headroom, reason))
            return [sid for *_, sid in sorted(scored)], rejects

        def place(i: int) -> bool:
            if i == len(order):
                return True
            dev_id = order[i]
            need = demands[dev_id]
            cands, rejects = candidates(dev_id)
            if not cands and state["breakdown"] is None:
                state["breakdown"] = PlacementBreakdown(
                    device=dev_id,
                    need_stages=need.stages,
                    need_sram_pct=need.sram_pct,
                    need_salu_pct=need.salu_pct,
                    switches=rejects,
                )
            for sid in cands:
                state["nodes"] += 1
                if state["nodes"] > self.MAX_NODES:
                    return False
                assignment[dev_id] = sid
                headroom = free[sid]
                headroom[0] -= need.stages
                headroom[1] -= need.sram_pct
                headroom[2] -= need.salu_pct
                if place(i + 1):
                    return True
                headroom[0] += need.stages
                headroom[1] += need.sram_pct
                headroom[2] += need.salu_pct
                del assignment[dev_id]
            return False

        if place(0):
            return {dev: assignment[dev] for dev in demands}
        breakdown: Optional[PlacementBreakdown] = state["breakdown"]
        detail = "\n" + breakdown.render() if breakdown is not None else ""
        raise DeploymentError(
            "no feasible placement into residual fabric headroom "
            f"(searched {state['nodes']} candidates)" + detail,
            breakdown=breakdown,
        )

    # -- instantiation ------------------------------------------------------------
    def deploy(
        self,
        topology: AbstractTopology,
        *,
        link: Optional[Link] = None,
        seed: int = 1,
    ) -> DeploymentPlan:
        """Plan, then build a live netsim network with device runtimes on
        the chosen switches and the multicast groups configured."""
        return topology.realise(
            self.fabric, self.plan(topology), link=link, seed=seed
        )
