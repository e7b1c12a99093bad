"""The deployment planner: abstract topology -> physical fabric."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.core.driver import CompiledProgram
from repro.netsim import (
    DEVICE,
    HOST,
    Graph,
    Link,
    Network,
    NodeKey,
    pipeline_latency_ns,
)
from repro.runtime.device import NetCLDevice


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


@dataclass
class AbstractTopology:
    """The topology the NetCL program was written against (§IV, Fig. 5c)."""

    #: abstract device id -> compiled program for that device
    programs: dict[int, CompiledProgram] = field(default_factory=dict)
    #: host id -> abstract device the host's traffic enters through
    host_attachments: dict[int, int] = field(default_factory=dict)
    #: device-device edges the computation steers messages along
    device_edges: list[tuple[int, int]] = field(default_factory=list)
    #: multicast group id -> member node keys ("h"/"d", id)
    multicast_groups: dict[int, list[NodeKey]] = field(default_factory=dict)

    def add_device(self, device_id: int, compiled: CompiledProgram) -> None:
        self.programs[device_id] = compiled

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
    """abstract device id -> physical switch id, plus the live network."""

    assignment: dict[int, int]
    network: Network
    devices: dict[int, NetCLDevice]

    def physical_for(self, abstract_device: int) -> int:
        return self.assignment[abstract_device]


class DeploymentPlanner:
    """Greedy resource-aware placement.

    Abstract devices are placed most-demanding-first; each goes to the
    physical switch with enough free stages/SRAM/SALUs that minimizes the
    total distance to the hosts and already-placed devices it talks to.
    """

    def __init__(self, fabric: PhysicalFabric) -> None:
        self.fabric = fabric

    # -- planning -------------------------------------------------------------
    def plan(self, topology: AbstractTopology) -> dict[int, int]:
        graph = self.fabric.graph()
        for host_id in topology.host_attachments:
            if HOST(host_id) not in graph:
                raise DeploymentError(f"host {host_id} is not in the fabric")
        demands = {}
        for dev_id, cp in topology.programs.items():
            if cp.report is None:
                raise DeploymentError(
                    f"abstract device {dev_id}: program was not fitted; "
                    "compile with fit=True first"
                )
            demands[dev_id] = cp.report

        paths = graph.all_pairs_lengths()
        for host_id in topology.host_attachments:
            reach = paths.get(HOST(host_id), {})
            if not any(DEVICE(sid) in reach for sid in self.fabric.switches):
                raise DeploymentError(
                    f"host {host_id} cannot reach any switch "
                    "(disconnected fabric)"
                )

        order = sorted(demands, key=lambda d: -demands[d].stages_used)
        assignment: dict[int, int] = {}
        headroom = {
            sid: [sw.free_stages, sw.free_sram_pct, sw.free_salu_pct]
            for sid, sw in self.fabric.switches.items()
        }

        for dev_id in order:
            report = demands[dev_id]
            neighbors: list[NodeKey] = [
                HOST(h) for h, d in topology.host_attachments.items() if d == dev_id
            ]
            for a, b in topology.device_edges:
                if a == dev_id and b in assignment:
                    neighbors.append(DEVICE(assignment[b]))
                if b == dev_id and a in assignment:
                    neighbors.append(DEVICE(assignment[a]))

            best: Optional[tuple[float, int]] = None
            rejects: list[SwitchResidual] = []

            def reject(sid: int, free: list, reason: str) -> None:
                rejects.append(SwitchResidual(sid, free[0], free[1], free[2], reason))

            for sid, free in headroom.items():
                if sid in assignment.values():
                    # one NetCL program per switch in this planner
                    reject(sid, free, "holds another device of this topology")
                    continue
                reason = fit_reason(
                    report.stages_used, report.sram_pct, report.salus_pct, free
                )
                if reason is not None:
                    reject(sid, free, reason)
                    continue
                key = DEVICE(sid)
                dist = 0
                unreachable: Optional[NodeKey] = None
                for n in neighbors:
                    hop = paths.get(key, {}).get(n)
                    if hop is None:
                        unreachable = n
                        break
                    dist += hop
                if unreachable is not None:
                    kind, ident = unreachable
                    reject(
                        sid, free,
                        f"unreachable from {'host' if kind == 'h' else 'device'} "
                        f"{ident} (disconnected fabric)",
                    )
                    continue
                if best is None or dist < best[0]:
                    best = (dist, sid)
            if best is None:
                breakdown = PlacementBreakdown(
                    device=dev_id,
                    need_stages=report.stages_used,
                    need_sram_pct=report.sram_pct,
                    need_salu_pct=report.salus_pct,
                    switches=rejects,
                )
                raise DeploymentError(
                    f"no physical switch has room for abstract device "
                    f"{dev_id} ({report.stages_used} stages, "
                    f"{report.sram_pct:.1f}% SRAM, {report.salus_pct:.1f}% SALUs)\n"
                    + breakdown.render(),
                    breakdown=breakdown,
                )
            sid = best[1]
            assignment[dev_id] = sid
            headroom[sid][0] -= report.stages_used
            headroom[sid][1] -= report.sram_pct
            headroom[sid][2] -= report.salus_pct
        return assignment

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
        assignment = self.plan(topology)
        physical_to_abstract = {p: a for a, p in assignment.items()}

        net = Network(seed=seed)
        devices: dict[int, NetCLDevice] = {}
        for sid in self.fabric.switches:
            abstract = physical_to_abstract.get(sid)
            if abstract is not None:
                cp = topology.programs[abstract]
                # The runtime keeps the *abstract* device id: kernels were
                # compiled against it (device.id, send_to_device targets).
                dev = NetCLDevice(abstract, cp.module, cp.kernels())
                proc = pipeline_latency_ns(cp, 400)
            else:
                # A plain transit switch: base program only.
                from repro.ir.module import Module

                dev = NetCLDevice(10_000 + sid, Module(f"transit{sid}"), [])
                proc = 350
            devices[dev.device_id] = dev
            net.add_switch(dev, processing_ns=proc)

        for hid in self.fabric.hosts:
            net.add_host(hid)

        def to_net_key(node: NodeKey) -> NodeKey:
            kind, ident = node
            if kind == "h":
                return node
            abstract = physical_to_abstract.get(ident)
            return DEVICE(abstract if abstract is not None else 10_000 + ident)

        for a, b in self.fabric.links:
            net.link(to_net_key(a), to_net_key(b), link or Link())

        for gid, members in topology.multicast_groups.items():
            net.add_multicast_group(gid, list(members))
        return DeploymentPlan(assignment, net, devices)
