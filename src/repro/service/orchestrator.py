"""The multi-tenant INC-as-a-Service control plane.

One :class:`INCService` owns a :class:`~repro.deploy.planner.PhysicalFabric`
and its *live* :class:`~repro.netsim.net.Network` for the whole service
lifetime.  Tenants come and go against it:

* :meth:`INCService.submit` — admission control (predicted per-switch
  stage/SRAM/SALU demand vs. residual headroom), incremental placement
  with backtracking, then instantiation of the tenant's devices into the
  running network.  Rejects carry the planner's per-switch
  :class:`~repro.deploy.planner.PlacementBreakdown`.
* :meth:`INCService.evict` — tear a tenant out and return its headroom.
* crash/heartbeat/migrate — a watchdog heartbeats every physical switch
  through the simulator; when one dies, every tenant device on it is
  re-placed into the remaining headroom, its managed state re-installed
  from the tenant's control-plane journal
  (:class:`~repro.reliability.failover.ReplicatedConnection`), and the
  tenant's :class:`~repro.reliability.channel.ReliableChannel`\\ s are
  retargeted so in-flight requests are re-driven.
* per-tenant QoS — deterministic token-bucket ingress rate limiting and
  an SLO report (observed p99 latency vs. the tenant's target).

Isolation model (the ClickINC "modules from different tenants share one
pipeline" premise): every tenant keeps the abstract device ids its
topology declares.  The service allocates each tenant a block
of fabric-global device ids and puts a :class:`TenantDevice` at the
network boundary: ingress translates global ids back to the tenant's
abstract namespace before the unmodified kernel runs; egress translates
abstract targets (``send_to_device``, ``reflect``, multicast groups)
forward into the global namespace.  No recompilation, no id rewriting in
tenant programs, and two tenants may both believe they own "device 1".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.deploy.planner import (
    TRANSIT_BASE,
    AbstractTopology,
    DeploymentError,
    DeviceDemand,
    PhysicalFabric,
    demand_of,
    fit_reason,
)
from repro.netsim import DEVICE, Link, Network, pipeline_latency_ns
from repro.reliability.device import ReliableNetCLDevice
from repro.reliability.failover import ReplicatedConnection
from repro.runtime.control import DeviceConnection
from repro.runtime.device import ForwardDecision, ForwardKind
from repro.service.admission import AdmissionController, AdmissionError
from repro.service.placement import IncrementalPlanner
from repro.service.qos import TenantQoS, TokenBucket

#: tenant global-device-id blocks start here (16-bit packet ids cap ~0xFFFE).
TENANT_BASE = 20_000
#: translated multicast-group-id blocks start here.
GROUP_BASE = 30_000
#: ids per tenant block.
TENANT_BLOCK = 64


class TenantState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    REJECTED = "rejected"
    EVICTED = "evicted"


@dataclass
class Tenant:
    """One tenant's admission record and live resources."""

    tenant_id: str
    index: int
    topology: AbstractTopology
    qos: TenantQoS
    service: "INCService"
    state: TenantState = TenantState.QUEUED
    #: abstract device id -> predicted demand.
    demands: Dict[int, DeviceDemand] = field(default_factory=dict)
    #: abstract device id -> physical switch currently hosting it.
    placement: Dict[int, int] = field(default_factory=dict)
    #: abstract device id <-> fabric-global device id.
    abstract_to_gid: Dict[int, int] = field(default_factory=dict)
    gid_to_abstract: Dict[int, int] = field(default_factory=dict)
    #: abstract multicast group id -> fabric-global group id.
    group_map: Dict[int, int] = field(default_factory=dict)
    #: abstract device id -> live boundary device.
    devices: Dict[int, "TenantDevice"] = field(default_factory=dict)
    #: abstract device id -> journaling control-plane connection.
    connections: Dict[int, ReplicatedConnection] = field(default_factory=dict)
    #: (abstract device id, channel) pairs retargeted on migration.
    channels: List[Tuple[int, object]] = field(default_factory=list)
    on_migrate: Optional[Callable[["INCService", "Tenant"], None]] = None
    reject_reason: Optional[str] = None
    migrations: int = 0
    #: abstract devices a failed migration left where they were with their
    #: reservation already released; nothing more may be released for them.
    stranded: Set[int] = field(default_factory=set)

    @property
    def hosts(self) -> List[int]:
        return sorted(set(self.topology.host_attachments))

    def booked(self, assignment: Dict[int, int]) -> Dict[int, int]:
        """The part of ``assignment`` (abstract device -> switch) whose
        reservation this tenant still holds."""
        return {d: s for d, s in assignment.items() if d not in self.stranded}

    # -- the surface applications are wired against: the same four names
    # -- as a standalone repro.deploy.planner.DeploymentPlan
    @property
    def network(self) -> Network:
        return self.service.network

    def address(self, device: int) -> int:
        """The fabric-global id hosts put on the wire to reach ``device``."""
        return self.abstract_to_gid[device]

    def control(self, device: int) -> ReplicatedConnection:
        return self.service.control(self.tenant_id, device)

    def register_channel(self, device: int, channel) -> None:
        self.service.register_channel(self.tenant_id, device, channel)


class TenantDevice:
    """The network-boundary wrapper around one tenant's compiled device.

    Registered in the live network under the tenant's *global* device id;
    the inner :class:`NetCLDevice` runs the unmodified kernel at its
    *abstract* id.  The wrapper translates ids both
    ways, enforces the tenant's ingress rate limit, and feeds the
    per-tenant telemetry counters.
    """

    def __init__(
        self,
        service: "INCService",
        tenant: Tenant,
        abstract_id: int,
        gid: int,
        compiled,
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.abstract_id = abstract_id
        self.device_id = gid  # the network knows us by the global id
        self.compiled = compiled
        # The reliable runtime, not the plain one: tenants drive their
        # devices through ReliableChannels, so the device side must ACK,
        # dedup, and (optionally) enforce per-sender ordering.
        self.inner = ReliableNetCLDevice(
            abstract_id,
            compiled.module,
            compiled.kernels(),
            metrics=service.network.metrics,
            ordered=tenant.qos.ordered,
        )
        self.bucket: Optional[TokenBucket] = None
        m = service.network.metrics
        tag = tenant.tenant_id
        self._packets = m.counter(f"tenant.{tag}.packets")
        self._computed = m.counter(f"tenant.{tag}.computed")
        self._drops = m.counter(f"tenant.{tag}.drops")
        self._rate_limited = m.counter(f"tenant.{tag}.rate_limited")

    # -- lifecycle (Network.restart_switch calls this) -----------------------
    def reset_state(self) -> None:
        self.inner.reset_state()

    def drain_control(self) -> List[ForwardDecision]:
        return [self._translate_out(d) for d in self.inner.drain_control()]

    # -- packet path ---------------------------------------------------------
    def process(self, packet) -> ForwardDecision:
        self._packets.inc()
        if self.bucket is not None and not self.bucket.admit(
            self.service.network.sim.now_ns
        ):
            self._rate_limited.inc()
            return ForwardDecision(ForwardKind.DROP)
        # Ingress: global ids -> the tenant's abstract namespace.
        if packet.to == self.device_id:
            packet.to = self.abstract_id
        if packet.from_ in self.tenant.gid_to_abstract:
            packet.from_ = self.tenant.gid_to_abstract[packet.from_]
        before = self.inner.packets_computed
        decision = self.inner.process(packet)
        self._computed.inc(self.inner.packets_computed - before)
        if decision.kind == ForwardKind.DROP:
            self._drops.inc()
        return self._translate_out(decision)

    def _translate_out(self, decision: ForwardDecision) -> ForwardDecision:
        """Egress: abstract targets -> the fabric-global namespace."""
        fwd = self.tenant.abstract_to_gid
        pkt = decision.packet
        if pkt is not None and pkt.from_ in fwd:
            pkt.from_ = fwd[pkt.from_]
        if decision.kind == ForwardKind.TO_DEVICE and decision.target in fwd:
            decision.target = fwd[decision.target]
            if pkt is not None:
                pkt.to = decision.target
        elif decision.kind == ForwardKind.MULTICAST:
            decision.target = self.tenant.group_map.get(
                decision.target, decision.target
            )
        return decision


class INCService:
    """Long-lived orchestrator for one shared fabric."""

    def __init__(
        self,
        fabric: PhysicalFabric,
        *,
        seed: int = 1,
        heartbeat_ns: int = 150_000,
    ) -> None:
        self.fabric = fabric
        self.heartbeat_ns = heartbeat_ns
        self.admission = AdmissionController(fabric)
        self.planner = IncrementalPlanner(fabric)
        self.tenants: Dict[str, Tenant] = {}
        self.down: set[int] = set()
        self._next_index = 0
        self._queue: List[str] = []
        self._host_owner: Dict[int, str] = {}
        self._watchdog_armed = False
        #: bumped by every start(), so a tick queued before a stop()
        #: cannot keep a second watchdog chain alive after a restart.
        self._watchdog_gen = 0

        # The live network: the fabric with nothing placed on it, so every
        # physical switch is a transit node running only the operator's
        # base program.
        self.network = (
            AbstractTopology()
            .realise(fabric, {}, seed=seed)
            .network
        )

        m = self.network.metrics
        self._tenants_active = m.gauge("service.tenants_active")
        self._submissions = m.counter("service.submissions")
        self._admission_rejects = m.counter("service.admission_rejects")
        self._evictions = m.counter("service.evictions")
        self._migrations = m.counter("service.migrations")
        self._migration_failures = m.counter("service.migration_failures")
        self._ops_replayed = m.counter("service.ops_replayed")
        self._heartbeats = m.counter("service.heartbeats")
        self._defrag_moves = m.counter("service.defrag_moves")

    # -- helpers -------------------------------------------------------------
    def _internal_link(self) -> Link:
        """The in-chassis hop between a tenant slice and its host switch."""
        return Link(latency_ns=100, bandwidth_gbps=400.0)

    def _running(self, tenant_id: str) -> Tenant:
        t = self.tenants.get(tenant_id)
        if t is None or t.state is not TenantState.RUNNING:
            state = "unknown" if t is None else t.state.value
            raise AdmissionError(tenant_id, f"not running (state: {state})")
        return t

    def device_id_of(self, tenant_id: str, abstract_device: int) -> int:
        """The fabric-global device id hosts must address packets to."""
        return self._running(tenant_id).abstract_to_gid[abstract_device]

    # -- tenant lifecycle ----------------------------------------------------
    def submit(
        self,
        tenant_id: str,
        topology: AbstractTopology,
        qos: Optional[TenantQoS] = None,
        *,
        on_migrate: Optional[Callable[["INCService", Tenant], None]] = None,
    ) -> Tenant:
        """Admit (or queue, or reject) one tenant and instantiate it live."""
        qos = qos or TenantQoS()
        self._submissions.inc()
        existing = self.tenants.get(tenant_id)
        if existing is not None and existing.state in (
            TenantState.RUNNING,
            TenantState.QUEUED,
        ):
            raise AdmissionError(tenant_id, f"already {existing.state.value}")
        tenant = Tenant(
            tenant_id, self._next_index, topology, qos, self, on_migrate=on_migrate
        )
        self._next_index += 1
        self.tenants[tenant_id] = tenant
        self._register_tenant_metrics(tenant)
        reason = self._validate(tenant)
        if reason is not None:
            self._admission_rejects.inc()
            tenant.state = TenantState.REJECTED
            tenant.reject_reason = reason
            raise AdmissionError(tenant_id, reason)
        tenant.demands = {
            dev: demand_of(dev, cp) for dev, cp in topology.programs.items()
        }
        try:
            placement = self.planner.plan_incremental(
                topology,
                tenant.demands,
                self.admission.residual(),
                exclude=frozenset(self.down),
            )
        except DeploymentError as exc:
            self._admission_rejects.inc()
            tenant.reject_reason = str(exc)
            if qos.queue_on_reject:
                tenant.state = TenantState.QUEUED
                self._queue.append(tenant_id)
                return tenant
            tenant.state = TenantState.REJECTED
            raise AdmissionError(
                tenant_id, str(exc), breakdown=exc.breakdown
            ) from exc
        self._instantiate(tenant, placement)
        return tenant

    def _validate(self, tenant: Tenant) -> Optional[str]:
        if not tenant.topology.programs:
            return "topology has no devices"
        if len(tenant.topology.programs) > TENANT_BLOCK:
            return f"topology exceeds {TENANT_BLOCK} devices"
        if None in tenant.topology.programs.values():
            return "topology declares a device without a program"
        try:
            tenant.topology.validate()
        except DeploymentError as exc:
            return str(exc)
        fabric_hosts = set(self.fabric.hosts)
        for h in tenant.hosts:
            if h not in fabric_hosts:
                return f"host {h} is not in the fabric"
            owner = self._host_owner.get(h)
            if owner is not None:
                return f"host {h} is already attached to tenant {owner!r}"
        return None

    def _register_tenant_metrics(self, tenant: Tenant) -> None:
        """Eagerly create the tenant's instruments so every telemetry
        export names them even before the first packet."""
        m = self.network.metrics
        tag = tenant.tenant_id
        for name in ("packets", "computed", "drops", "rate_limited"):
            m.counter(f"tenant.{tag}.{name}")
        m.counter(f"tenant.{tag}.migrations")
        m.histogram(f"tenant.{tag}.latency_ns")

    def _instantiate(self, tenant: Tenant, placement: Dict[int, int]) -> None:
        topology = tenant.topology
        base = TENANT_BASE + tenant.index * TENANT_BLOCK
        for i, dev in enumerate(sorted(topology.programs)):
            gid = base + i
            tenant.abstract_to_gid[dev] = gid
            tenant.gid_to_abstract[gid] = dev
        for dev in sorted(topology.programs):
            cp = topology.programs[dev]
            gid = tenant.abstract_to_gid[dev]
            tdev = TenantDevice(self, tenant, dev, gid, cp)
            if tenant.qos.max_pps is not None:
                tdev.bucket = TokenBucket(
                    tenant.qos.max_pps, tenant.qos.burst, self.network.sim.now_ns
                )
            self.network.add_switch(
                tdev, processing_ns=pipeline_latency_ns(cp, 400)
            )
            self.network.link(
                DEVICE(gid),
                DEVICE(TRANSIT_BASE + placement[dev]),
                self._internal_link(),
            )
            tenant.devices[dev] = tdev
        gbase = GROUP_BASE + tenant.index * TENANT_BLOCK
        for i, g in enumerate(sorted(topology.multicast_groups)):
            global_g = gbase + i
            tenant.group_map[g] = global_g
            members = [
                m if m[0] == "h" else DEVICE(tenant.abstract_to_gid[m[1]])
                for m in topology.multicast_groups[g]
            ]
            self.network.add_multicast_group(global_g, members)
        for h in tenant.hosts:
            self._host_owner[h] = tenant.tenant_id
            self.network.hosts[h].serialize_overheads = topology.serialize_overheads
        tenant.placement = dict(placement)
        self.admission.reserve(placement, tenant.demands)
        tenant.state = TenantState.RUNNING
        self._tenants_active.inc()

    def evict(self, tenant_id: str) -> Tenant:
        """Tear a tenant out of the fabric and return its headroom."""
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            raise AdmissionError(tenant_id, "unknown tenant")
        if tenant.state is TenantState.QUEUED:
            self._queue.remove(tenant_id)
            tenant.state = TenantState.EVICTED
            self._evictions.inc()
            return tenant
        if tenant.state is not TenantState.RUNNING:
            raise AdmissionError(tenant_id, f"not running (state: {tenant.state.value})")
        for dev in sorted(tenant.devices):
            self.network.remove_switch(tenant.abstract_to_gid[dev])
        for g in tenant.group_map.values():
            self.network.multicast_groups.pop(g, None)
        for h in tenant.hosts:
            if self._host_owner.get(h) == tenant_id:
                del self._host_owner[h]
        self.admission.release(tenant.booked(tenant.placement), tenant.demands)
        tenant.state = TenantState.EVICTED
        self._tenants_active.dec()
        self._evictions.inc()
        self._drain_queue()
        return tenant

    def _drain_queue(self) -> None:
        """Try queued tenants, highest priority first (FIFO within)."""
        for tenant_id in sorted(
            list(self._queue),
            key=lambda tid: (-self.tenants[tid].qos.priority, self.tenants[tid].index),
        ):
            tenant = self.tenants[tenant_id]
            reason = self._validate(tenant)
            if reason is not None:
                continue
            try:
                placement = self.planner.plan_incremental(
                    tenant.topology,
                    tenant.demands,
                    self.admission.residual(),
                    exclude=frozenset(self.down),
                )
            except DeploymentError as exc:
                tenant.reject_reason = str(exc)
                continue
            self._queue.remove(tenant_id)
            self._instantiate(tenant, placement)

    # -- failure handling / migration ---------------------------------------
    def start(self) -> "INCService":
        """Arm the watchdog: heartbeat every switch through the simulator."""
        if not self._watchdog_armed:
            self._watchdog_armed = True
            self._watchdog_gen += 1
            self.network.sim.after(self.heartbeat_ns, self._tick, self._watchdog_gen)
        return self

    def stop(self) -> None:
        self._watchdog_armed = False

    def _tick(self, gen: int) -> None:
        if not self._watchdog_armed or gen != self._watchdog_gen:
            return  # stopped, or a restart superseded this chain
        self._heartbeats.inc()
        for sid in sorted(self.fabric.switches):
            if sid in self.down:
                continue
            if not self.network.is_up(DEVICE(TRANSIT_BASE + sid)):
                self._handle_switch_down(sid)
        self.network.sim.after(self.heartbeat_ns, self._tick, gen)

    def crash_switch(self, switch_id: int) -> None:
        """Take one physical switch down.  The watchdog notices on its
        next heartbeat and live-migrates every tenant device on it."""
        if switch_id not in self.fabric.switches:
            raise KeyError(f"switch {switch_id} is not in the fabric")
        self.network.crash_switch(TRANSIT_BASE + switch_id)

    def restart_switch(self, switch_id: int) -> None:
        """Bring a crashed switch back (empty) and retry queued tenants."""
        self.network.restart_switch(TRANSIT_BASE + switch_id)
        self.down.discard(switch_id)
        # Devices a failed migration stranded here come back with the
        # switch, and so does their claim on its headroom.
        for tenant in self.tenants.values():
            if tenant.state is not TenantState.RUNNING:
                continue
            back = {
                d: switch_id
                for d in tenant.stranded
                if tenant.placement[d] == switch_id
            }
            self.admission.reserve(back, tenant.demands)
            tenant.stranded.difference_update(back)
        self._drain_queue()

    def _handle_switch_down(self, sid: int) -> None:
        self.down.add(sid)
        for tenant in sorted(self.tenants.values(), key=lambda t: t.index):
            if tenant.state is not TenantState.RUNNING:
                continue
            affected = {d: s for d, s in tenant.placement.items() if s == sid}
            if not affected:
                continue
            self.migrate(tenant, affected)

    def migrate(self, tenant: Tenant, affected: Dict[int, int]) -> bool:
        """Re-place ``affected`` (abstract device -> dead/overfull switch)
        into the remaining headroom; journal-replay managed state onto the
        new slices and re-drive the tenant's reliable channels."""
        demands = {d: tenant.demands[d] for d in affected}
        pinned = {
            d: s for d, s in tenant.placement.items() if d not in affected
        }
        booked = tenant.booked(affected)
        self.admission.release(booked, demands)
        try:
            moves = self.planner.plan_incremental(
                tenant.topology,
                demands,
                self.admission.residual(),
                exclude=frozenset(self.down),
                pinned=pinned,
            )
        except DeploymentError as exc:
            # Nowhere to go: the devices stay stranded on the dead switch
            # (their reservation stays released — the capacity is gone).
            tenant.stranded.update(affected)
            self._migration_failures.inc()
            tenant.reject_reason = str(exc)
            return False
        self.admission.reserve(booked, demands)
        self._move_devices(tenant, moves)
        return True

    def _move_devices(self, tenant: Tenant, moves: Dict[int, int]) -> None:
        demands = {d: tenant.demands[d] for d in moves}
        old = {d: tenant.placement[d] for d in moves}
        self.admission.release(tenant.booked(old), demands)
        tenant.stranded.difference_update(moves)
        m = self.network.metrics
        for dev in sorted(moves):
            new_sid = moves[dev]
            gid = tenant.abstract_to_gid[dev]
            self.network.remove_link(
                DEVICE(gid), DEVICE(TRANSIT_BASE + old[dev])
            )
            self.network.link(
                DEVICE(gid), DEVICE(TRANSIT_BASE + new_sid), self._internal_link()
            )
            tdev = tenant.devices[dev]
            # The program physically ran on the old switch: its state died
            # with it.  Reboot the slice, then re-install managed memory
            # from the tenant's compacted control-plane journal.
            tdev.inner.reset_state()
            conn = tenant.connections.get(dev)
            if conn is not None:
                target = DeviceConnection(tdev.inner)
                self._ops_replayed.inc(conn.replay(target))
                conn.retarget(target)
            tenant.placement[dev] = new_sid
            self._migrations.inc()
            tenant.migrations += 1
            m.counter(f"tenant.{tenant.tenant_id}.migrations").inc()
        self.admission.reserve(moves, demands)
        moved = set(moves)
        for dev, ch in tenant.channels:
            if dev in moved:
                # Same global id — but retarget re-drives every pending
                # retransmit-mode request, recovering what the outage ate.
                ch.retarget(tenant.abstract_to_gid[dev])
        if tenant.on_migrate is not None:
            tenant.on_migrate(self, tenant)

    def defragment(self) -> int:
        """Bin-pack running tenants onto the lowest-id switches that fit
        (first-fit decreasing); migrates every device whose switch
        changes.  Returns the number of devices moved."""
        running = sorted(
            (t for t in self.tenants.values() if t.state is TenantState.RUNNING),
            key=lambda t: t.index,
        )
        free = {
            sid: list(cap)
            for sid, cap in self.admission.capacity.items()
            if sid not in self.down
        }
        targets: Dict[str, Dict[int, int]] = {}
        for tenant in running:
            chosen: Dict[int, int] = {}
            order = sorted(
                tenant.demands, key=lambda d: (-tenant.demands[d].stages, d)
            )
            for dev in order:
                need = tenant.demands[dev]
                new_sid = None
                for sid in sorted(free):
                    if sid in chosen.values():
                        continue
                    if fit_reason(
                        need.stages, need.sram_pct, need.salu_pct, free[sid]
                    ) is None:
                        new_sid = sid
                        break
                if new_sid is None:
                    # Can't pack this device anywhere: keep it (and charge
                    # its current switch, unless that one is down) rather
                    # than strand it.
                    new_sid = tenant.placement[dev]
                chosen[dev] = new_sid
                if new_sid in free:
                    free[new_sid][0] -= need.stages
                    free[new_sid][1] -= need.sram_pct
                    free[new_sid][2] -= need.salu_pct
            targets[tenant.tenant_id] = chosen
        total = 0
        for tenant in running:
            moves = {
                d: s
                for d, s in targets[tenant.tenant_id].items()
                if tenant.placement[d] != s
            }
            if moves:
                self._move_devices(tenant, moves)
                total += len(moves)
        self._defrag_moves.inc(total)
        return total

    def update_headroom(self, switch_id: int, **headroom: float) -> None:
        """The operator's base program grew or shrank on one switch.
        Validates keys against the fabric model; if reservations no
        longer fit, tenants are migrated off lowest-priority-first."""
        if switch_id not in self.fabric.switches:
            raise KeyError(f"switch {switch_id} is not in the fabric")
        sw = self.fabric.switches[switch_id]
        self.admission.set_capacity(switch_id, **headroom)  # validates keys
        for key, value in headroom.items():
            setattr(sw, key, value)
        while self.admission.overcommitted():
            sid = self.admission.overcommitted()[0]
            victims = sorted(
                (
                    t
                    for t in self.tenants.values()
                    if t.state is TenantState.RUNNING
                    and sid in t.placement.values()
                ),
                key=lambda t: (t.qos.priority, t.index),
            )
            if not victims:
                break
            tenant = victims[0]
            affected = {d: s for d, s in tenant.placement.items() if s == sid}
            if not self.migrate(tenant, affected):
                # Migration failed with the reservation released; books are
                # consistent again, but stop before thrashing.
                break

    # -- tenant-facing plumbing ----------------------------------------------
    def control(self, tenant_id: str, abstract_device: int) -> ReplicatedConnection:
        """A journaling control-plane handle to one tenant device; the
        journal is what migration replays onto a replacement slice."""
        tenant = self._running(tenant_id)
        conn = tenant.connections.get(abstract_device)
        if conn is None:
            inner = tenant.devices[abstract_device].inner
            conn = ReplicatedConnection(DeviceConnection(inner))
            tenant.connections[abstract_device] = conn
        return conn

    def register_channel(
        self, tenant_id: str, abstract_device: int, channel
    ) -> None:
        """Channels registered here are retargeted (pending requests
        re-driven) whenever their device migrates."""
        self._running(tenant_id).channels.append((abstract_device, channel))

    def observe_latency(self, tenant_id: str, latency_ns: int) -> None:
        """Feed one request latency into the tenant's SLO histogram."""
        self.network.metrics.histogram(
            f"tenant.{tenant_id}.latency_ns"
        ).observe(latency_ns)

    # -- reporting -----------------------------------------------------------
    def utilization(self) -> Dict[int, dict]:
        return self.admission.utilization()

    def tenant_report(self, tenant: Tenant) -> dict:
        m = self.network.metrics
        tag = tenant.tenant_id
        hist = m.histogram(f"tenant.{tag}.latency_ns")
        p99_us = hist.quantile(0.99) / 1000.0 if hist.count else None
        slo = {
            "max_latency_us": tenant.qos.max_latency_us,
            "observed_p99_us": round(p99_us, 2) if p99_us is not None else None,
            "met": (
                None
                if tenant.qos.max_latency_us is None or p99_us is None
                else p99_us <= tenant.qos.max_latency_us
            ),
        }
        out = {
            "state": tenant.state.value,
            "priority": tenant.qos.priority,
            "placement": {str(d): s for d, s in sorted(tenant.placement.items())},
            "device_ids": {
                str(d): g for d, g in sorted(tenant.abstract_to_gid.items())
            },
            "migrations": tenant.migrations,
            "counters": {
                name: int(m.value(f"tenant.{tag}.{name}"))
                for name in ("packets", "computed", "drops", "rate_limited")
            },
            "slo": slo,
        }
        if tenant.reject_reason is not None:
            out["reject_reason"] = tenant.reject_reason.splitlines()[0]
        return out

    def report(self) -> dict:
        """Fabric utilization + per-tenant state/counters/SLO snapshot."""
        m = self.network.metrics
        return {
            "sim_ns": self.network.sim.now_ns,
            "down_switches": sorted(self.down),
            "fabric": {str(k): v for k, v in sorted(self.utilization().items())},
            "service": {
                "tenants_active": int(m.value("service.tenants_active")),
                "submissions": int(m.value("service.submissions")),
                "admission_rejects": int(m.value("service.admission_rejects")),
                "evictions": int(m.value("service.evictions")),
                "migrations": int(m.value("service.migrations")),
                "migration_failures": int(m.value("service.migration_failures")),
                "ops_replayed": int(m.value("service.ops_replayed")),
                "heartbeats": int(m.value("service.heartbeats")),
                "defrag_moves": int(m.value("service.defrag_moves")),
            },
            "tenants": {
                tid: self.tenant_report(t)
                for tid, t in sorted(self.tenants.items())
            },
        }
