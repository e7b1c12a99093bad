"""Service workload replay: JSON event plans driving one shared fabric.

A :class:`ServicePlan` is a JSON document describing a fabric and a
timeline of control-plane events (``submit`` / ``evict`` / ``crash`` /
``restart`` / ``defragment`` / ``headroom``).  :func:`run_service_plan`
builds the :class:`~repro.service.orchestrator.INCService`, replays the
events through the simulator, drives each admitted tenant's application
traffic with an app driver, and returns a :class:`ServiceRunResult`
carrying per-tenant outcomes, the service report, and a SHA-256 digest
over everything application-visible — two runs of the same plan must
produce identical digests.

Drivers wire the paper's evaluation apps to the multi-tenant service:

* ``agg``   — SwitchML workers streaming tensors through their slice.
* ``cache`` — NetCache client/server/controller; cache lines installed
  through the service's journaling control plane survive migration.
* ``echo``  — a minimal stateless tenant (rate-limit and packing tests).
* ``bulk``  — an oversized multi-device tenant used to exercise
  resource-attributed admission rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.collective.protocol import resync_streams
from repro.core import compile_netcl
from repro.deploy.planner import AbstractTopology, PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.reliability import ReliableChannel
from repro.runtime import KernelSpec, Message
from repro.runtime.message import unpack_packet
from repro.scenario import ScenarioResult, digest
from repro.service.admission import AdmissionError
from repro.service.orchestrator import INCService, Tenant, TenantState
from repro.service.qos import TenantQoS


def _node(tag: str):
    """Decode ``"h3"`` / ``"d2"`` link-endpoint notation."""
    kind, ident = tag[0], int(tag[1:])
    if kind == "h":
        return HOST(ident)
    if kind == "d":
        return DEVICE(ident)
    raise ValueError(f"bad node {tag!r}: want h<id> or d<id>")


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass
class ServicePlan:
    """A replayable service workload."""

    seed: int = 7
    horizon_ms: float = 20.0
    heartbeat_us: int = 150
    fabric: dict = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "horizon_ms": self.horizon_ms,
            "heartbeat_us": self.heartbeat_us,
            "fabric": self.fabric,
            "events": self.events,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ServicePlan":
        return cls(
            seed=int(d.get("seed", 7)),
            horizon_ms=float(d.get("horizon_ms", 20.0)),
            heartbeat_us=int(d.get("heartbeat_us", 150)),
            fabric=dict(d.get("fabric", {})),
            events=list(d.get("events", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServicePlan":
        return cls.from_dict(json.loads(text))

    def build_fabric(self) -> PhysicalFabric:
        fab = PhysicalFabric()
        for sw in self.fabric.get("switches", []):
            headroom = {k: v for k, v in sw.items() if k != "id"}
            fab.add_switch(int(sw["id"]), **headroom)
        for h in self.fabric.get("hosts", []):
            fab.add_host(int(h))
        for a, b in self.fabric.get("links", []):
            fab.link(_node(a), _node(b))
        return fab


def default_service_plan(seed: int = 7, *, crash_at_us: Optional[int] = 400) -> ServicePlan:
    """The acceptance workload: AGG and CACHE share a 4-switch ring, an
    oversized tenant is rejected with a resource-attributed error, and a
    mid-run switch crash live-migrates the CACHE tenant."""
    events = [
        {
            "at_us": 10, "kind": "submit", "tenant": "agg", "app": "agg",
            "hosts": [1, 2], "tensor_elements": 512, "window": 8,
            "qos": {"priority": 2, "ordered": True},
        },
        {
            "at_us": 20, "kind": "submit", "tenant": "cache", "app": "cache",
            "hosts": [3, 4],
            "qos": {"priority": 1, "max_latency_us": 4000.0},
        },
        {
            "at_us": 30, "kind": "submit", "tenant": "bulk", "app": "bulk",
            "hosts": [5], "devices": 3, "expect": "reject",
        },
    ]
    if crash_at_us is not None:
        events.append({"at_us": crash_at_us, "kind": "crash", "switch": 3})
    return ServicePlan(
        seed=seed,
        horizon_ms=20.0,
        heartbeat_us=150,
        fabric={
            "switches": [{"id": s, "free_stages": 12} for s in (1, 2, 3, 4)],
            "hosts": [1, 2, 3, 4, 5],
            "links": [
                ["d1", "d2"], ["d2", "d3"], ["d3", "d4"], ["d4", "d1"],
                ["h1", "d1"], ["h1", "d2"], ["h2", "d1"], ["h2", "d2"],
                ["h3", "d3"], ["h3", "d4"], ["h4", "d3"], ["h4", "d4"],
                ["h5", "d2"], ["h5", "d4"],
            ],
        },
        events=events,
    )


# ---------------------------------------------------------------------------
# App drivers
# ---------------------------------------------------------------------------

ECHO_SRC = (
    "_kernel(1) void echo(uint32_t x, uint32_t &y) "
    "{ y = x * 3 + 1; return ncl::reflect(); }"
)


class AppDriver:
    """Wires one tenant's hosts to its admitted slice and checks results."""

    def __init__(self, service: INCService, tenant_id: str, event: dict) -> None:
        self.service = service
        self.tenant_id = tenant_id
        self.event = event
        self.launched = False

    def launch(self, tenant: Tenant) -> None:
        self.launched = True

    def on_migrate(self, service: INCService, tenant: Tenant) -> None:
        pass


class AggDriver(AppDriver):
    """SwitchML aggregation as a tenant (abstract device 1, group 42)."""

    def build(self) -> AbstractTopology:
        from repro.apps import compile_app
        from repro.apps.agg import AGG_DEVICE, agg_topology

        self.hosts = [int(h) for h in self.event["hosts"]]
        self.elements = int(self.event.get("tensor_elements", 512))
        self.window = int(self.event.get("window", 8))
        self.compiled = compile_app(
            "agg", AGG_DEVICE, defines={"NUM_WORKERS": len(self.hosts)}
        )
        return agg_topology(self.hosts, self.compiled)

    def launch(self, tenant: Tenant) -> None:
        from repro.apps.agg import AGG_DEVICE, AggWorker

        super().launch(tenant)
        net = self.service.network
        gid = tenant.abstract_to_gid[AGG_DEVICE]
        spec = KernelSpec.from_kernel(self.compiled.kernels()[0])
        rng = net.child_rng(f"tenant:{self.tenant_id}:tensor")
        self.workers: List[AggWorker] = []
        for i, h in enumerate(self.hosts):
            tensor = [rng.randrange(0, 1 << 16) for _ in range(self.elements)]
            worker = AggWorker(
                net, h, i, spec, tensor, window=self.window, device_id=gid
            )
            worker.channel = ReliableChannel(
                net, worker.host, spec, target_device=gid
            )
            self.service.register_channel(self.tenant_id, AGG_DEVICE, worker.channel)
            self.workers.append(worker)
        for w in self.workers:
            w.start()

    def on_migrate(self, service: INCService, tenant: Tenant) -> None:
        """Post-migration resync: the slice rebooted, so every slot
        restarts at the earliest chunk any worker still has in flight."""
        if self.launched:
            resync_streams(self.workers)

    def finish(self) -> dict:
        errors: List[str] = []
        expected = [0] * self.elements
        for w in self.workers:
            for i, v in enumerate(w.tensor):
                expected[i] = (expected[i] + v) & 0xFFFFFFFF
        done = sum(1 for w in self.workers if w.done)
        if done != len(self.workers):
            errors.append(f"only {done}/{len(self.workers)} workers finished")
        for w in self.workers:
            if w.done and w.result != expected:
                errors.append(f"worker {w.worker_index} aggregated wrong values")
        return {
            "ok": not errors,
            "errors": errors,
            "completed": sum(w.stats.chunks_completed for w in self.workers),
            "expected": sum(w.num_chunks for w in self.workers),
            "retransmissions": sum(w.stats.retransmissions for w in self.workers),
            "checksum": digest(
                {
                    "results": [w.result for w in self.workers],
                    "finished": [w.stats.finished_at_ns for w in self.workers],
                }
            ),
        }


class CacheDriver(AppDriver):
    """NetCache as a tenant; cache lines live in the service's journaled
    control plane, so they follow the slice across migrations."""

    def build(self) -> AbstractTopology:
        from repro.apps import compile_app
        from repro.apps.cache import CACHE_DEVICE, cache_topology

        client, server = (int(h) for h in self.event["hosts"])
        return cache_topology(client, server, compile_app("cache", CACHE_DEVICE))

    def launch(self, tenant: Tenant) -> None:
        from repro.chaos.scenarios import CacheAcceptance

        super().launch(tenant)
        self.work = CacheAcceptance(tenant)
        self.work.start(int(self.event.get("spacing_us", 40)) * 1000)

    def finish(self) -> dict:
        work = self.work
        for rec in work.client.completed:
            if rec.latency_ns is not None:
                self.service.observe_latency(self.tenant_id, rec.latency_ns)
        errors = work.errors()
        return {
            "ok": not errors,
            "errors": errors,
            "completed": len(work.client.completed),
            "expected": len(work.schedule),
            "cache_hits": work.hits,
            "checksum": digest({"records": work.records()}),
        }


class EchoDriver(AppDriver):
    """A minimal stateless tenant: x in, 3x+1 reflected back."""

    def build(self) -> AbstractTopology:
        self.host_id = int(self.event["hosts"][0])
        self.requests = int(self.event.get("requests", 20))
        self.spacing_ns = int(self.event.get("spacing_us", 20)) * 1000
        # one name for every echo tenant (the id lives on the Tenant), so
        # they all share one compile
        self.compiled = compile_netcl(ECHO_SRC, 1, program_name="echo")
        return AbstractTopology.star(1, self.compiled, [self.host_id])

    def launch(self, tenant: Tenant) -> None:
        super().launch(tenant)
        net = self.service.network
        gid = tenant.abstract_to_gid[1]
        self.spec = KernelSpec.from_kernel(self.compiled.kernels()[0])
        self.replies: Dict[int, int] = {}
        self.sent_ns: Dict[int, int] = {}
        host = net.hosts[self.host_id]

        def on_receive(packet, now_ns):
            x, y = unpack_packet(packet, self.spec)
            self.replies[x] = y
            self.service.observe_latency(
                self.tenant_id, now_ns - self.sent_ns.get(x, now_ns)
            )

        host.on_receive = on_receive
        t = net.sim.now_ns + 10_000
        for i in range(self.requests):
            def send(i=i):
                self.sent_ns[i] = net.sim.now_ns
                host.send_message(
                    Message(src=self.host_id, dst=self.host_id, comp=1, to=gid),
                    self.spec,
                    [i, None],
                )

            net.sim.at(t, send)
            t += self.spacing_ns

    def finish(self) -> dict:
        errors = [
            f"echo({x}) returned {y}, want {3 * x + 1}"
            for x, y in sorted(self.replies.items())
            if y != 3 * x + 1
        ]
        m = self.service.network.metrics
        limited = int(m.value(f"tenant.{self.tenant_id}.rate_limited"))
        if not limited and len(self.replies) != self.requests:
            errors.append(f"completed {len(self.replies)}/{self.requests}")
        return {
            "ok": not errors,
            "errors": errors,
            "completed": len(self.replies),
            "expected": self.requests,
            "rate_limited": limited,
            "checksum": digest({"replies": sorted(self.replies.items())}),
        }


class BulkDriver(AppDriver):
    """An oversized multi-device tenant (N full-pipeline AGG programs),
    used to exercise resource-attributed admission rejects."""

    def build(self) -> AbstractTopology:
        from repro.apps import compile_app

        devices = int(self.event.get("devices", 3))
        # one program, compiled for device 1's placement, runs on every device
        program = compile_app("agg", 1, defines={"NUM_WORKERS": 2})
        topo = AbstractTopology()
        for d in range(1, devices + 1):
            topo.add_device(d, program)
            if d > 1:
                topo.connect_devices(d - 1, d)
        topo.attach_host(int(self.event["hosts"][0]), 1)
        return topo

    def finish(self) -> dict:
        return {"ok": True, "errors": [], "completed": 0, "expected": 0}


DRIVERS = {
    "agg": AggDriver,
    "cache": CacheDriver,
    "echo": EchoDriver,
    "bulk": BulkDriver,
}


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class ServiceRunResult(ScenarioResult):
    """What one service plan replay produced."""

    tenants: Dict[str, dict] = field(default_factory=dict)
    rejected: List[dict] = field(default_factory=list)
    report: dict = field(default_factory=dict)


def run_service_plan(plan: ServicePlan) -> ServiceRunResult:
    """Replay one plan; deterministic for a fixed plan (same digest)."""
    fabric = plan.build_fabric()
    service = INCService(
        fabric, seed=plan.seed, heartbeat_ns=plan.heartbeat_us * 1000
    ).start()
    net = service.network
    drivers: Dict[str, AppDriver] = {}
    rejected: List[dict] = []
    errors: List[str] = []

    def do_submit(ev: dict) -> None:
        tenant_id = ev["tenant"]
        driver = DRIVERS[ev["app"]](service, tenant_id, ev)
        drivers[tenant_id] = driver
        topology = driver.build()
        qos = TenantQoS.from_dict(ev.get("qos"))
        try:
            tenant = service.submit(
                tenant_id, topology, qos, on_migrate=driver.on_migrate
            )
        except AdmissionError as exc:
            rejected.append(
                {
                    "tenant": tenant_id,
                    "error": str(exc).splitlines()[0],
                    "breakdown": (
                        exc.breakdown.to_dict() if exc.breakdown else None
                    ),
                }
            )
            return
        if tenant.state is TenantState.RUNNING:
            driver.launch(tenant)

    def handler(ev: dict):
        kind = ev["kind"]
        if kind == "submit":
            return lambda: do_submit(ev)
        if kind == "evict":
            return lambda: service.evict(ev["tenant"])
        if kind == "crash":
            return lambda: service.crash_switch(int(ev["switch"]))
        if kind == "restart":
            return lambda: service.restart_switch(int(ev["switch"]))
        if kind == "defragment":
            return lambda: service.defragment()
        if kind == "headroom":
            return lambda: service.update_headroom(
                int(ev["switch"]),
                **{k: v for k, v in ev.items() if k.startswith("free_")},
            )
        raise ValueError(f"unknown event kind {kind!r}")

    for ev in plan.events:
        net.sim.at(int(ev.get("at_us", 0)) * 1000, handler(ev))
    net.sim.run(until_ns=int(plan.horizon_ms * 1e6))
    service.stop()

    outcomes: Dict[str, dict] = {}
    rejected_ids = {r["tenant"] for r in rejected}
    for ev in plan.events:
        if ev["kind"] != "submit":
            continue
        tenant_id = ev["tenant"]
        driver = drivers[tenant_id]
        expect = ev.get("expect", "admit")
        if tenant_id in rejected_ids:
            outcome = {
                "ok": expect == "reject",
                "errors": (
                    [] if expect == "reject" else ["unexpectedly rejected"]
                ),
                "rejected": True,
            }
        elif driver.launched:
            outcome = driver.finish()
            if expect == "reject":
                outcome["ok"] = False
                outcome["errors"] = outcome.get("errors", []) + [
                    "expected a rejection but was admitted"
                ]
        else:
            outcome = {"ok": True, "errors": [], "queued": True}
        outcomes[tenant_id] = outcome
        for err in outcome.get("errors", []):
            errors.append(f"{tenant_id}: {err}")

    report = service.report()
    snapshot = net.metrics.snapshot()
    run_digest = digest(
        {
            "seed": plan.seed,
            "outcomes": outcomes,
            "rejected": rejected,
            "report": report,
            "metrics": snapshot,
        }
    )
    return ServiceRunResult(
        seed=plan.seed,
        ok=not errors,
        errors=errors,
        sim_ns=net.sim.now_ns,
        digest=run_digest,
        tenants=outcomes,
        rejected=rejected,
        report=report,
        metrics=snapshot,
    )
