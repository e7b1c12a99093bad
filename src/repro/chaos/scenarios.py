"""Acceptance scenarios: the paper's apps surviving injected failures.

Each scenario builds a two-switch deployment (a primary and a standby
running the primary's program), wires the hosts through
:class:`~repro.reliability.channel.ReliableChannel`, arms a
:class:`~repro.chaos.plan.ChaosPlan` that combines packet loss,
duplication, reordering, jitter, *and* a mid-run crash of the primary
switch, and then validates end-to-end correctness of the results.

Every run returns a :class:`ChaosRunResult` carrying the full telemetry
snapshot and a SHA-256 digest over the application-visible outcome plus
all counters: two runs with the same seed must produce identical
digests (the determinism acceptance criterion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.apps import compile_app
from repro.apps.agg import AGG_DEVICE, AggWorker, SLOT_SIZE, agg_topology
from repro.apps.cache import (
    CACHE_DEVICE,
    CacheClient,
    CacheController,
    GET_REQ,
    KVServer,
    PUT_REQ,
    VALUE_WORDS,
    cache_topology,
)
from repro.chaos.inject import ChaosController
from repro.chaos.plan import ChaosPlan
from repro.collective.protocol import resync_streams
from repro.netsim import Link
from repro.reliability import BackoffPolicy, ReliableChannel, reliable_device
from repro.runtime import KernelSpec
from repro.scenario import ScenarioResult, acceptance_plan, digest


@dataclass(kw_only=True)
class ChaosRunResult(ScenarioResult):
    """What one chaos scenario run produced."""

    app: str
    completed: int
    expected: int
    failed_over: bool
    counters: dict[str, object] = field(default_factory=dict)
    plan: dict = field(default_factory=dict)


#: the standby switch of both acceptance runs; it runs the primary's
#: program, compiled for the primary's ``_at(1)`` placement
STANDBY_DEVICE = 2


def default_chaos_plan(
    seed: int,
    *,
    loss: float = 0.05,
    crash_at_ns: Optional[int] = 600_000,
) -> ChaosPlan:
    """The acceptance fault model: 5% loss + duplication + reordering +
    jitter on every link, and a crash of the primary switch mid-run."""
    return acceptance_plan(
        seed,
        crash_node="d1",
        crash_at_ns=crash_at_ns,
        loss=loss,
        duplicate=0.05,
        reorder=0.05,
        jitter_ns=1_000,
    )


def _value(key: int, salt: int) -> list[int]:
    return [(key * 31 + i * salt + 7) & 0xFFFFFFFF for i in range(VALUE_WORDS)]


class CacheAcceptance:
    """The CACHE acceptance workload, wired once for any deployment.

    A client and a KVS server on reliable channels around the switch of a
    realised :func:`~repro.apps.cache.cache_topology`: writes first, then
    interleaved hit/miss reads spanning whatever the run injects, then
    reads of the written keys.  The standalone chaos run and the
    service's cache tenant differ only in the ``deployment`` they pass
    (a :class:`~repro.deploy.DeploymentPlan` or a service ``Tenant``).
    """

    CACHED = [100 + i for i in range(6)]
    SERVED = [200 + i for i in range(6)]
    PUT = [300 + i for i in range(4)]

    def __init__(self, deployment) -> None:
        net = self.net = deployment.network
        client_host, server_host = deployment.topology.host_attachments
        program = deployment.topology.programs[CACHE_DEVICE]
        spec = KernelSpec.from_kernel(program.kernels()[0])
        device_id = deployment.address(CACHE_DEVICE)
        self.server = KVServer(net, server_host, spec)
        self.client = CacheClient(net, client_host, spec, device_id=device_id)
        self.client._server_id = server_host
        for h in (self.client.host, self.server.host):
            h.rx_overhead_ns = 3200
            h.tx_overhead_ns = 3200
        self.server.service_time_ns = 10_000
        self.client.channel = ReliableChannel(
            net,
            self.client.host,
            spec,
            target_device=device_id,
            policy=BackoffPolicy(base_timeout_ns=400_000, max_timeout_ns=3_200_000,
                                 max_retries=12),
        )
        self.server.channel = ReliableChannel(
            net, self.server.host, spec, target_device=device_id
        )
        for channel in (self.client.channel, self.server.channel):
            deployment.register_channel(CACHE_DEVICE, channel)
        #: (op, key, value) in issue order, and what each must return
        self.schedule: list[tuple[int, int, Optional[list[int]]]] = []
        self.expect: dict[tuple[int, int], list[int]] = {}
        # Fill the server's store and cache ``CACHED`` through the
        # deployment's control connection (a journaling one where failover
        # or migration replays it).
        self.controller = CacheController(
            deployment.control(CACHE_DEVICE), self.server
        )
        for k in self.CACHED:
            self.server.store[k] = _value(k, 3)
            self.controller.install(k, self.server.store[k])
        for k in self.SERVED:
            self.server.store[k] = _value(k, 5)

    def start(self, spacing_ns: int = 40_000) -> None:
        """Book the queries ``spacing_ns`` apart, from 50 us after now."""
        for k in self.PUT:
            self.schedule.append((PUT_REQ, k, _value(k, 7)))
            self.expect[(PUT_REQ, k)] = _value(k, 7)
        for _ in range(2):
            for hit_k, miss_k in zip(self.CACHED, self.SERVED):
                self.schedule.append((GET_REQ, hit_k, None))
                self.expect[(GET_REQ, hit_k)] = _value(hit_k, 3)
                self.schedule.append((GET_REQ, miss_k, None))
                self.expect[(GET_REQ, miss_k)] = _value(miss_k, 5)
        for k in self.PUT:
            self.schedule.append((GET_REQ, k, None))
            self.expect[(GET_REQ, k)] = _value(k, 7)
        t = self.net.sim.now_ns + 50_000
        for op, key, value in self.schedule:
            self.net.sim.at(
                t, lambda op=op, key=key, value=value: self.client.query(op, key, value)
            )
            t += spacing_ns

    @property
    def hits(self) -> int:
        return sum(1 for r in self.client.completed if r.served_by_cache)

    def errors(self) -> list[str]:
        """Every query completed, every GET returned what was stored, and
        the switch cache served at least one of them."""
        completed = self.client.completed
        errors: list[str] = []
        if len(completed) != len(self.schedule):
            errors.append(
                f"completed {len(completed)}/{len(self.schedule)} queries "
                f"({self.client.channel.outstanding} still outstanding)"
            )
        for rec in completed:
            want = self.expect.get((rec.op, rec.key))
            if want is None:
                errors.append(f"unexpected completion op={rec.op} key={rec.key}")
            elif rec.op == GET_REQ and list(rec.value or []) != want:
                errors.append(f"GET {rec.key} returned wrong value")
        if not self.hits:
            errors.append("no query was served by the switch cache")
        return errors

    def records(self) -> list[list]:
        """The application-visible outcome, for the run digest."""
        return [
            [r.op, r.key, r.value, r.served_by_cache, r.done_ns]
            for r in self.client.completed
        ]


# ---------------------------------------------------------------------------
# CACHE under chaos
# ---------------------------------------------------------------------------

def run_cache_chaos(
    seed: int = 7,
    *,
    plan: Optional[ChaosPlan] = None,
) -> ChaosRunResult:
    """NetCache client/server/controller surviving the acceptance plan.

    Cached GETs must keep returning correct values through loss,
    duplication, reordering, and a primary-switch crash with failover to
    a standby whose cache lines are re-installed from the control-plane
    journal.
    """
    plan = plan if plan is not None else default_chaos_plan(seed)
    program = compile_app("cache", CACHE_DEVICE)
    deployment = cache_topology(
        1, 2, program, spare=(STANDBY_DEVICE, program)
    ).realise(seed=seed, link=Link(latency_ns=1200), device=reliable_device())
    net = deployment.network

    work = CacheAcceptance(deployment)
    # promotion replays the cache lines the controller journaled
    (failover,) = deployment.failover(heartbeat_ns=150_000)

    ChaosController(net, plan).arm()
    work.start()
    net.sim.run(until_ns=100_000_000)

    errors = work.errors()
    if plan.events and not failover.failed_over:
        errors.append("primary crash never triggered failover")

    m = net.metrics
    counters = {
        "cache_hits": work.hits,
        "retransmits": m.total("reliability.ch.retransmits."),
        "expired": m.total("reliability.ch.expired."),
        "dup_rx_dropped": m.total("reliability.ch.dup_rx_dropped."),
        "reply_replays": m.total("reliability.ch.reply_replays."),
        "device_dup_drops": m.total("reliability.dup_drops"),
        "device_replays": m.total("reliability.replays"),
        "device_corrupt_drops": m.total("reliability.corrupt_drops"),
        "failovers": m.total("reliability.failover.count"),
        "failover_ops_replayed": m.total("reliability.failover.ops_replayed"),
        "chaos_lost": m.total("chaos.lost"),
        "chaos_duplicated": m.total("chaos.duplicated"),
        "chaos_reordered": m.total("chaos.reordered"),
    }
    snapshot = m.snapshot()
    run_digest = digest(
        {
            "app": "cache",
            "seed": seed,
            "records": work.records(),
            "metrics": snapshot,
        }
    )
    return ChaosRunResult(
        app="cache",
        seed=seed,
        ok=not errors,
        errors=errors,
        completed=len(work.client.completed),
        expected=len(work.schedule),
        failed_over=failover.failed_over,
        sim_ns=net.sim.now_ns,
        digest=run_digest,
        counters=counters,
        plan=plan.to_dict(),
        metrics=snapshot,
    )


# ---------------------------------------------------------------------------
# AGG under chaos
# ---------------------------------------------------------------------------

def run_agg_chaos(
    seed: int = 7,
    *,
    plan: Optional[ChaosPlan] = None,
) -> ChaosRunResult:
    """SwitchML aggregation surviving the acceptance plan.

    On failover the in-flight aggregation state dies with the primary;
    the manager's hook resynchronizes every worker to the earliest chunk
    any worker still needs on each slot, and the slot protocol re-builds
    the lost partial aggregations on the standby.
    """
    plan = (
        plan
        if plan is not None
        else default_chaos_plan(seed, crash_at_ns=60_000)
    )
    num_workers, tensor_elements = 2, 2048
    program = compile_app("agg", AGG_DEVICE, defines={"NUM_WORKERS": num_workers})
    # ordered=True: the slot protocol assumes per-worker FIFO delivery
    # (a late out-of-order contribution from an advanced worker corrupts
    # the version-alternating bitmap), so the device drops stale packets
    # and lets the worker's fresh-sequence retransmission recover them.
    deployment = agg_topology(
        list(range(1, num_workers + 1)), program, spare=(STANDBY_DEVICE, program)
    ).realise(seed=seed, device=reliable_device(ordered=True))
    net = deployment.network

    rng = random.Random(f"{seed}:tensor")
    spec = KernelSpec.from_kernel(program.kernels()[0])
    workers: list[AggWorker] = []
    for w in range(num_workers):
        tensor = [rng.randrange(0, 1 << 16) for _ in range(tensor_elements)]
        worker = AggWorker(
            net, w + 1, w, spec, tensor, window=8, device_id=AGG_DEVICE
        )
        worker.channel = ReliableChannel(
            net, worker.host, spec, target_device=AGG_DEVICE
        )
        deployment.register_channel(AGG_DEVICE, worker.channel)
        workers.append(worker)

    # the primary took the in-flight aggregates with it
    (failover,) = deployment.failover(on_failover=lambda mgr: resync_streams(workers))

    ChaosController(net, plan).arm()

    for w in workers:
        w.start()
    net.sim.run(until_ns=100_000_000)

    errors: list[str] = []
    num_chunks = (tensor_elements + SLOT_SIZE - 1) // SLOT_SIZE
    done = sum(1 for w in workers if w.done)
    if done != num_workers:
        errors.append(f"only {done}/{num_workers} workers finished")
    expected_result = [0] * tensor_elements
    for w in workers:
        for i, v in enumerate(w.tensor):
            expected_result[i] = (expected_result[i] + v) & 0xFFFFFFFF
    for w in workers:
        if w.done and w.result != expected_result:
            bad = sum(1 for a, b in zip(w.result, expected_result) if a != b)
            errors.append(
                f"worker {w.worker_index} aggregated {bad}/{tensor_elements} "
                "elements wrong"
            )
    if plan.events and not failover.failed_over:
        errors.append("primary crash never triggered failover")

    m = net.metrics
    counters = {
        "chunks": num_chunks * num_workers,
        "app_retransmissions": sum(w.stats.retransmissions for w in workers),
        "acks": m.total("reliability.ch.acks."),
        "dup_rx_dropped": m.total("reliability.ch.dup_rx_dropped."),
        "device_dup_drops": m.total("reliability.dup_drops"),
        "device_stale_drops": m.total("reliability.stale_drops"),
        "device_replays": m.total("reliability.replays"),
        "failovers": m.total("reliability.failover.count"),
        "chaos_lost": m.total("chaos.lost"),
        "chaos_duplicated": m.total("chaos.duplicated"),
        "chaos_reordered": m.total("chaos.reordered"),
    }
    snapshot = m.snapshot()
    run_digest = digest(
        {
            "app": "agg",
            "seed": seed,
            "results": [w.result for w in workers],
            "finished": [w.stats.finished_at_ns for w in workers],
            "metrics": snapshot,
        }
    )
    return ChaosRunResult(
        app="agg",
        seed=seed,
        ok=not errors,
        errors=errors,
        completed=sum(w.stats.chunks_completed for w in workers),
        expected=num_chunks * num_workers,
        failed_over=failover.failed_over,
        sim_ns=net.sim.now_ns,
        digest=run_digest,
        counters=counters,
        plan=plan.to_dict(),
        metrics=snapshot,
    )


SCENARIOS = {
    "cache": run_cache_chaos,
    "agg": run_agg_chaos,
}
