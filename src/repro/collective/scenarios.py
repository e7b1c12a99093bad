"""Acceptance scenario: a hierarchical collective surviving chaos.

The flagship run the subsystem is judged by: a 2-rack (two ToRs + one
spine), 8-worker float32 allreduce completing *bit-identically per seed*
under 5% loss, duplication, reordering, jitter, and a mid-run crash of
rack 0's ToR — with every worker's dequantized result inside the
quantization error bound of the exact float sum, and the in-network
fabric traffic (including every retransmission the chaos forced) still
below the host-ring baseline running over its reliable transport under
the same link faults.

Fault plan shape, result record and determinism digest are the shared
ones of :mod:`repro.scenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.inject import ChaosController
from repro.chaos.plan import ChaosPlan
from repro.collective.baseline import run_host_ring
from repro.collective.job import contribution, shard_range
from repro.collective.protocol import resync_streams
from repro.collective.tree import build_collective_cluster, leaf_device
from repro.scenario import ScenarioResult, acceptance_plan, digest


@dataclass(kw_only=True)
class CollectiveRunResult(ScenarioResult):
    """What one collective chaos run produced."""

    op: str
    num_racks: int
    workers_per_rack: int
    tensor_elements: int
    finished: int
    failed_over: bool
    finished_at_ns: Optional[int]
    max_abs_error: float
    error_bound: float
    innetwork_link_bytes: int
    ring_link_bytes: Optional[int]
    hops_saved: int
    counters: dict[str, object] = field(default_factory=dict)
    plan: dict = field(default_factory=dict)


def default_collective_plan(
    seed: int,
    *,
    loss: float = 0.05,
    duplicate: float = 0.05,
    reorder: float = 0.05,
    jitter_ns: int = 1_000,
    crash_at_ns: Optional[int] = 60_000,
) -> ChaosPlan:
    """The acceptance fault model, aimed at rack 0's primary ToR."""
    return acceptance_plan(
        seed,
        crash_node=f"d{leaf_device(0)}",
        crash_at_ns=crash_at_ns,
        loss=loss,
        duplicate=duplicate,
        reorder=reorder,
        jitter_ns=jitter_ns,
    )


def run_collective_chaos(
    seed: int = 7,
    *,
    op: str = "allreduce",
    num_racks: int = 2,
    workers_per_rack: int = 4,
    tensor_elements: int = 2048,
    window: int = 8,
    plan: Optional[ChaosPlan] = None,
    baseline: bool = True,
) -> CollectiveRunResult:
    """One collective surviving the acceptance fault plan.

    Every rack gets a standby ToR, and the deployment's failover a
    :class:`~repro.reliability.FailoverManager` per rack; on a ToR crash
    the manager retargets the rack's channels and the resync hook restarts
    both slot streams (exponent + reduce) of every rack worker at the
    earliest round any of them still has in flight per slot — the slot
    protocol then rebuilds the lost rack partials on the standby.
    """
    plan = plan if plan is not None else default_collective_plan(seed)
    cluster = build_collective_cluster(
        num_racks,
        workers_per_rack,
        window=window,
        seed=seed,
        standby=True,
        reliable=True,
    )
    net = cluster.network

    num_workers = cluster.num_workers
    rng = random.Random(f"{seed}:collective")
    if op == "allgather":
        tensors = []
        for rank in range(num_workers):
            lo, hi = shard_range(tensor_elements, num_workers, rank)
            tensors.append([rng.uniform(-50.0, 50.0) for _ in range(hi - lo)])
    elif op == "broadcast":
        tensors = [[rng.uniform(-50.0, 50.0) for _ in range(tensor_elements)]]
        tensors += [[] for _ in range(num_workers - 1)]
    else:
        tensors = [
            [rng.uniform(-50.0, 50.0) for _ in range(tensor_elements)]
            for _ in range(num_workers)
        ]
    job = cluster.submit(op, tensors)

    def resync(mgr) -> None:
        # The crashed ToR took its rack partials with it: both streams
        # of the rack restart on the standby.
        rack_workers = [
            w for w in cluster.workers if leaf_device(w.rack) == mgr.primary_id
        ]
        resync_streams(w.exp for w in rack_workers)
        resync_streams(w.reduce for w in rack_workers)
        for w in rack_workers:
            w.set_device(mgr.standby_id)

    managers = cluster.deployment.failover(on_failover=resync)

    ChaosController(net, plan).arm()
    cluster.run(until_ms=150.0)

    # -- validate -----------------------------------------------------------------
    errors: list[str] = []
    finished = sum(1 for w in cluster.workers if w.done)
    if finished != num_workers:
        errors.extend(cluster.stall_report())
        errors.append(f"only {finished}/{num_workers} workers finished")

    contribs = [
        contribution(op, tensors[r], r, num_workers, job.num_elements, job.root)
        for r in range(num_workers)
    ]
    exact = [0.0] * job.num_elements
    for c in contribs:
        for i, x in enumerate(c):
            exact[i] += x

    slot_size = cluster.workers[0].slot_size
    max_err = 0.0
    for w in cluster.workers:
        if not w.done:
            continue
        got = job.results[w.rank]
        base = 0
        if op == "reduce_scatter":
            base, hi = shard_range(job.num_elements, num_workers, w.rank)
            if len(got) != hi - base:
                errors.append(f"rank {w.rank}: wrong shard length {len(got)}")
                continue
        for i, a in enumerate(got):
            at = base + i
            err = abs(a - exact[at])
            max_err = max(max_err, err)
            bound = job.error_bound(at // slot_size)
            if err > bound:
                errors.append(
                    f"rank {w.rank} element {at}: |{a} - {exact[at]}| = "
                    f"{err} > bound {bound}"
                )
                break
    if plan.events and not managers[0].failed_over:
        errors.append("ToR crash never triggered failover")

    innetwork_bytes = cluster.link_bytes()
    ring_bytes: Optional[int] = None
    if baseline:
        # The ring runs under the same link faults (its ACK/retransmit
        # transport absorbs them) but without the ToR crash: a host ring
        # has no standby path, so a crashed ToR would partition it for
        # good — the baseline gets the kinder plan and still loses.
        ring_plan = ChaosPlan(
            seed=plan.seed, default_link=plan.default_link, links=dict(plan.links)
        )
        ring = run_host_ring(
            num_racks, workers_per_rack, contribs, seed=seed, plan=ring_plan
        )
        ring_bytes = ring.link_bytes
        if innetwork_bytes >= ring_bytes:
            errors.append(
                f"in-network traffic {innetwork_bytes} B did not beat the "
                f"host ring's {ring_bytes} B under the same link faults"
            )

    m = net.metrics
    m.counter("collective.innetwork_link_bytes").inc(innetwork_bytes)
    if ring_bytes is not None:
        m.counter("collective.host_ring_link_bytes").inc(ring_bytes)
    hops_saved = int(m.total("net.multicast.hops_saved"))
    counters = {
        "protocol_retransmissions": sum(
            w.retransmissions for w in cluster.workers
        ),
        "channel_retransmits": m.total("reliability.ch.retransmits."),
        "dup_rx_dropped": m.total("reliability.ch.dup_rx_dropped."),
        "device_dup_drops": m.total("reliability.dup_drops"),
        "failovers": m.total("reliability.failover.count"),
        "chaos_lost": m.total("chaos.lost"),
        "chaos_duplicated": m.total("chaos.duplicated"),
        "chaos_reordered": m.total("chaos.reordered"),
        "chunks_completed": m.total("collective.chunks_completed"),
        "elements_reduced": m.total("collective.elements_reduced"),
        "hops_saved": hops_saved,
    }
    finished_at = (
        max(w.finished_at_ns for w in cluster.workers)
        if finished == num_workers
        else None
    )
    snapshot = m.snapshot()
    run_digest = digest(
        {
            "app": "collective",
            "op": op,
            "seed": seed,
            "results": {
                str(rank): [x.hex() for x in res]
                for rank, res in sorted(job.results.items())
            },
            "exponents": job.exponents,
            "finished_at_ns": finished_at,
            "metrics": snapshot,
        }
    )
    return CollectiveRunResult(
        op=op,
        seed=seed,
        ok=not errors,
        errors=errors,
        num_racks=num_racks,
        workers_per_rack=workers_per_rack,
        tensor_elements=tensor_elements,
        finished=finished,
        failed_over=any(mgr.failed_over for mgr in managers),
        sim_ns=net.sim.now_ns,
        finished_at_ns=finished_at,
        max_abs_error=max_err,
        error_bound=job.max_error_bound(),
        innetwork_link_bytes=innetwork_bytes,
        ring_link_bytes=ring_bytes,
        hops_saved=hops_saved,
        digest=run_digest,
        counters=counters,
        plan=plan.to_dict(),
        metrics=snapshot,
    )
