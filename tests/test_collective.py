"""repro.collective — hierarchical in-network collectives, end to end."""

from __future__ import annotations

import math
import random

import pytest

from repro.chaos import LinkFaults, apply_faults
from repro.collective import (
    CollectiveCluster,
    StallError,
    build_collective_cluster,
    compile_role,
    contribution,
    leaf_device,
    run_host_ring,
    shard_range,
)
from repro.collective.scenarios import default_collective_plan, run_collective_chaos
from repro.collective.tenant import submit_collective_tenant
from repro.collective.tree import ROOT_DEVICE
from repro.deploy import PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.service import INCService


def _tensors(num_workers: int, elements: int, seed: int = 3) -> list[list[float]]:
    rng = random.Random(seed)
    return [
        [rng.uniform(-50.0, 50.0) for _ in range(elements)]
        for _ in range(num_workers)
    ]


def _exact_sum(tensors: list[list[float]]) -> list[float]:
    return [math.fsum(t[i] for t in tensors) for i in range(len(tensors[0]))]


def _check_allreduce(cluster: CollectiveCluster, job, tensors) -> None:
    exact = _exact_sum(tensors)
    bound = job.max_error_bound()
    for rank, res in job.results.items():
        assert res == job.results[0], f"rank {rank} diverged bit-wise"
        for a, b in zip(res, exact):
            assert abs(a - b) <= bound


class TestCompile:
    def test_leaf_and_root_roles_fit_tofino(self):
        leaf = compile_role(leaf_device(0), rack=0)
        root = compile_role(ROOT_DEVICE)
        assert leaf.report is not None and leaf.report.stages_used <= 12
        assert root.report is not None and root.report.stages_used <= 12
        # A leaf hosts both computations; the root likewise.
        assert {k.computation for k in leaf.kernels()} == {1, 2}
        assert {k.computation for k in root.kernels()} == {1, 2}
        assert {k.name for k in leaf.kernels()} == {"reduce_leaf", "expmax_leaf"}
        assert {k.name for k in root.kernels()} == {"reduce_root", "expmax_root"}


class TestShard:
    def test_shards_partition_the_tensor(self):
        for n, e in [(4, 17), (8, 2048), (3, 2)]:
            spans = [shard_range(e, n, r) for r in range(n)]
            assert spans[0][0] == 0 and spans[-1][1] == e
            for (_, hi), (lo, _) in zip(spans, spans[1:]):
                assert hi == lo

    def test_contribution_shapes(self):
        t = [1.0, 2.0, 3.0, 4.0]
        assert contribution("allreduce", t, 1, 2, 4) == t
        ag = contribution("allgather", [9.0, 9.0], 1, 2, 4)
        assert ag == [0.0, 0.0, 9.0, 9.0]
        assert contribution("broadcast", t, 0, 2, 4) == t
        assert contribution("broadcast", [], 1, 2, 4) == [0.0] * 4
        with pytest.raises(ValueError, match="unknown collective op"):
            contribution("scan", t, 0, 2, 4)


class TestCollectiveOps:
    def test_allreduce_two_racks(self):
        cluster = build_collective_cluster(2, 2)
        tensors = _tensors(4, 256)
        job = cluster.submit("allreduce", tensors)
        cluster.run(until_ms=100, require_done=True)
        _check_allreduce(cluster, job, tensors)

    def test_reduce_scatter_shards(self):
        cluster = build_collective_cluster(2, 2)
        tensors = _tensors(4, 200)
        job = cluster.submit("reduce_scatter", tensors)
        cluster.run(until_ms=100, require_done=True)
        exact = _exact_sum(tensors)
        bound = job.max_error_bound()
        for rank in range(4):
            lo, hi = shard_range(200, 4, rank)
            got = job.results[rank]
            assert len(got) == hi - lo
            for a, b in zip(got, exact[lo:hi]):
                assert abs(a - b) <= bound

    def test_allgather_concatenates(self):
        cluster = build_collective_cluster(2, 2)
        rng = random.Random(11)
        shards = [
            [rng.uniform(-5, 5) for _ in range(hi - lo)]
            for lo, hi in (shard_range(130, 4, r) for r in range(4))
        ]
        job = cluster.submit("allgather", shards)
        cluster.run(until_ms=100, require_done=True)
        concat = [x for s in shards for x in s]
        bound = job.max_error_bound()
        for rank in range(4):
            assert job.results[rank] == job.results[0]
            for a, b in zip(job.results[rank], concat):
                assert abs(a - b) <= bound

    def test_broadcast_from_nonzero_root(self):
        cluster = build_collective_cluster(2, 2)
        rng = random.Random(5)
        tensor = [rng.uniform(-2, 2) for _ in range(64)]
        tensors = [[], [], tensor, []]
        job = cluster.submit("broadcast", tensors, root=2)
        cluster.run(until_ms=100, require_done=True)
        bound = job.max_error_bound()
        for rank in range(4):
            for a, b in zip(job.results[rank], tensor):
                assert abs(a - b) <= bound

    def test_exponents_negotiated_to_global_max(self):
        cluster = build_collective_cluster(2, 2, exp_group=1)
        tensors = [[1e-3] * 32, [1e-3] * 32, [1e-3] * 32, [1024.5] * 32]
        job = cluster.submit("allreduce", tensors)
        cluster.run(until_ms=100, require_done=True)
        # 1024.5 -> frexp exponent 11; all chunks share the max.
        assert all(e == 11 + 128 for e in job.exponents)

    def test_back_to_back_jobs_reset_tree_state(self):
        cluster = build_collective_cluster(2, 2)
        t1 = _tensors(4, 128, seed=1)
        job1 = cluster.submit("allreduce", t1)
        cluster.run(until_ms=100, require_done=True)
        _check_allreduce(cluster, job1, t1)
        t2 = _tensors(4, 96, seed=2)
        job2 = cluster.submit("allreduce", t2)
        cluster.run(until_ms=100, require_done=True)
        _check_allreduce(cluster, job2, t2)
        assert cluster.jobs_run == 2

    def test_loss_recovery(self):
        cluster = build_collective_cluster(2, 2, seed=17)
        apply_faults(LinkFaults(loss=0.03), cluster.network)
        tensors = _tensors(4, 256)
        job = cluster.submit("allreduce", tensors)
        cluster.run(until_ms=500, require_done=True)
        _check_allreduce(cluster, job, tensors)
        assert sum(w.retransmissions for w in cluster.workers) > 0

    def test_timeouts_are_rank_staggered(self):
        cluster = build_collective_cluster(2, 2, timeout_ns=100_000,
                                           stagger_ns=10_000)
        cluster.submit("allreduce", _tensors(4, 16))
        timeouts = [w.staggered_timeout_ns for w in cluster.workers]
        assert timeouts == [100_000, 110_000, 120_000, 130_000]
        assert [w.reduce.timeout_ns for w in cluster.workers] == timeouts


class TestStallDiagnostics:
    def test_stall_report_names_ranks_and_chunks(self):
        cluster = build_collective_cluster(2, 2)
        cluster.submit("allreduce", _tensors(4, 64))
        # Kill rack 0's only ToR: both of its workers stall, and with the
        # rack partial missing the other rack can never finish either.
        cluster.network.crash_switch(leaf_device(0))
        cluster.run(until_ms=5)
        with pytest.raises(StallError) as ei:
            cluster.require_done()
        msg = str(ei.value)
        assert "rank 0" in msg and "chunk" in msg
        report = cluster.stall_report()
        assert report and any("rank 0" in line for line in report)

    def test_agg_cluster_stall_diagnostics(self):
        from repro.apps.agg import AGG_DEVICE, build_agg_cluster

        cluster = build_agg_cluster(num_workers=2, tensor_elements=64)
        cluster.network.crash_switch(AGG_DEVICE)
        with pytest.raises(StallError) as ei:
            cluster.run(until_ms=5, require_done=True)
        msg = str(ei.value)
        assert "worker 0" in msg and "worker 1" in msg and "chunk" in msg


class TestHostRingBaseline:
    def test_ring_matches_fp32_reference(self):
        tensors = _tensors(4, 64, seed=9)
        res = run_host_ring(2, 2, tensors)
        exact = _exact_sum(tensors)
        for rank in range(4):
            assert res.results[rank] == res.results[0]
            for a, b in zip(res.results[rank], exact):
                assert abs(a - b) <= 1e-3
        assert res.link_bytes > 0 and res.acks_sent >= res.packets_sent

    def test_ring_survives_loss_via_retransmission(self):
        tensors = _tensors(4, 64, seed=9)
        plan = default_collective_plan(21, duplicate=0.0, reorder=0.0,
                                       jitter_ns=0, crash_at_ns=None)
        res = run_host_ring(2, 2, tensors, seed=21, plan=plan)
        assert res.retransmissions > 0
        exact = _exact_sum(tensors)
        for rank in range(4):
            for a, b in zip(res.results[rank], exact):
                assert abs(a - b) <= 1e-3


class TestChaosAcceptance:
    def test_flagship_allreduce_under_chaos(self):
        """The acceptance run: 2 racks, 8 workers, 5% loss/dup/reorder +
        a mid-run ToR crash; bit-identical per seed; in-network traffic
        beats the host ring under the same link faults."""
        r = run_collective_chaos(7, tensor_elements=1024)
        assert r.ok, r.errors
        assert r.finished == 8 and r.failed_over
        assert r.max_abs_error <= r.error_bound
        assert r.innetwork_link_bytes < r.ring_link_bytes
        assert r.counters["protocol_retransmissions"] > 0
        assert r.counters["hops_saved"] > 0
        again = run_collective_chaos(7, tensor_elements=1024)
        assert again.digest == r.digest

    def test_telemetry_counters_exported(self):
        r = run_collective_chaos(13, tensor_elements=512)
        assert r.ok, r.errors
        m = r.metrics
        assert m["collective.chunks_completed"] == 8 * 512 / 16
        assert m["collective.elements_reduced"] == 8 * 512
        assert m["collective.innetwork_link_bytes"] == r.innetwork_link_bytes
        assert m["collective.host_ring_link_bytes"] == r.ring_link_bytes

    def test_seeds_decorrelate(self):
        a = run_collective_chaos(7, tensor_elements=256)
        b = run_collective_chaos(8, tensor_elements=256)
        assert a.digest != b.digest

    @pytest.mark.parametrize("seed", [34, 134, 275])
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known defect (ROADMAP item 13): the collective's recovery after "
            "the rack-0 ToR crash lets a slot mix two rounds.  At seed 34 rank "
            "3 stays on exp-group 6 in slot 6 while the other ranks moved that "
            "slot to exp-group 14, so all eight ranks stall and retransmit "
            "until the 150 ms horizon; seeds 134 and 275 end with a wrong sum "
            "at the canonical tie order (rank 0 element 1088 is -60.71 against "
            "-20.22; element 1616 is 46.05 against 131.58)"
        ),
    )
    def test_recovers_after_the_tor_crash_at_seed_34(self, seed):
        assert run_collective_chaos(seed, baseline=False).ok


class TestTenantMode:
    def _service(self, spare: bool = False) -> INCService:
        fab = PhysicalFabric()
        for sid in (1, 2, 3) + ((4,) if spare else ()):
            fab.add_switch(sid, free_stages=12)
        fab.link(DEVICE(2), DEVICE(1))
        fab.link(DEVICE(3), DEVICE(1))
        if spare:
            fab.link(DEVICE(4), DEVICE(1))
        for h in (1, 2, 3, 4):
            fab.add_host(h)
        fab.link(HOST(1), DEVICE(2))
        fab.link(HOST(2), DEVICE(2))
        fab.link(HOST(3), DEVICE(3))
        fab.link(HOST(4), DEVICE(3))
        if spare:
            fab.link(HOST(1), DEVICE(4))
            fab.link(HOST(2), DEVICE(4))
        return INCService(fab, seed=5).start()

    def test_collective_as_tenant(self):
        svc = self._service()
        ct = submit_collective_tenant(svc, "train", [1, 2, 3, 4], num_racks=2)
        assert ct.deployment.placement.keys() == {1, 2, 3}
        tensors = _tensors(4, 128)
        job = ct.submit_job("allreduce", tensors)
        ct.run(until_ms=100, require_done=True)
        exact = _exact_sum(tensors)
        bound = job.max_error_bound()
        for rank in range(4):
            assert job.results[rank] == job.results[0]
            for a, b in zip(job.results[rank], exact):
                assert abs(a - b) <= bound
        m = svc.network.metrics
        assert m.value("tenant.train.packets") > 0

    def test_job_survives_live_migration(self):
        svc = self._service(spare=True)
        ct = submit_collective_tenant(svc, "train", [1, 2, 3, 4], num_racks=2)
        tensors = _tensors(4, 2048)
        job = ct.submit_job("allreduce", tensors)
        ct.run(until_ms=0.05)  # mid-flight
        assert ct.stall_report()
        svc.crash_switch(ct.deployment.placement[2])
        ct.run(until_ms=300, require_done=True)
        assert svc.network.metrics.value("service.migrations") == 1
        exact = _exact_sum(tensors)
        bound = job.max_error_bound()
        for rank in range(4):
            for a, b in zip(job.results[rank], exact):
                assert abs(a - b) <= bound
