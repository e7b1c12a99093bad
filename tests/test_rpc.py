"""repro.rpc — in-network accelerated RPC, end to end."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.chaos import LinkFaults, apply_faults
from repro.collective import StallError
from repro.deploy import PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.rpc import (
    RPC_WORDS,
    SG_WORDS,
    MemoController,
    RpcMethod,
    RpcSchema,
    build_rpc_cluster,
    compile_rpc_role,
    decode,
    encode,
    finish_topk,
    finish_vote,
    merge_words,
    one_hot,
    pack_topk,
    request_key,
    tor_device,
    u8,
    u16,
    u32,
    u64,
    vec,
    word_count,
)
from repro.rpc.cluster import EDGE_DEVICE, SG_DEVICE
from repro.rpc.scenarios import (
    BumpReq,
    GetReq,
    QueryReq,
    default_rpc_plan,
    get_value,
    query_partial,
    run_rpc_chaos,
    scenario_handlers,
    scenario_schema,
)
from repro.rpc.tenant import ABSTRACT_SG, abstract_tor, submit_rpc_tenant
from repro.rpc.idl import OP_REQ, OP_RSP
from repro.runtime import DeviceConnection, Message, NetCLDevice, NetCLPacket
from repro.runtime.message import unpack_packet
from repro.service import INCService
from repro.service.qos import TenantQoS
from repro.telemetry import MetricRegistry


# -- IDL --------------------------------------------------------------------------
@dataclass
class Mixed:
    a: u8 = 0
    b: u16 = 0
    c: u32 = 0
    d: u64 = 0
    e: vec(3) = None


class TestIdl:
    def test_scalar_and_vector_roundtrip(self):
        obj = Mixed(a=0xAB, b=0xBEEF, c=0xDEADBEEF, d=(7 << 32) | 9, e=[1, 2, 3])
        words = encode(obj)
        # u8/u16/u32 take one word each, u64 two, vec(3) three.
        assert len(words) == word_count(Mixed) == 8
        assert decode(Mixed, words) == obj

    def test_u64_splits_into_hi_lo_words(self):
        words = encode(Mixed(d=(0x11223344 << 32) | 0x55667788))
        assert words[3] == 0x11223344 and words[4] == 0x55667788

    def test_vector_pads_short_and_rejects_long(self):
        assert encode(Mixed(e=[5]))[5:] == [5, 0, 0]
        with pytest.raises(ValueError, match=r"exceed vec\(3\)"):
            encode(Mixed(e=[1, 2, 3, 4]))

    def test_request_key_is_deterministic_and_method_salted(self):
        words = encode(GetReq(key=3))
        assert request_key(0, words) == request_key(0, list(words))
        assert request_key(0, words) != request_key(1, words)
        assert 0 <= request_key(0, words) < 1 << 64

    def test_schema_rejects_duplicates_and_oversize(self):
        m = RpcMethod("a", 0, GetReq, GetReq)
        with pytest.raises(ValueError, match="duplicate"):
            RpcSchema([m, RpcMethod("b", 0, GetReq, GetReq)])

        @dataclass
        class Huge:
            v: vec(RPC_WORDS + 1) = None

        with pytest.raises(ValueError, match="wire carries"):
            RpcSchema([RpcMethod("big", 1, Huge, GetReq)])


# -- merge policies ---------------------------------------------------------------
class TestPolicies:
    def test_sum_wraps_like_the_kernel(self):
        parts = [[0xFFFFFFFF] * SG_WORDS, [2] * SG_WORDS]
        assert merge_words("sum", parts) == [1] * SG_WORDS

    def test_min_max(self):
        parts = [[5, 9] + [0] * 6, [7, 3] + [0] * 6]
        assert merge_words("min", parts)[:2] == [5, 3]
        assert merge_words("max", parts)[:2] == [7, 9]

    def test_vote_rides_sum(self):
        votes = [one_hot(c, 4) for c in (2, 1, 2, 2)]
        winner, count = finish_vote(merge_words("vote", votes))
        assert (winner, count) == (2, 3)

    def test_topk_is_exact_union_of_lanes(self):
        lanes = [
            pack_topk([(90, 1), (10, 2)], 0, 2, 4),
            pack_topk([(80, 3)], 1, 2, 4),
            pack_topk([(95, 4), (85, 5)], 2, 2, 4),
            pack_topk([(70, 6), (60, 7)], 3, 2, 4),
        ]
        top = finish_topk(merge_words("topk", lanes), 3)
        assert top == [(95, 4), (90, 1), (85, 5)]

    def test_topk_rejects_overfull_lanes(self):
        with pytest.raises(ValueError, match="exceeds"):
            pack_topk([(1, 1)], 0, 3, 4)


# -- memo controller --------------------------------------------------------------
class _RecordingConn:
    def __init__(self):
        self.ops = []

    def __getattr__(self, name):
        if not name.startswith("managed_"):
            raise AttributeError(name)

        def record(*args, **kw):
            self.ops.append((name, args, kw))

        return record


class TestMemoController:
    def test_install_writes_data_before_publishing_index(self):
        conn = _RecordingConn()
        memo = MemoController(conn, lines=4, metrics=MetricRegistry())
        memo.install(77, [1, 2])
        names = [op[0] for op in conn.ops]
        assert names.index("managed_insert") > names.index("managed_write")
        assert names.count("managed_insert") == 1

    def test_version_wraps_to_zero_and_the_tor_kernel_still_hits(self):
        # A line at version 0xFFFF re-installs as version 0: the MemoIndex
        # meta ((ver << 16) | line) and the MemoVer write carry the same
        # wrapped 16-bit tag, so the kernel's MemoVer[idx] == tagver compare
        # serves the newest words.
        tor = tor_device(0)
        cp = compile_rpc_role(tor, "tor", fanout=4)
        dev = NetCLDevice(tor, cp.module, cp.kernels())
        memo = MemoController(DeviceConnection(dev), metrics=dev.metrics)
        line = memo.install(7, [1, 2])
        memo._line_ver[line] = 0xFFFE
        assert memo.install(7, [3, 4]) == line  # version 0xFFFF
        assert memo.install(7, [5, 6]) == line  # wraps to 0
        state = dev.state.snapshot()
        assert state["registers"]["MemoVer"][line] == 0
        assert state["tables"]["MemoIndex"] == [(7, 7, (0 << 16) | line)]
        spec = dev.specs[1]
        request = [OP_REQ, 0, 1, 7, 0xFFFF, 0, [0] * RPC_WORDS]
        decision = dev.process(
            NetCLPacket.from_message(Message(src=1, dst=2, comp=1, to=tor), spec, request)
        )
        op, _, _, _, ver, hit, words = unpack_packet(decision.packet, spec)
        assert (op, ver, hit) == (OP_RSP, 0, 1)
        assert words[:2] == [5, 6]

    def test_lru_eviction_removes_victim_mat_entry(self):
        conn = _RecordingConn()
        memo = MemoController(conn, lines=2, metrics=MetricRegistry())
        memo.install(1, [1])
        memo.install(2, [2])
        memo.install(1, [3])  # refresh 1; victim must be 2
        memo.install(4, [4])
        removed = [a for n, a, _ in conn.ops if n == "managed_remove"]
        assert removed == [("MemoIndex", 2)]


# -- compilation ------------------------------------------------------------------
class TestCompile:
    def test_all_three_roles_fit_tofino(self):
        for dev, role in ((EDGE_DEVICE, "edge"), (SG_DEVICE, "sg"), (101, "tor")):
            cp = compile_rpc_role(dev, role, fanout=16)
            assert cp.report is not None and cp.report.stages_used <= 12
        edge = compile_rpc_role(EDGE_DEVICE, "edge", fanout=4)
        assert {k.computation for k in edge.kernels()} == {1, 2}


# -- standalone cluster: unary path ------------------------------------------------
def _small_cluster(*, loss: float = 0.0, **kw):
    bumps: dict[int, int] = {}
    cluster = build_rpc_cluster(
        scenario_schema(),
        scenario_handlers(bumps),
        num_racks=2,
        servers_per_rack=2,
        num_clients=1,
        **kw,
    )
    if loss:
        apply_faults(LinkFaults(loss=loss), cluster.network)
    return cluster, bumps


class TestUnary:
    def test_call_roundtrip_and_memo_hit_on_repeat(self):
        cluster, _ = _small_cluster()
        client = cluster.clients[0]
        first = client.call("get", GetReq(key=9))
        cluster.run(until_ms=5)
        assert first.done and not first.hit
        assert list(first.response.v) == get_value(9)
        again = client.call("get", GetReq(key=9))
        cluster.run(until_ms=5)
        assert again.done and again.hit, "repeat must be served by the ToR"
        assert list(again.response.v) == get_value(9)
        m = cluster.network.metrics
        assert m.total("rpc.client.memo_hits.") == 1
        assert m.total("rpc.server.executions.") == 1

    def test_nonidempotent_applied_exactly_once_under_loss(self):
        cluster, bumps = _small_cluster(loss=0.15, seed=11)
        client = cluster.clients[0]
        for token in range(1, 9):
            client.call("bump", BumpReq(token=token))
        cluster.run(until_ms=100)
        assert cluster.all_done, cluster.stall_report()
        assert bumps == {t: 1 for t in range(1, 9)}
        m = cluster.network.metrics
        # Loss forced retries; the duplicates were absorbed by the
        # server's reply cache, never re-executed.
        assert m.total("rpc.client.retries.") > 0

    def test_admission_limits_a_burst_then_recovers(self):
        schema = RpcSchema(
            [
                RpcMethod(
                    "slow", 0, BumpReq, BumpReq, kind="unary",
                    qos=TenantQoS(max_pps=100_000, burst=2),
                ),
            ]
        )
        bumps: dict[int, int] = {}

        def slow(request):
            bumps[request.token] = bumps.get(request.token, 0) + 1
            return request

        cluster = build_rpc_cluster(
            schema, {"slow": slow}, num_racks=1, servers_per_rack=1,
        )
        client = cluster.clients[0]
        for token in range(1, 7):
            client.call("slow", BumpReq(token=token))
        cluster.run(until_ms=120)
        assert cluster.all_done, cluster.stall_report()
        assert bumps == {t: 1 for t in range(1, 7)}
        # Only `burst` fit the bucket: the rest were dropped at the edge
        # and recovered by client retries paced to the refill rate.
        assert cluster.network.metrics.total("rpc.client.retries.") > 0

    def test_deadline_expires_before_retries_finish(self):
        cluster, _ = _small_cluster(loss=1.0)
        failed = []
        call = cluster.clients[0].call(
            "get", GetReq(key=1), on_fail=failed.append, deadline_ns=200_000
        )
        cluster.run(until_ms=2)
        assert call.failed and failed == [call]
        assert cluster.network.metrics.total("rpc.client.deadline_expired.") == 1

    def test_black_holed_method_ends_in_a_named_stall(self):
        cluster, _ = _small_cluster()
        bump = cluster.schema.by_name["bump"].method_id
        for server in cluster.servers:
            answer = server._handle_unary

            def black_hole(packet, answer=answer, spec=server.spec_unary):
                if unpack_packet(packet, spec)[1] != bump:
                    answer(packet)

            server._handle_unary = black_hole
        client = cluster.clients[0]
        got = client.call("get", GetReq(key=2))
        lost = client.call("bump", BumpReq(token=1))
        # 5 ms is well inside the retry budget: the call is still live
        cluster.run(until_ms=5)
        with pytest.raises(StallError) as err:
            cluster.require_done()
        assert got.done and not lost.done and not lost.failed
        assert err.value.reports == [
            f"client h{client.host_id}: 1 unary + 0 gather outstanding "
            f"(unary: req {lost.req_id} bump after {lost.attempts} attempt(s); "
            "gather rounds [])"
        ]
        assert lost.attempts > 1
        assert "1 client(s) stalled" in str(err.value)


# -- standalone cluster: scatter-gather -------------------------------------------
class TestGather:
    def test_all_policies_match_the_host_twin(self):
        cluster, _ = _small_cluster()
        client = cluster.clients[0]
        calls = [
            client.gather(name, QueryReq(q=40 + i))
            for i, name in enumerate(("msum", "mmin", "mmax"))
        ]
        cluster.run(until_ms=10)
        assert cluster.all_done, cluster.stall_report()
        for call in calls:
            expected = merge_words(
                call.method.policy,
                [query_partial(call.request.q, r) for r in range(cluster.fanout)],
            )
            assert call.merged == expected

    def test_gathers_exact_under_loss(self):
        cluster, _ = _small_cluster(loss=0.1, seed=13)
        client = cluster.clients[0]
        calls = [client.gather("msum", QueryReq(q=i)) for i in range(16)]
        cluster.run(until_ms=150)
        assert cluster.all_done, cluster.stall_report()
        for call in calls:
            expected = merge_words(
                "sum",
                [query_partial(call.request.q, r) for r in range(cluster.fanout)],
            )
            assert call.merged == expected

    def test_rescatter_suppresses_already_merged_replicas(self):
        cluster, _ = _small_cluster(loss=0.25, seed=3)
        client = cluster.clients[0]
        for i in range(12):
            client.gather("mmax", QueryReq(q=i))
        cluster.run(until_ms=300)
        assert cluster.all_done, cluster.stall_report()
        m = cluster.network.metrics
        # Heavy loss forces re-scatters; the spine's bitmap piggyback
        # must have silenced at least one already-merged replica.
        assert m.total("rpc.server.suppressed.") > 0

    def test_vote_and_topk_ride_the_switch_merges(self):
        @dataclass
        class Ask:
            q: u32 = 0

        @dataclass
        class Out:
            v: vec(SG_WORDS) = None

        schema = RpcSchema(
            [
                RpcMethod("vote", 0, Ask, Out, kind="gather", policy="vote"),
                RpcMethod("topk", 1, Ask, Out, kind="gather", policy="topk"),
            ]
        )

        def vote(request, replica):
            return one_hot(1 if replica else 3, 4)  # replicas 1..3 vote 1

        def topk(request, replica):
            cands = [(10 * (replica + 1), replica), (5, 8 + replica)]
            return pack_topk(cands, replica, 2, 4)

        cluster = build_rpc_cluster(
            schema, {"vote": vote, "topk": topk},
            num_racks=2, servers_per_rack=2,
        )
        client = cluster.clients[0]
        v = client.gather("vote", Ask(q=1))
        t = client.gather("topk", Ask(q=2))
        cluster.run(until_ms=10)
        assert cluster.all_done, cluster.stall_report()
        assert finish_vote(v.merged[:4]) == (1, 3)
        assert finish_topk(t.merged, 3) == [(40, 3), (30, 2), (20, 1)]


# -- the acceptance scenario ------------------------------------------------------
class TestScenario:
    def test_small_chaos_run_passes(self):
        r = run_rpc_chaos(
            7, servers_per_rack=4, num_clients=2,
            gets_per_client=6, bumps_per_client=3, gathers_per_client=8,
        )
        assert r.ok, r.errors
        assert r.failed_over and r.memo_hits > 0
        assert r.innetwork_link_bytes < r.fanout_link_bytes

    def test_digest_is_deterministic_per_seed(self):
        kw = dict(
            servers_per_rack=2, num_clients=2, gets_per_client=6,
            bumps_per_client=2, gathers_per_client=4, baseline=False,
        )
        a = run_rpc_chaos(7, **kw)
        b = run_rpc_chaos(7, **kw)
        c = run_rpc_chaos(8, **kw)
        assert a.ok and b.ok and c.ok, (a.errors, b.errors, c.errors)
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_crash_free_plan_never_fails_over(self):
        r = run_rpc_chaos(
            5, servers_per_rack=2, num_clients=2,
            gets_per_client=6, bumps_per_client=2, gathers_per_client=4,
            plan=default_rpc_plan(5, crash_at_ns=None), baseline=False,
        )
        assert r.ok, r.errors
        assert not r.failed_over


# -- tenant mode ------------------------------------------------------------------
class TestTenantMode:
    def _service(self) -> INCService:
        fab = PhysicalFabric()
        for sid in (1, 2, 3, 4, 5):
            fab.add_switch(sid, free_stages=12)
        fab.link(DEVICE(1), DEVICE(2))
        for t in (3, 4, 5):
            fab.link(DEVICE(t), DEVICE(1))
            fab.link(DEVICE(t), DEVICE(2))
        for h in (1, 2, 3, 4, 5, 6):
            fab.add_host(h)
        # Every host is dual-homed so one switch crash never partitions
        # it from the fabric (the slice migrates; the host re-routes).
        for h in (1, 2):
            fab.link(HOST(h), DEVICE(1))
            fab.link(HOST(h), DEVICE(2))
        for h, t in ((3, 3), (4, 3), (5, 4), (6, 4)):
            fab.link(HOST(h), DEVICE(t))
            fab.link(HOST(h), DEVICE(5))
        return INCService(fab, seed=5).start()

    def _submit(self, svc, bumps):
        return submit_rpc_tenant(
            svc, "rpc", scenario_schema(), scenario_handlers(bumps),
            client_hosts=[1], server_hosts=[3, 4, 5, 6], num_racks=2,
        )

    def test_rpc_as_tenant(self):
        svc = self._service()
        bumps: dict[int, int] = {}
        rt = self._submit(svc, bumps)
        client = rt.clients[0]
        g = client.call("get", GetReq(key=4))
        b = client.call("bump", BumpReq(token=5))
        q = client.gather("msum", QueryReq(q=11))
        rt.run(until_ms=20)
        assert rt.all_done, rt.stall_report()
        assert list(g.response.v) == get_value(4)
        assert b.response.applied == 1 and bumps == {5: 1}
        assert q.merged == merge_words(
            "sum", [query_partial(11, r) for r in range(4)]
        )
        g2 = client.call("get", GetReq(key=4))
        rt.run(until_ms=20)
        assert g2.done and g2.hit  # memoized at the tenant's ToR slice
        assert svc.network.metrics.value("tenant.rpc.packets") > 0

    def test_memo_and_inflight_calls_survive_tor_migration(self):
        svc = self._service()
        bumps: dict[int, int] = {}
        rt = self._submit(svc, bumps)
        client = rt.clients[0]
        client.call("get", GetReq(key=2))
        rt.run(until_ms=10)
        inflight = [client.gather("msum", QueryReq(q=50 + i)) for i in range(8)]
        client.call("bump", BumpReq(token=77))
        rt.run(until_ms=0.02)  # scatters in flight
        svc.crash_switch(rt.deployment.placement[abstract_tor(0)])
        rt.run(until_ms=300)
        assert rt.all_done, rt.stall_report()
        assert svc.network.metrics.value("service.migrations") == 1
        assert bumps == {77: 1}
        hot = client.call("get", GetReq(key=2))
        rt.run(until_ms=10)
        # The memo cache was journal-replayed onto the replacement slice.
        assert hot.done and hot.hit
        for call in inflight:
            assert call.merged == merge_words(
                "sum", [query_partial(call.request.q, r) for r in range(4)]
            )

    def test_inflight_gathers_survive_spine_migration(self):
        svc = self._service()
        bumps: dict[int, int] = {}
        rt = self._submit(svc, bumps)
        client = rt.clients[0]
        rt.run(until_ms=5)
        calls = [client.gather("mmax", QueryReq(q=900 + i)) for i in range(8)]
        rt.run(until_ms=0.02)
        svc.crash_switch(rt.deployment.placement[ABSTRACT_SG])
        rt.run(until_ms=300)
        assert rt.all_done, rt.stall_report()
        assert svc.network.metrics.value("service.migrations") == 1
        for call in calls:
            assert call.merged == merge_words(
                "max", [query_partial(call.request.q, r) for r in range(4)]
            )
