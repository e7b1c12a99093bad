"""The multi-tenant INC service: admission, placement, migration, QoS."""

from __future__ import annotations

import json

import pytest

from repro.apps import compile_app
from repro.core import compile_netcl
from repro.deploy import AbstractTopology, DeploymentError, PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.runtime import KernelSpec, Message
from repro.runtime.message import unpack
from repro.service import (
    AdmissionError,
    INCService,
    ServicePlan,
    TENANT_BASE,
    TenantQoS,
    TenantState,
    default_service_plan,
    run_service_plan,
)
from repro.service.cli import main as service_main

ECHO = "_kernel(1) void k(uint32_t x, uint32_t &y) { y = x + %d; return ncl::reflect(); }"
MANAGED = """
_managed_ unsigned table[8];
_kernel(1) void k(uint32_t x, uint32_t &y) { y = x; return ncl::reflect(); }
"""


def _fabric(num_switches=2, host_links=None, free_stages=12):
    """A line of switches; host_links maps host id -> switch ids."""
    host_links = host_links or {1: [1]}
    fab = PhysicalFabric()
    for sid in range(1, num_switches + 1):
        fab.add_switch(sid, free_stages=free_stages)
        if sid > 1:
            fab.link(DEVICE(sid - 1), DEVICE(sid))
    for h, sids in host_links.items():
        fab.add_host(h)
        for sid in sids:
            fab.link(HOST(h), DEVICE(sid))
    return fab


def _topo(src, host=1, name="t"):
    cp = compile_netcl(src, 1, program_name=name)
    topo = AbstractTopology()
    topo.add_device(1, cp)
    topo.attach_host(host, 1)
    return topo, cp


def _echo_round_trip(svc, tenant_id, cp, host_id, value):
    """Send one request to the tenant's device 1 and return the reply."""
    net = svc.network
    spec = KernelSpec.from_kernel(cp.kernels()[0])
    host = net.hosts[host_id]
    got = []
    host.on_receive = lambda p, now: got.append(unpack(p.to_wire(), spec)[1])
    gid = svc.device_id_of(tenant_id, 1)
    host.send_message(
        Message(src=host_id, dst=host_id, comp=1, to=gid), spec, [value, None]
    )
    net.sim.run(until_ns=net.sim.now_ns + 2_000_000)
    return got


class TestAdmission:
    def test_oversized_tenant_rejected_with_breakdown(self):
        svc = INCService(_fabric(free_stages=6))
        cp = compile_app("agg", 1)  # needs all 12 stages
        topo = AbstractTopology()
        topo.add_device(1, cp)
        topo.attach_host(1, 1)
        with pytest.raises(AdmissionError, match="no feasible placement") as ei:
            svc.submit("big", topo)
        bd = ei.value.breakdown
        assert bd is not None and bd.device == 1
        reasons = {sw.switch_id: sw.reason for sw in bd.switches}
        assert set(reasons) == {1, 2}
        assert all("stages" in r for r in reasons.values())
        assert svc.tenants["big"].state is TenantState.REJECTED
        assert svc.network.metrics.value("service.admission_rejects") == 1

    def test_an_unfitted_program_has_no_demand(self):
        svc = INCService(_fabric())
        topo = AbstractTopology()
        topo.add_device(1, compile_netcl(ECHO % 1, 1, fit=False))
        topo.attach_host(1, 1)
        with pytest.raises(DeploymentError, match="not fitted"):
            svc.submit("unfitted", topo)

    def test_resubmit_of_running_tenant_rejected(self):
        svc = INCService(_fabric())
        topo, _ = _topo(ECHO % 1)
        svc.submit("t1", topo)
        with pytest.raises(AdmissionError, match="already running"):
            svc.submit("t1", topo)

    def test_unknown_host_rejected(self):
        svc = INCService(_fabric())
        topo, _ = _topo(ECHO % 1, host=99)
        with pytest.raises(AdmissionError, match="host 99"):
            svc.submit("t1", topo)
        assert svc.tenants["t1"].state is TenantState.REJECTED

    def test_host_exclusivity(self):
        svc = INCService(_fabric())
        topo_a, _ = _topo(ECHO % 1, name="a")
        topo_b, _ = _topo(ECHO % 2, name="b")
        svc.submit("a", topo_a)
        with pytest.raises(AdmissionError, match="host 1"):
            svc.submit("b", topo_b)

    def test_queue_on_reject_drains_after_eviction(self):
        svc = INCService(
            _fabric(num_switches=1, free_stages=3, host_links={1: [1], 2: [1]})
        )
        topo_a, _ = _topo(ECHO % 1, name="a")
        topo_b, _ = _topo(ECHO % 2, host=2, name="b")
        svc.submit("a", topo_a)
        b = svc.submit("b", topo_b, TenantQoS(queue_on_reject=True))
        assert b.state is TenantState.QUEUED
        svc.evict("a")
        assert b.state is TenantState.RUNNING
        assert b.placement == {1: 1}


class TestIncrementalPlacement:
    def test_tenants_share_residual_headroom(self):
        svc = INCService(_fabric(num_switches=2, free_stages=3))
        topo_a, _ = _topo(ECHO % 1, name="a")
        cp_b = compile_netcl(ECHO % 2, 1, program_name="b")
        topo_b = AbstractTopology()
        topo_b.add_device(1, cp_b)
        a = svc.submit("a", topo_a)
        b = svc.submit("b", topo_b)  # location-free: lands on the leftover
        assert a.placement == {1: 1}
        assert b.placement == {1: 2}
        util = svc.utilization()
        assert util[1]["used"]["stages"] == 3 and util[2]["used"]["stages"] == 3

    def test_intra_tenant_anti_affinity(self):
        svc = INCService(_fabric(num_switches=2))
        topo = AbstractTopology()
        for dev in (1, 2):
            topo.add_device(
                dev, compile_netcl(ECHO.replace("(1)", f"({dev})") % dev, dev,
                                   program_name=f"d{dev}")
            )
        topo.attach_host(1, 1)
        topo.connect_devices(1, 2)
        t = svc.submit("t", topo)
        assert set(t.placement.values()) == {1, 2}

    def test_placement_is_deterministic(self):
        def place_all():
            svc = INCService(
                _fabric(num_switches=3, host_links={1: [1], 2: [3], 3: [2]})
            )
            out = {}
            for i, name in enumerate(("x", "y", "z")):
                cp = compile_netcl(ECHO % i, 1, program_name=name)
                topo = AbstractTopology()
                topo.add_device(1, cp)
                topo.attach_host(i + 1, 1)
                out[name] = dict(svc.submit(name, topo).placement)
                svc.evict(name) if name == "y" else None
            return out

        assert place_all() == place_all()


class TestTenantTraffic:
    def test_echo_round_trip_through_tenant_slice(self):
        svc = INCService(_fabric())
        topo, cp = _topo(ECHO % 5)
        t = svc.submit("t1", topo)
        assert t.abstract_to_gid[1] == TENANT_BASE
        got = _echo_round_trip(svc, "t1", cp, 1, 40)
        assert got == [[40, 45]]
        m = svc.network.metrics
        assert m.value("tenant.t1.packets") == 1
        assert m.value("tenant.t1.computed") == 1

    def test_ingress_rate_limit_drops_and_counts(self):
        svc = INCService(_fabric())
        topo, cp = _topo(ECHO % 0)
        svc.submit("t1", topo, TenantQoS(max_pps=1000.0, burst=2))
        net = svc.network
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        host = net.hosts[1]
        got = []
        host.on_receive = lambda p, now: got.append(p)
        gid = svc.device_id_of("t1", 1)
        for i in range(10):  # all within ~1 us: bucket refills ~nothing
            host.send_message(
                Message(src=1, dst=1, comp=1, to=gid), spec, [i, None]
            )
        net.sim.run(until_ns=5_000_000)
        m = net.metrics
        assert m.value("tenant.t1.rate_limited") == 8
        assert len(got) == 2

    def test_evict_tears_down_and_frees_hosts(self):
        svc = INCService(_fabric())
        topo, cp = _topo(ECHO % 1, name="a")
        svc.submit("a", topo)
        gid = svc.device_id_of("a", 1)
        svc.evict("a")
        assert svc.utilization()[1]["used"]["stages"] == 0
        assert DEVICE(gid) not in svc.network.switches
        # the host is free again: a new tenant can claim it
        topo_b, cp_b = _topo(ECHO % 7, name="b")
        svc.submit("b", topo_b)
        assert _echo_round_trip(svc, "b", cp_b, 1, 10) == [[10, 17]]


class TestLiveMigration:
    def test_crash_migrates_and_replays_journal(self):
        svc = INCService(
            _fabric(num_switches=2, host_links={1: [1, 2]}), heartbeat_ns=50_000
        ).start()
        topo, cp = _topo(MANAGED)
        t = svc.submit("t1", topo)
        assert t.placement == {1: 1}
        conn = svc.control("t1", 1)
        conn.managed_write("table", 99, 0)
        svc.crash_switch(1)
        svc.network.sim.run(until_ns=svc.network.sim.now_ns + 500_000)
        assert t.placement == {1: 2}
        assert t.migrations == 1
        m = svc.network.metrics
        assert m.value("service.migrations") == 1
        assert m.value("tenant.t1.migrations") == 1
        assert m.value("service.ops_replayed") >= 1
        # the journal was replayed onto the replacement slice
        assert conn.managed_read("table", 0) == 99
        # and the slice still serves traffic from its new switch
        assert _echo_round_trip(svc, "t1", cp, 1, 12) == [[12, 12]]
        svc.stop()

    def test_restart_within_one_heartbeat_runs_one_watchdog(self):
        svc = INCService(_fabric(num_switches=1), heartbeat_ns=50_000).start()
        sim = svc.network.sim
        sim.run(until_ns=20_000)
        svc.stop()
        svc.start()  # the tick queued for 50 us is still in the heap
        beats = svc.network.metrics.counter("service.heartbeats")
        sim.run(until_ns=20_000 + 10 * 50_000)
        assert beats.value == 10  # one per period, not two chains
        svc.stop()

    def test_migration_fails_when_no_residual(self):
        svc = INCService(_fabric(num_switches=1), heartbeat_ns=50_000).start()
        topo, _ = _topo(ECHO % 1)
        t = svc.submit("t1", topo)
        svc.crash_switch(1)
        svc.network.sim.run(until_ns=svc.network.sim.now_ns + 500_000)
        assert svc.network.metrics.value("service.migration_failures") >= 1
        assert t.placement == {1: 1}  # stranded, not silently re-placed
        assert svc.report()["down_switches"] == [1]
        svc.stop()

    def _stranded_service(self):
        """One switch exactly as large as tenant a, which a crash strands."""
        svc = INCService(
            _fabric(num_switches=1, host_links={1: [1], 2: [1]}), heartbeat_ns=50_000
        ).start()
        topo, _ = _topo(ECHO % 1, name="a")
        a = svc.submit("a", topo)
        need = a.demands[1].stages
        svc.update_headroom(1, free_stages=need)
        svc.crash_switch(1)
        svc.network.sim.run(until_ns=svc.network.sim.now_ns + 500_000)
        assert a.stranded == {1} and a.placement == {1: 1}
        return svc, a, need

    @staticmethod
    def _used(svc):
        return svc.utilization()[1]["used"]

    def test_evicting_a_stranded_tenant_releases_nothing_twice(self):
        svc, a, need = self._stranded_service()
        assert self._used(svc)["stages"] == 0  # released by the failed migration
        svc.evict("a")
        assert all(v >= 0 for v in self._used(svc).values())  # was -need
        svc.restart_switch(1)
        # exactly one more tenant of that size fits, not two
        topo_b, cp_b = _topo(ECHO % 2, host=1, name="b")
        svc.submit("b", topo_b)
        assert self._used(svc)["stages"] == need
        topo_c, _ = _topo(ECHO % 3, host=2, name="c")
        with pytest.raises(AdmissionError):
            svc.submit("c", topo_c)
        assert _echo_round_trip(svc, "b", cp_b, 1, 5) == [[5, 7]]
        svc.stop()

    def test_stranded_devices_reclaim_their_headroom_on_restart(self):
        svc, a, need = self._stranded_service()
        svc.restart_switch(1)
        assert a.stranded == set()
        assert self._used(svc)["stages"] == need
        topo_c, _ = _topo(ECHO % 3, host=2, name="c")
        with pytest.raises(AdmissionError):  # a is back and the switch is full
            svc.submit("c", topo_c)
        svc.tenants.pop("c")
        svc.evict("a")
        assert all(v == 0 for v in self._used(svc).values())
        svc.submit("c", topo_c)
        assert self._used(svc)["stages"] == need
        svc.stop()

    def test_defragment_repacks_after_eviction(self):
        svc = INCService(_fabric(num_switches=2, host_links={1: [1, 2]},
                                 free_stages=3))
        topo_a, _ = _topo(ECHO % 1, name="a")
        topo_b, cp_b = _topo(ECHO % 2, name="b")
        svc.submit("a", topo_a)
        with pytest.raises(AdmissionError):  # host 1 is taken
            svc.submit("b", topo_b)
        svc.tenants.pop("b")
        fab = svc.fabric
        fab.add_host(2)
        fab.link(HOST(2), DEVICE(1))
        fab.link(HOST(2), DEVICE(2))
        svc.network.add_host(2)
        svc.network.link(HOST(2), DEVICE(10_001))
        svc.network.link(HOST(2), DEVICE(10_002))
        topo_b2, cp_b = _topo(ECHO % 2, host=2, name="b")
        b = svc.submit("b", topo_b2)
        assert b.placement == {1: 2}  # switch 1 is full
        svc.evict("a")
        assert svc.defragment() == 1
        assert b.placement == {1: 1}
        assert svc.network.metrics.value("service.defrag_moves") == 1
        assert _echo_round_trip(svc, "b", cp_b, 2, 3) == [[3, 5]]

    def test_headroom_shrink_migrates_victims(self):
        svc = INCService(_fabric(num_switches=2, host_links={1: [1, 2]},
                                 free_stages=3))
        topo, _ = _topo(ECHO % 1)
        t = svc.submit("t1", topo)
        assert t.placement == {1: 1}
        svc.update_headroom(1, free_stages=0)
        assert t.placement == {1: 2}
        assert svc.fabric.switches[1].free_stages == 0

    def test_update_headroom_rejects_unknown_key(self):
        svc = INCService(_fabric())
        with pytest.raises(TypeError, match="free_stagez"):
            svc.update_headroom(1, free_stagez=4)
        with pytest.raises(KeyError):
            svc.update_headroom(99, free_stages=4)


class TestWorkloadReplay:
    def test_default_plan_end_to_end(self):
        result = run_service_plan(default_service_plan(5))
        assert result.ok, result.errors
        # two tenants finished on the shared fabric; the oversized third
        # was rejected with a resource-attributed breakdown
        assert result.tenants["agg"]["completed"] == 32
        assert result.tenants["cache"]["completed"] == 32
        (reject,) = result.rejected
        assert reject["tenant"] == "bulk"
        assert any("stages" in sw["reason"] for sw in reject["breakdown"]["switches"])
        # the mid-run crash live-migrated the cache tenant
        assert result.report["service"]["migrations"] >= 1
        assert result.report["down_switches"] == [3]
        assert result.report["tenants"]["cache"]["slo"]["met"] is True

    def test_an_admitted_bulk_tenant_finishes_with_nothing_to_check(self):
        plan = default_service_plan(5).to_dict()
        (bulk,) = [ev for ev in plan["events"] if ev.get("tenant") == "bulk"]
        bulk.update(devices=1, expect="admit")
        result = run_service_plan(ServicePlan.from_dict(plan))
        assert result.ok and not result.rejected
        assert result.tenants["bulk"] == {"ok": True, "errors": [], "completed": 0, "expected": 0}

    def test_per_tenant_telemetry_is_isolated(self):
        result = run_service_plan(default_service_plan(5))
        m = result.metrics
        for tid in ("agg", "cache"):
            assert m[f"tenant.{tid}.packets"] > 0
            assert m[f"tenant.{tid}.computed"] > 0
        assert "tenant.bulk.packets" in m  # registered but never trafficked
        assert m["tenant.bulk.packets"] == 0

    def test_replay_is_deterministic(self):
        a = run_service_plan(default_service_plan(5))
        b = run_service_plan(default_service_plan(5))
        assert a.digest == b.digest
        assert run_service_plan(default_service_plan(6)).digest != a.digest

    def test_plan_json_round_trip(self):
        plan = default_service_plan(9)
        again = ServicePlan.from_json(plan.to_json())
        assert again.to_dict() == plan.to_dict()

    def test_cli_runs_and_dumps(self, capsys, tmp_path):
        assert service_main(["--dump-plan"]) == 0
        dumped = capsys.readouterr().out
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(dumped)
        assert service_main(["--plan", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "fabric utilization" in out
        assert "bulk breakdown" in out

    def test_cli_json_output(self, capsys):
        assert service_main(["--no-crash", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["report"]["service"]["migrations"] == 0
