"""The telemetry subsystem: metrics, profiling, and their wiring."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import compile_netcl
from repro.core.cli import main as ncc_main
from repro.netsim import DEVICE, HOST, Link, Network
from repro.runtime import DeviceConnection, KernelSpec, Message, NetCLDevice
from repro.telemetry import (
    MetricRegistry,
    NULL_PROFILER,
    Profiler,
    render_profile_text,
)
from repro.telemetry.metrics import NULL_INSTRUMENT

import repro

AGG_NCL = str(Path(repro.__file__).parent / "apps" / "netcl" / "agg.ncl")

ECHO = "_kernel(1) void k(unsigned x) { return ncl::reflect(); }"
PASS = "_kernel(1) void k(unsigned x) { }"


def _device(src=ECHO, dev_id=1):
    cp = compile_netcl(src, dev_id)
    return NetCLDevice(dev_id, cp.module, cp.kernels()), KernelSpec.from_kernel(
        cp.kernels()[0]
    )


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("g")
        g.inc(3)
        g.dec()
        assert g.value == 2 and g.max_value == 3
        h = reg.histogram("h")
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count == 4 and h.sum == 106
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(26.5)
        assert h.quantile(0.5) <= h.quantile(1.0)

    def test_instruments_are_cached_by_name(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_disabled_registry_is_noop(self):
        reg = MetricRegistry(enabled=False)
        c = reg.counter("c")
        assert c is NULL_INSTRUMENT
        c.inc(100)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1)
        assert c.value == 0
        assert len(reg) == 0 and reg.snapshot() == {}

    def test_total_and_value(self):
        reg = MetricRegistry()
        reg.counter("net.drop.a").inc(2)
        reg.counter("net.drop.b").inc(3)
        reg.counter("net.lost").inc(7)
        assert reg.total("net.drop.") == 5
        assert reg.value("net.lost") == 7
        assert reg.value("absent") == 0

    def test_snapshot_and_text(self):
        reg = MetricRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2)
        reg.histogram("c").observe(10)
        snap = reg.snapshot()
        assert snap["a"] == 1
        assert snap["b"] == {"value": 2, "max": 2}
        assert snap["c"]["count"] == 1


class TestProfiler:
    def test_spans_nest_and_time(self):
        prof = Profiler()
        with prof.span("outer") as outer:
            with prof.span("inner", category="pass") as inner:
                pass
        assert inner.parent is outer
        assert outer.duration_ns >= inner.duration_ns >= 0
        assert prof.phases() == [outer] and prof.passes() == [inner]
        # total counts only top-level spans
        assert prof.total_seconds() == pytest.approx(outer.seconds)

    def test_record_external_timing(self):
        prof = Profiler()
        prof.record("dce", duration_ns=1000, meta={"changes": 3, "instrs_before": 10, "instrs_after": 7})
        prof.record("dce", duration_ns=500, meta={"changes": 1, "instrs_before": 7, "instrs_after": 7})
        (row,) = prof.pass_summary()
        assert row["runs"] == 2 and row["changes"] == 4
        assert row["instrs_delta"] == -3
        assert row["seconds"] == pytest.approx(1.5e-6)

    def test_null_profiler_records_nothing(self):
        with NULL_PROFILER.span("x") as sp:
            sp.meta["k"] = 1  # writable but discarded
        NULL_PROFILER.record("y", duration_ns=5)
        assert NULL_PROFILER.spans == []

    def test_to_dict_round_trips_through_json(self):
        prof = Profiler()
        with prof.span("frontend"):
            prof.record("simplify", duration_ns=10, meta={"changes": 0})
        d = json.loads(json.dumps(prof.to_dict()))
        assert [p["name"] for p in d["phases"]] == ["frontend"]
        assert d["passes"][0]["name"] == "simplify"


class TestCompileProfiling:
    def test_compile_populates_profiler(self):
        prof = Profiler()
        cp = compile_netcl(ECHO, 1, profiler=prof)
        assert cp.profile is prof
        names = [s.name for s in prof.phases()]
        assert names == ["frontend", "passes", "codegen", "fitter"]
        assert prof.passes(), "per-pass spans missing"
        # pass spans nest under the "passes" phase
        passes_phase = prof.phases()[1]
        assert all(s.parent is passes_phase for s in prof.passes())
        # profiler timing and CompileTimings agree within scheduling noise
        assert passes_phase.seconds <= cp.timings.passes_seconds * 3 + 0.05

    def test_default_compile_does_not_profile(self):
        cp = compile_netcl(ECHO, 1)
        assert cp.profile is NULL_PROFILER
        assert NULL_PROFILER.spans == []

    def test_pass_records_carry_ir_size_deltas(self):

        prof = Profiler()
        compile_netcl(ECHO, 1, profiler=prof)
        recs = [s for s in prof.passes() if s.meta.get("instrs_before") is not None]
        assert recs
        # sroa/mem2reg run first; sizes must be non-negative and consistent
        for s in recs:
            assert s.meta["instrs_before"] >= 0 and s.meta["instrs_after"] >= 0

    def test_render_profile_text(self):
        prof = Profiler()
        compile_netcl(ECHO, 1, profiler=prof)
        text = render_profile_text(prof)
        assert "frontend" in text and "fitter" in text
        assert "pass" in text and "Δinstrs" in text


class TestNccProfileCli:
    def test_profile_flag_prints_breakdown(self, capsys, tmp_path):
        out = tmp_path / "out.p4"
        rc = ncc_main([AGG_NCL, "--device", "1", "--profile", "-o", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "compile profile" in err
        for phase in ("frontend", "passes", "codegen", "fitter"):
            assert phase in err
        assert "mem2reg" in err  # per-pass row

    def test_profile_json_writes_valid_report(self, capsys, tmp_path):
        out = tmp_path / "out.p4"
        report = tmp_path / "profile.json"
        rc = ncc_main(
            [AGG_NCL, "--device", "1", "--profile-json", str(report), "-o", str(out)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert {p["name"] for p in data["phases"]} == {"frontend", "passes", "codegen", "fitter"}
        assert data["total_seconds"] > 0
        assert any(row["name"] == "hoist" for row in data["passes"])
        assert all(s["duration_ns"] >= 0 for s in data["spans"])


class TestLinkSerialization:
    def test_rounds_up_not_down(self):
        link = Link(bandwidth_gbps=100.0)
        # 100 bytes = 800 bits at 100 bits/ns = 8 ns exactly
        assert link.serialization_ns(100) == 8
        # 101 bytes = 808 bits -> 8.08 ns -> ceil 9
        assert link.serialization_ns(101) == 9

    def test_minimum_one_ns(self):
        fast = Link(bandwidth_gbps=10_000.0)
        assert fast.serialization_ns(1) == 1
        assert fast.serialization_ns(0) == 1


class TestNetworkCounters:
    def test_link_and_node_counters(self):
        dev, spec = _device(PASS)
        net = Network()
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        pkt = h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        m = net.metrics
        assert m.value("node.tx_packets.h1") == 1
        assert m.value("node.rx_packets.h2") == 1
        assert m.value("node.rx_packets.d1") == 1
        assert m.value("link.tx_packets.d1-h1") == 1
        assert m.value("link.tx_packets.d1-h2") == 1
        assert m.value("link.tx_bytes.d1-h1") == pkt.size_bytes

    def test_drop_causes_are_distinguished(self):
        drop_src = "_kernel(1) void k(unsigned x) { return ncl::drop(); }"
        dev, spec = _device(drop_src)
        net = Network()
        h1 = net.add_host(1)
        net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [7])
        net.sim.run()
        assert net.metrics.value("net.drop.kernel") == 1
        assert net.packets_dropped == 1

        # unroutable destination, on a forwarding (non-drop) kernel
        dev2, spec2 = _device(PASS, dev_id=2)
        net2 = Network()
        g1 = net2.add_host(1)
        net2.add_switch(dev2)
        net2.link(HOST(1), DEVICE(2))
        g1.send_message(Message(src=1, dst=9, comp=1, to=2), spec2, [7])
        net2.sim.run()
        assert net2.metrics.value("net.drop.no_route") == 1
        assert net2.packets_dropped == 1

    def test_kernel_counters(self):
        dev, spec = _device(ECHO)
        net = Network()
        h1 = net.add_host(1)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        for _ in range(3):
            h1.send_message(Message(src=1, dst=1, comp=1, to=1), spec, [1])
        net.sim.run()
        m = dev.metrics
        assert m.value("kernel.dispatches") == 3
        assert m.value("kernel.computed") == 3
        assert m.value("kernel.action.reflect") == 3
        assert m.value("kernel.forward.to_host") == 3
        assert m.value("kernel.noop_forwards") == 0

    def test_managed_memory_counters(self):
        src = """
        _managed_ unsigned counters[8];
        _kernel(1) void k(unsigned x) { }
        """
        cp = compile_netcl(src, 1)
        dev = NetCLDevice(1, cp.module, cp.kernels())
        conn = DeviceConnection(dev)
        conn.managed_write("counters", 5, 2)
        assert conn.managed_read("counters", 2) == 5
        conn.managed_read("counters", 3)
        assert dev.metrics.value("managed.writes") == 1
        assert dev.metrics.value("managed.reads") == 2


class TestServiceMetricsExport:
    """The multi-tenant service's counters ride the standard export path."""

    def test_service_and_tenant_counters_exported(self):
        from repro.deploy import AbstractTopology, PhysicalFabric
        from repro.service import INCService

        fab = PhysicalFabric()
        fab.add_switch(1)
        fab.add_host(1)
        fab.link(HOST(1), DEVICE(1))
        svc = INCService(fab)
        cp = compile_netcl(ECHO, 1)
        topo = AbstractTopology()
        topo.add_device(1, cp)
        topo.attach_host(1, 1)
        svc.submit("t1", topo)
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        net = svc.network
        net.hosts[1].send_message(
            Message(src=1, dst=1, comp=1, to=svc.device_id_of("t1", 1)),
            spec,
            [5],
        )
        net.sim.run()

        snap = json.loads(json.dumps(net.metrics.snapshot()))
        assert snap["service.tenants_active"] == {"value": 1, "max": 1}
        assert snap["service.submissions"] == 1
        assert snap["service.admission_rejects"] == 0
        assert snap["tenant.t1.packets"] == 1
        assert snap["tenant.t1.computed"] == 1
        assert snap["tenant.t1.latency_ns"]["count"] == 0

