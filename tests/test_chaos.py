"""repro.chaos: fault plans, the injection engine, scheduled failures,
the chaos CLI, and the end-to-end fault-recovery scenarios."""

import json

import pytest

from repro.chaos import (
    ChaosConflictError,
    ChaosController,
    ChaosEvent,
    ChaosPlan,
    LinkFaults,
    apply_faults,
    default_chaos_plan,
    link_name,
    parse_node,
    run_agg_chaos,
    run_cache_chaos,
)
from repro.chaos.cli import main as chaos_main
from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network
from repro.runtime import KernelSpec, Message, NetCLDevice

ECHO = "_kernel(1) void k(unsigned x, unsigned &y) { y = x + 1; return ncl::reflect(); }"


def _echo_net(seed=3):
    cp = compile_netcl(ECHO, 1)
    dev = NetCLDevice(1, cp.module, cp.kernels())
    net = Network(seed=seed, metrics=dev.metrics)
    net.add_switch(dev, processing_ns=200)
    host = net.add_host(1)
    net.link(HOST(1), DEVICE(1), Link(latency_ns=500))
    return net, host, KernelSpec.from_kernel(cp.kernels()[0])


def _send(net, host, spec, n=1):
    for i in range(n):
        msg = Message(src=1, dst=1, comp=1, to=1)
        host.send_message(msg, spec, [i, 0], delay_ns=i * 10_000)


class TestPlan:
    def test_parse_node(self):
        assert parse_node("h3") == HOST(3)
        assert parse_node("d12") == DEVICE(12)
        with pytest.raises(ValueError):
            parse_node("x1")
        with pytest.raises(ValueError):
            parse_node("hx")

    def test_link_name_is_order_independent(self):
        assert link_name(HOST(2), DEVICE(1)) == link_name(DEVICE(1), HOST(2)) == "d1-h2"

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(at_ns=0, kind="explode")
        with pytest.raises(ValueError):
            ChaosEvent(at_ns=0, kind="crash")  # missing node
        with pytest.raises(ValueError):
            ChaosEvent(at_ns=0, kind="link_down", a="h1")  # missing b

    def test_json_roundtrip(self):
        plan = ChaosPlan(
            seed=9,
            default_link=LinkFaults(loss=0.1, jitter_ns=500),
            links={"d1-h1": LinkFaults(duplicate=0.2, reorder=0.3)},
            events=[
                ChaosEvent(at_ns=1000, kind="crash", node="d1"),
                ChaosEvent(at_ns=2000, kind="link_down", a="h1", b="d1"),
            ],
        )
        back = ChaosPlan.from_json(plan.to_json())
        assert back.to_dict() == plan.to_dict()
        assert back.faults_for(HOST(1), DEVICE(1)).duplicate == 0.2
        assert back.faults_for(HOST(5), DEVICE(1)).loss == 0.1  # default

    def test_faults_for_without_default(self):
        plan = ChaosPlan(links={"d1-h1": LinkFaults(loss=1.0)})
        assert plan.faults_for(HOST(2), DEVICE(1)) is None

    def test_default_chaos_plan_roundtrip(self):
        plan = default_chaos_plan(7)
        back = ChaosPlan.from_json(plan.to_json())
        assert back.to_dict() == plan.to_dict()
        assert any(e.kind == "crash" for e in back.events)


class TestController:
    def test_total_loss_blackholes_the_link(self):
        net, host, spec = _echo_net()
        apply_faults(LinkFaults(loss=1.0), net)
        _send(net, host, spec, n=5)
        net.sim.run(until_ns=5_000_000)
        assert not host.received
        assert net.metrics.counter("chaos.lost").value == 5
        assert net.metrics.counter("chaos.lost.d1-h1").value == 5
        assert net.packets_lost == 5

    def test_duplication_delivers_twice(self):
        net, host, spec = _echo_net()
        # Duplicate only on the downlink so the request itself stays single.
        plan = ChaosPlan(seed=net.seed)
        plan.links[link_name(DEVICE(1), HOST(1))] = LinkFaults(duplicate=1.0)
        # Faults apply per transmission over the link regardless of
        # direction; send one request and count deliveries.
        ChaosController(net, plan).arm()
        _send(net, host, spec, n=1)
        net.sim.run(until_ns=5_000_000)
        assert len(host.received) >= 2
        assert net.metrics.total("chaos.duplicated") >= 1

    def test_jitter_and_reorder_are_counted(self):
        net, host, spec = _echo_net()
        apply_faults(LinkFaults(jitter_ns=2_000, reorder=1.0, reorder_delay_ns=5_000), net)
        _send(net, host, spec, n=3)
        net.sim.run(until_ns=5_000_000)
        assert len(host.received) == 3  # delayed, not lost
        assert net.metrics.total("chaos.reordered") >= 3
        assert net.metrics.total("chaos.jitter_ns") > 0

    def test_corruption_flips_data_bits(self):
        net, host, spec = _echo_net()
        plan = ChaosPlan(seed=net.seed)
        plan.links[link_name(HOST(1), DEVICE(1))] = LinkFaults(corrupt=1.0)
        ChaosController(net, plan).arm()
        _send(net, host, spec, n=1)
        net.sim.run(until_ns=5_000_000)
        assert net.metrics.total("chaos.corrupted") >= 1

    def test_scheduled_crash_and_restart(self):
        net, host, spec = _echo_net()
        plan = ChaosPlan(
            events=[
                ChaosEvent(at_ns=100_000, kind="crash", node="d1"),
                ChaosEvent(at_ns=200_000, kind="restart", node="d1"),
            ]
        )
        ChaosController(net, plan).arm()
        net.sim.run(until_ns=150_000)
        assert not net.is_up(DEVICE(1))
        net.sim.run(until_ns=300_000)
        assert net.is_up(DEVICE(1))
        assert net.metrics.total("chaos.events_fired") == 2
        assert net.metrics.total("net.crashes") == 1
        assert net.metrics.total("net.restarts") == 1

    def test_link_flap_events(self):
        net, host, spec = _echo_net()
        plan = ChaosPlan(
            events=[
                ChaosEvent(at_ns=1_000, kind="link_down", a="h1", b="d1"),
                ChaosEvent(at_ns=50_000, kind="link_up", a="h1", b="d1"),
            ]
        )
        ChaosController(net, plan).arm()
        _send(net, host, spec, n=1)  # tx overhead lands it after the cut
        net.sim.run(until_ns=55_000)
        assert not host.received  # no route while flapped down
        _send(net, host, spec, n=1)  # sent after the link comes back
        net.sim.run(until_ns=5_000_000)
        assert len(host.received) == 1

    def test_disarm_removes_hook(self):
        net, host, spec = _echo_net()
        ctl = apply_faults(LinkFaults(loss=1.0), net)
        ctl.disarm()
        assert net.fault_injector is None
        _send(net, host, spec, n=1)
        net.sim.run(until_ns=5_000_000)
        assert len(host.received) == 1

    def test_second_controller_cannot_silently_disarm_the_first(self):
        cp = compile_netcl(ECHO, 1)
        net = Network(seed=3)
        net.add_switch(NetCLDevice(1, cp.module, cp.kernels()), processing_ns=200)
        h1 = net.add_host(1)
        net.add_host(3)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(3), DEVICE(1))
        first = apply_faults(LinkFaults(loss=1.0), net, (HOST(1), DEVICE(1)))
        with pytest.raises(ChaosConflictError):
            apply_faults(LinkFaults(loss=1.0), net, (HOST(3), DEVICE(1)))
        assert net.fault_injector is first
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        h1.send_message(Message(src=1, dst=1, comp=1, to=1), spec, [1, 0])
        net.sim.run(until_ns=5_000_000)
        assert not h1.received and net.packets_lost == 1
        # disarm, then arm: the hook changes hands cleanly
        first.disarm()
        second = apply_faults(LinkFaults(loss=1.0), net, (HOST(3), DEVICE(1)))
        assert net.fault_injector is second
        with pytest.raises(ChaosConflictError):
            first.arm()  # re-arming over a live controller is refused too

    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            net, host, spec = _echo_net(seed=seed)
            apply_faults(LinkFaults(loss=0.3, duplicate=0.3, jitter_ns=1_000), net)
            _send(net, host, spec, n=20)
            net.sim.run(until_ns=20_000_000)
            return (
                len(host.received),
                net.metrics.total("chaos.lost"),
                net.metrics.total("chaos.duplicated"),
                net.metrics.total("chaos.jitter_ns"),
            )

        assert run(11) == run(11)
        assert run(11) != run(12)  # the seed actually steers the faults


class TestScenarios:
    def test_cache_survives_default_chaos(self):
        r = run_cache_chaos(seed=7)
        assert r.ok, r.errors
        assert r.failed_over
        assert r.completed == r.expected
        assert r.counters["chaos_lost"] > 0
        assert r.counters["failovers"] == 1

    def test_agg_survives_default_chaos(self):
        r = run_agg_chaos(seed=7)
        assert r.ok, r.errors
        assert r.failed_over
        assert r.counters["chaos_lost"] > 0
        assert r.counters["device_dup_drops"] >= 0

    def test_runs_are_bit_identical_under_fixed_seed(self):
        a = run_cache_chaos(seed=11)
        b = run_cache_chaos(seed=11)
        assert a.ok and b.ok
        assert a.digest == b.digest
        c = run_cache_chaos(seed=12)
        assert c.digest != a.digest

    def test_agg_determinism(self):
        a = run_agg_chaos(seed=11)
        b = run_agg_chaos(seed=11)
        assert a.ok and b.ok
        assert a.digest == b.digest

    def test_result_dict_is_json_serializable(self):
        r = run_cache_chaos(seed=7)
        d = json.loads(json.dumps(r.to_dict()))
        assert d["app"] == "cache" and d["ok"] and d["seed"] == 7
        assert d["plan"]["seed"] == 7


class TestCli:
    def test_cache_json_run(self, capsys):
        assert chaos_main(["--app", "cache", "--seed", "7", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["failed_over"]

    def test_dump_plan(self, capsys):
        assert chaos_main(["--app", "agg", "--seed", "5", "--dump-plan"]) == 0
        plan = ChaosPlan.from_json(capsys.readouterr().out)
        assert plan.seed == 5

    def test_plan_file_roundtrip(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(default_chaos_plan(7, loss=0.02).to_json())
        assert chaos_main(["--app", "cache", "--seed", "7", "--plan", str(plan_file)]) == 0
        assert "ok" in capsys.readouterr().out.lower()

    def test_no_crash_flag_skips_failover(self, capsys):
        assert chaos_main(["--app", "cache", "--seed", "7", "--no-crash", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and not out["failed_over"]
