"""The discrete-event network simulator."""

import pytest

from repro.chaos import LinkFaults, apply_faults
from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network, Simulator
from repro.runtime import KernelSpec, Message, NetCLDevice


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.at(30, lambda: log.append("c"))
        sim.at(10, lambda: log.append("a"))
        sim.at(20, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"] and sim.now_ns == 30

    def test_fifo_among_equal_times(self):
        sim = Simulator()
        log = []
        for tag in "xyz":
            sim.at(5, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["x", "y", "z"]

    def test_run_until_horizon(self):
        sim = Simulator()
        log = []
        sim.at(10, lambda: log.append(1))
        sim.at(100, lambda: log.append(2))
        sim.run(until_ns=50)
        assert log == [1] and sim.now_ns == 50
        sim.run()
        assert log == [1, 2]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5, lambda: None)

    def test_negative_delay_is_an_error(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match=r"cannot schedule in the past \(9 < 10\)"):
            sim.after(-1, lambda: None)
        assert sim.pending == 0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(sim.now_ns)
            sim.after(7, lambda: log.append(sim.now_ns))

        sim.at(3, outer)
        sim.run()
        assert log == [3, 10]


ECHO = "_kernel(1) void k(unsigned x) { return ncl::reflect(); }"
PASS = "_kernel(1) void k(unsigned x) { }"


def _device(src=ECHO, dev_id=1):
    cp = compile_netcl(src, dev_id)
    return NetCLDevice(dev_id, cp.module, cp.kernels()), KernelSpec.from_kernel(cp.kernels()[0])


class TestNetwork:
    def test_link_latency_accumulates(self):
        dev, spec = _device(PASS)
        net = Network()
        h1, h2 = net.add_host(1), net.add_host(2)
        h1.tx_overhead_ns = h2.rx_overhead_ns = 0
        net.add_switch(dev, processing_ns=100)
        net.link(HOST(1), DEVICE(1), Link(latency_ns=1000, bandwidth_gbps=1000))
        net.link(HOST(2), DEVICE(1), Link(latency_ns=2000, bandwidth_gbps=1000))
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        assert len(h2.received) == 1
        t, p = h2.received[0]
        # 1000 + serialization + 100 processing + 2000 + serialization
        assert t >= 3100

    def test_negative_processing_ns_is_rejected(self):
        dev, _ = _device(PASS)
        net = Network()
        with pytest.raises(ValueError, match="processing_ns must be >= 0, got -1"):
            net.add_switch(dev, processing_ns=-1)
        assert not net.switches and DEVICE(1) not in net.graph

    def test_loss_injection(self):
        dev, spec = _device(PASS)
        net = Network(seed=4)
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        apply_faults(LinkFaults(loss=1.0), net, (HOST(1), DEVICE(1)))
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        assert not h2.received and net.packets_lost == 1

    def test_multihop_routing_through_transit_switch(self):
        # h1 - d1 - d2 - h2 with computation at d2 only: d1 is a no-op.
        cp1 = compile_netcl(PASS, 1)
        cp2 = compile_netcl("_kernel(1) _at(2) void k(unsigned x) { }", 2)
        d1 = NetCLDevice(1, cp1.module, [])  # no kernels at d1
        d2 = NetCLDevice(2, cp2.module, cp2.kernels())
        spec = KernelSpec.from_kernel(cp2.kernels()[0])
        net = Network()
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(d1)
        net.add_switch(d2)
        net.link(HOST(1), DEVICE(1))
        net.link(DEVICE(1), DEVICE(2))
        net.link(DEVICE(2), HOST(2))
        h1.send_message(Message(src=1, dst=2, comp=1, to=2), spec, [9])
        net.sim.run()
        assert len(h2.received) == 1
        assert d1.packets_computed == 0 and d2.packets_computed == 1
        assert d1.packets_seen == 1

    def test_multicast_to_hosts(self):
        src = "_kernel(1) void k(unsigned x) { return ncl::multicast(3); }"
        dev, spec = _device(src)
        net = Network()
        hosts = [net.add_host(i) for i in (1, 2, 3)]
        net.add_switch(dev)
        for i in (1, 2, 3):
            net.link(HOST(i), DEVICE(1))
        net.add_multicast_group(3, [HOST(1), HOST(2), HOST(3)])
        handled = []
        hosts[2].on_receive = lambda packet, now: handled.append(packet)
        hosts[0].send_message(Message(src=1, dst=1, comp=1, to=1), spec, [7])
        net.sim.run()
        # sinks record what they receive; a host with a handler keeps nothing
        assert [len(h.received) for h in hosts] == [1, 1, 0]
        assert len(handled) == 1

    def test_delivered_multicast_replicas_are_never_reused(self):
        src = "_kernel(1) void k(unsigned x) { return ncl::multicast(3); }"
        dev, spec = _device(src)
        net = Network()
        h1, h2, _ = (net.add_host(i) for i in (1, 2, 3))
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        net.link(HOST(3), DEVICE(1))
        apply_faults(LinkFaults(loss=1.0), net, (HOST(3), DEVICE(1)))  # its replicas die
        net.add_multicast_group(3, [HOST(1), HOST(2), HOST(3)])
        h1.send_message(Message(src=1, dst=1, comp=1, to=1), spec, [7])
        net.sim.run()
        first = h2.received[0][1]
        data = first.data
        # delivered payloads stay intact after further traffic
        for x in (8, 9):
            h1.send_message(Message(src=1, dst=1, comp=1, to=1), spec, [x])
            net.sim.run()
        assert h2.received[0][1] is first and first.data == data
        delivered = [p for h in (h1, h2) for _, p in h.received]
        assert len(delivered) == 6 and len({id(p) for p in delivered}) == 6
        assert net.packets_lost == 3

    def test_drop_action_counts(self):
        src = "_kernel(1) void k(unsigned x) { return ncl::drop(); }"
        dev, spec = _device(src)
        net = Network()
        h1 = net.add_host(1)
        net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [7])
        net.sim.run()
        assert net.packets_dropped == 1

    def test_unroutable_packet_dropped(self):
        dev, spec = _device(PASS)
        net = Network()
        h1 = net.add_host(1)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        # destination host 9 does not exist
        h1.send_message(Message(src=1, dst=9, comp=1, to=1), spec, [7])
        net.sim.run()
        assert net.packets_dropped == 1

    def test_bandwidth_serialization_delay(self):
        dev, spec = _device(PASS)
        slow = Link(latency_ns=0, bandwidth_gbps=1.0)  # 1 Gbps
        net = Network()
        h1, h2 = net.add_host(1), net.add_host(2)
        h1.tx_overhead_ns = h2.rx_overhead_ns = 0
        net.add_switch(dev, processing_ns=0)
        net.link(HOST(1), DEVICE(1), slow)
        net.link(HOST(2), DEVICE(1), slow)
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        t, p = h2.received[0]
        expected_ser = 2 * p.size_bytes * 8  # two hops at 1 bit/ns
        assert t >= expected_ser


class TestLossAndMulticastTelemetry:
    """Seeded loss injection and multicast, cross-checked against the
    telemetry layer's counters."""

    def test_seeded_loss_counters_match_observed_deliveries(self):
        dev, spec = _device(PASS)
        net = Network(seed=7)
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        apply_faults(LinkFaults(loss=0.3), net, (HOST(1), DEVICE(1)), (HOST(2), DEVICE(1)))
        sent = 200
        for i in range(sent):
            h1.send_message(
                Message(src=1, dst=2, comp=1, to=1), spec, [i], delay_ns=i * 10_000
            )
        net.sim.run()
        delivered = len(h2.received)
        assert 0 < delivered < sent  # loss actually happened, but not total
        # conservation: every packet was either delivered or counted lost
        assert delivered + net.packets_lost == sent
        # the per-link loss counters decompose the total
        per_link = net.metrics.total("link.lost.")
        assert per_link == net.packets_lost == net.metrics.value("net.lost")
        # deliveries seen by the far link's tx counter
        assert net.metrics.value("link.tx_packets.d1-h2") == delivered

    def test_lossless_run_has_zero_loss_counters(self):
        dev, spec = _device(PASS)
        net = Network(seed=7)
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        for i in range(20):
            h1.send_message(
                Message(src=1, dst=2, comp=1, to=1), spec, [i], delay_ns=i * 1000
            )
        net.sim.run()
        assert len(h2.received) == 20
        assert net.packets_lost == 0 and net.packets_dropped == 0
        assert net.metrics.total("link.lost.") == 0

    def test_multicast_sends_one_replica_per_member_link(self):
        src = "_kernel(1) void k(unsigned x) { return ncl::multicast(3); }"
        dev, spec = _device(src)
        net = Network()
        hosts = [net.add_host(i) for i in (1, 2, 3)]
        net.add_switch(dev)
        for i in (1, 2, 3):
            net.link(HOST(i), DEVICE(1))
        net.add_multicast_group(3, [HOST(1), HOST(2), HOST(3)])
        hosts[0].send_message(Message(src=1, dst=1, comp=1, to=1), spec, [7])
        net.sim.run()
        assert all(len(h.received) == 1 for h in hosts)
        # h1 -> d1 carries the original, then each member's link one replica
        tx = {
            name: net.metrics.value(f"link.tx_packets.{name}")
            for name in ("d1-h1", "d1-h2", "d1-h3")
        }
        assert tx == {"d1-h1": 2, "d1-h2": 1, "d1-h3": 1}
        assert net.metrics.total("link.tx_packets.") == 4
        assert net.metrics.value("net.multicast.hops_saved") == 0


class TestSchedulerApi:
    """The (fn, args) event form and fractional-delay rounding."""

    def test_at_and_after_accept_args(self):
        sim = Simulator()
        log = []
        sim.at(10, log.append, "a")
        sim.after(20, log.append, "b")
        sim.run()
        assert log == ["a", "b"]

    @staticmethod
    def _fired_at(sim, schedule, *amounts):
        """The simulated time each of ``amounts`` fires at."""
        fired = []
        for amount in amounts:
            schedule(amount, lambda a=amount: fired.append((a, sim.now_ns)))
        sim.run()
        return dict(fired)

    def test_after_ceils_fractional_delays(self):
        sim = Simulator()
        # A sub-ns float delay must not become an instantaneous event.
        assert self._fired_at(sim, sim.after, 0.5, 1.2, 3.0, 0, 7) == {
            0.5: 1, 1.2: 2, 3.0: 3, 0: 0, 7: 7,
        }

    def test_at_ceils_fractional_times(self):
        # at() used to truncate where after() rounds up, so a time 0.4 ns
        # ahead fired "now".
        sim = Simulator()
        sim.run(until_ns=10)
        assert self._fired_at(sim, sim.at, 10.4, 12.0, 10) == {
            10.4: 11, 12.0: 12, 10: 10,
        }
        with pytest.raises(ValueError):
            sim.at(9.9, lambda: None)


class TestLinkStateBugfixes:
    """Regression tests for the ISSUE 7 link-state satellite fixes."""

    def _redundant_net(self):
        cp1 = compile_netcl(PASS, 1)
        cp2 = compile_netcl("_kernel(1) _at(2) void k(unsigned x) { }", 2)
        net = Network()
        net.add_host(1)
        net.add_host(2)
        net.add_switch(NetCLDevice(1, cp1.module, cp1.kernels()))
        net.add_switch(NetCLDevice(2, cp2.module, cp2.kernels()))
        for h in (1, 2):
            for d in (1, 2):
                net.link(HOST(h), DEVICE(d))
        return net

    def test_restart_does_not_resurrect_admin_downed_link(self):
        # flap -> crash -> restart: the flapped link must stay down.
        net = self._redundant_net()
        net.set_link_up(HOST(1), DEVICE(1), False)
        net.crash_switch(1)
        net.restart_switch(1)
        assert not net.graph.has_edge(HOST(1), DEVICE(1))
        assert net.graph.has_edge(HOST(2), DEVICE(1))
        # explicitly re-enabling brings it back
        net.set_link_up(HOST(1), DEVICE(1), True)
        assert net.graph.has_edge(HOST(1), DEVICE(1))

    def test_admin_down_link_carries_no_traffic_after_restart(self):
        dev, spec = _device(PASS)
        net = Network()
        h1, h2 = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        net.set_link_up(HOST(2), DEVICE(1), False)
        net.crash_switch(1)
        net.restart_switch(1)
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        # the packet reaches d1 but has no path on to h2
        assert not h2.received
        assert net.metrics.value("net.drop.no_route") >= 1

    def test_multicast_group_members_must_be_adjacent(self):
        net = Network()
        net.add_host(1)
        isolated = net.add_host(2)  # in the graph, but no links
        dev, _ = _device(PASS)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        with pytest.raises(ValueError, match="not an.*adjacent"):
            net.add_multicast_group(9, [HOST(1), HOST(7)])  # unknown node
        with pytest.raises(ValueError, match="h2"):
            net.add_multicast_group(9, [HOST(1), isolated.key])
        net.add_multicast_group(9, [HOST(1)])  # linked member is fine
        assert net.multicast_groups[9] == [HOST(1)]


class TestDecisionDropAccounting:
    """Non-DROP decisions can no longer lose packets invisibly."""

    def test_null_packet_decision_is_counted(self):
        from repro.runtime.device import ForwardDecision, ForwardKind

        dev, _ = _device(PASS)
        net = Network()
        net.add_host(1)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        before = net.packets_dropped
        net.execute_decision(DEVICE(1), ForwardDecision(ForwardKind.TO_HOST, 1, None))
        assert net.metrics.value("net.drop.null_decision") == 1
        assert net.packets_dropped == before + 1

    def test_multicast_to_unknown_group_is_counted(self):
        src = "_kernel(1) void k(unsigned x) { return ncl::multicast(42); }"
        dev, spec = _device(src)
        net = Network()
        h1 = net.add_host(1)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        # group 42 is never registered
        h1.send_message(Message(src=1, dst=1, comp=1, to=1), spec, [7])
        net.sim.run()
        assert net.metrics.value("net.drop.empty_group") == 1
        assert net.packets_dropped == 1
        assert not h1.received
        # the packet reached the switch and nothing left it
        assert net.metrics.value("link.tx_packets.d1-h1") == 1


class TestIncrementalRouting:
    """Per-source route caching: any topology change clears every table."""

    def _ring_net(self):
        # h1 - d1 - d2 and h3 - d2 (cycle via d1-d2 and h3's extra edge):
        #   h1-d1, h2-d1, h3-d1, d1-d2, h3-d2
        cp1 = compile_netcl(PASS, 1)
        cp2 = compile_netcl("_kernel(1) _at(2) void k(unsigned x) { }", 2)
        net = Network()
        for h in (1, 2, 3):
            net.add_host(h)
        net.add_switch(NetCLDevice(1, cp1.module, cp1.kernels()))
        net.add_switch(NetCLDevice(2, cp2.module, cp2.kernels()))
        for h in (1, 2, 3):
            net.link(HOST(h), DEVICE(1))
        net.link(DEVICE(1), DEVICE(2))
        net.link(HOST(3), DEVICE(2))
        return net

    def test_tables_fill_lazily_per_source(self):
        dev, spec = _device(PASS)
        net = Network()
        h1, _ = net.add_host(1), net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        assert net.route_rebuilds == 0
        h1.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        # only the sources that actually forwarded built tables
        assert set(net._routes) == {HOST(1), DEVICE(1)}
        assert net.route_rebuilds == 2

    def test_link_addition_clears_all_cached_routes(self):
        net = self._ring_net()
        spec = KernelSpec.from_kernel(compile_netcl(PASS, 1).kernels()[0])
        net.hosts[1].send_message(Message(src=1, dst=2, comp=1, to=1), spec, [5])
        net.sim.run()
        assert net._routes
        net.add_host(9)
        net.link(HOST(9), DEVICE(1))  # a new edge can shorten paths
        assert not net._routes
