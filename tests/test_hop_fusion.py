"""One event per hop on the fault-free path.

With no fault hook armed, ``Network._hop`` schedules the receiver's work
directly: a switch hop is one event at ``link delay + processing_ns``
and a host arrival one event at ``link delay + rx_overhead_ns``.  The
reference is the same run with an empty :class:`ChaosPlan` armed, which
takes the unfused path (link arrival, then pipeline or receive) with
identical delays.

What fusion keeps, and so what these tests may demand: the fused event's
same-nanosecond tie-break is the transmit order, which is also the order
the unfused run's link arrivals give a receiver's pipeline events.  So
every receiver sees its packets in the same order as long as all
switches share one pipeline latency; two switches of different latency
finishing at the same nanosecond may swap, which the generated fabrics
below therefore do not draw.
"""

from __future__ import annotations

import functools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosController, ChaosPlan
from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network
from repro.runtime import KernelSpec, Message, NetCLDevice
from repro.runtime.message import NO_DEVICE, NetCLPacket

#: order-sensitive state: each computed packet carries the switch's tally
TALLY = r"""
_net_ unsigned tally[4];

_kernel(1) void k(unsigned slot, unsigned &n) {
  n = ncl::atomic_add_new(&tally[slot & 3], 1);
}
"""


@functools.cache
def _program(dev_id: int):
    return compile_netcl(TALLY, dev_id, program_name="tally")


def _device(net: Network, dev_id: int) -> NetCLDevice:
    cp = _program(dev_id)
    return NetCLDevice(dev_id, cp.module, cp.kernels(), metrics=net.metrics)


def _spec() -> KernelSpec:
    return KernelSpec.from_kernel(_program(1).kernels()[0])


@st.composite
def fabrics(draw):
    """A chain of 1-3 switches, 2-6 hosts on random switches, and a
    burst of computed and no-op packets of mixed sizes."""
    switches = draw(st.integers(1, 3))
    hosts = draw(st.integers(2, 6))
    latencies = st.sampled_from([0, 100, 1000])
    bandwidths = st.sampled_from([1.0, 10.0, 100.0])
    return {
        "processing_ns": draw(st.sampled_from([0, 100, 400])),
        "spine_links": [(draw(latencies), draw(bandwidths)) for _ in range(switches - 1)],
        "hosts": [
            (
                draw(st.integers(1, switches)),
                draw(latencies),
                draw(bandwidths),
                draw(st.sampled_from([0, 1500])),
            )
            for _ in range(hosts)
        ],
        "packets": draw(
            st.lists(
                st.tuples(
                    st.integers(1, hosts),  # src
                    st.integers(1, hosts),  # dst
                    st.sampled_from([0, 100, 200]),  # send time
                    st.integers(0, switches),  # computing device, 0 = no-op
                    st.sampled_from([0, 16, 64, 500]),  # no-op payload bytes
                ),
                min_size=1,
                max_size=25,
            )
        ),
    }


def _run(fabric: dict, *, fused: bool) -> Network:
    net = Network()
    n_switches = len(fabric["spine_links"]) + 1
    for d in range(1, n_switches + 1):
        net.add_switch(_device(net, d), processing_ns=fabric["processing_ns"])
    for d, (latency, gbps) in enumerate(fabric["spine_links"], start=1):
        net.link(DEVICE(d), DEVICE(d + 1), Link(latency_ns=latency, bandwidth_gbps=gbps))
    for h, (tor, latency, gbps, rx_ns) in enumerate(fabric["hosts"], start=1):
        net.add_host(h).rx_overhead_ns = rx_ns
        net.link(HOST(h), DEVICE(tor), Link(latency_ns=latency, bandwidth_gbps=gbps))
    if not fused:
        ChaosController(net, ChaosPlan()).arm()
    spec = _spec()
    for i, (src, dst, at, dev, size) in enumerate(fabric["packets"]):
        host = net.hosts[src]
        if dev:
            host.send_message(
                Message(src=src, dst=dst, comp=1, to=dev), spec, [i, 0], delay_ns=at
            )
        else:
            packet = NetCLPacket(src, dst, NO_DEVICE, NO_DEVICE, 0, 0, bytes(size))
            host.send_packet(packet, delay_ns=at)
    net.sim.run()
    return net


def _deliveries(net: Network) -> dict[int, Counter]:
    return {
        h: Counter((t, p.src, p.data) for t, p in host.received)
        for h, host in net.hosts.items()
    }


def _counters(net: Network) -> dict:
    return {k: v for k, v in net.metrics.snapshot().items() if not k.startswith("chaos.")}


@settings(max_examples=60, deadline=None)
@given(fabrics())
def test_fused_run_equals_the_unfused_one(fabric):
    fused, unfused = _run(fabric, fused=True), _run(fabric, fused=False)
    assert _deliveries(fused) == _deliveries(unfused)
    assert _counters(fused) == _counters(unfused)
    assert fused.sim.now_ns == unfused.sim.now_ns
    hops = sum(_counters(fused)[k] for k in _counters(fused) if k.startswith("link.tx_packets."))
    assert fused.sim.events_processed == unfused.sim.events_processed - hops


# -- pinned cases --------------------------------------------------------------

def _one_switch() -> tuple[Network, NetCLPacket]:
    """h1 - d1 - h2 with one no-op packet sent at t=0: it is injected at
    1500 ns, reaches d1 at 2507 ns and leaves its pipeline at 2907 ns."""
    net = Network()
    net.add_switch(_device(net, 1), processing_ns=400)
    for h in (1, 2):
        net.add_host(h)
        net.link(HOST(h), DEVICE(1))
    packet = NetCLPacket(1, 2, NO_DEVICE, NO_DEVICE, 0, 0, bytes(32))
    net.hosts[1].send_packet(packet)
    return net, packet


def _dropped(net: Network) -> dict[str, int]:
    return {
        k: v for k, v in net.metrics.snapshot().items() if k.startswith("net.drop.") and v
    }


def test_switch_crashed_before_arrival_drops_as_node_down():
    net, _ = _one_switch()
    net.sim.at(2000, net.crash_switch, 1)
    net.sim.run()
    assert not net.hosts[2].received
    assert _dropped(net) == {"net.drop.node_down": 1}
    # the drop is the last event: when the pipeline would have finished
    assert net.sim.now_ns == 2907


def test_switch_crashed_inside_the_pipeline_window_drops_as_node_down():
    net, _ = _one_switch()
    net.sim.at(2700, net.crash_switch, 1)
    net.sim.run()
    assert not net.hosts[2].received
    assert _dropped(net) == {"net.drop.node_down": 1}
    assert net.metrics.value("node.rx_packets.d1") == 1


def test_switch_removed_with_a_packet_in_flight_drops_as_unknown_node():
    net, _ = _one_switch()
    net.sim.at(2000, net.remove_switch, 1)
    net.sim.run()
    assert not net.hosts[2].received
    assert _dropped(net) == {"net.drop.unknown_node": 1}


def test_switch_replaced_with_a_packet_in_flight_drops_as_unknown_node():
    net, _ = _one_switch()

    def replace():
        net.remove_switch(1)
        net.add_switch(_device(net, 1))

    net.sim.at(2000, replace)
    net.sim.run()
    assert not net.hosts[2].received
    assert _dropped(net) == {"net.drop.unknown_node": 1}


def test_noop_packet_over_tor_spine_tor_costs_five_events():
    """inject, ToR, spine, ToR, host receive: one event each."""
    net = Network()
    for d in (1, 2, 3):
        net.add_switch(_device(net, d))
    net.link(DEVICE(1), DEVICE(3))
    net.link(DEVICE(3), DEVICE(2))
    for h, tor in ((1, 1), (2, 2)):
        net.add_host(h)
        net.link(HOST(h), DEVICE(tor))
    net.hosts[1].send_packet(NetCLPacket(1, 2, NO_DEVICE, NO_DEVICE, 0, 0, bytes(16)))
    net.sim.run()
    assert len(net.hosts[2].received) == 1
    assert net.sim.events_processed == 5


def test_a_tie_across_switches_of_different_latency_breaks_by_transmit_order():
    """The one order fusion changes.  h2's packet is sent first; h1's
    reaches its 400 ns switch first, h2's its 100 ns switch 300 ns later,
    and both leave at the same nanosecond for d3's tally.  Fused, the
    first transmitted is first; unfused, the first arrived was."""

    def run(fused: bool) -> list:
        net = Network()
        for d, processing_ns in ((1, 400), (2, 100), (3, 0)):
            net.add_switch(_device(net, d), processing_ns=processing_ns)
        net.link(DEVICE(1), DEVICE(3))
        net.link(DEVICE(2), DEVICE(3))
        for h, tor, latency in ((1, 1, 1000), (2, 2, 1300), (3, 3, 0)):
            net.add_host(h).tx_overhead_ns = 0
            net.link(HOST(h), DEVICE(tor), Link(latency_ns=latency))
        if not fused:
            ChaosController(net, ChaosPlan()).arm()
        for src in (2, 1):  # both on tally slot 0
            msg = Message(src=src, dst=3, comp=1, to=3)
            net.hosts[src].send_message(msg, _spec(), [4 * src, 0])
        net.sim.run()
        (t1, p1), (t2, p2) = sorted(net.hosts[3].received, key=lambda r: r[1].src)
        assert t1 == t2
        return [_spec().plan.decode(p.data)[1] for p in (p1, p2)]

    assert run(fused=True) == [2, 1]  # h1's tally, h2's tally
    assert run(fused=False) == [1, 2]
