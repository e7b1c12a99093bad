"""The §IV system model, reproduced as Fig. 5(a) end to end.

Four hosts, three devices, two computations: "square" triggers a local
computation at dev1 that multicasts to hosts h1 and h2; "circle" computes
at dev2, forwards to dev3, computes again, and continues to its original
destination h4.  Along the way the no-implicit-computation rule and the
previous-hop semantics of reflect() are exercised.
"""

import pytest

from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Network
from repro.runtime import Message, NetCLDevice
from repro.runtime.message import unpack

# Computation 1 = "square" at device 1; computation 2 = "circle" at
# devices 2 and 3 with different per-device behavior (SPMD on device.id).
SRC = r"""
#define SQUARE_GROUP 7

_at(1) _kernel(1) void square(unsigned x, unsigned &y) {
  y = x * x;
  return ncl::multicast(SQUARE_GROUP);
}

_at(2, 3) _net_ unsigned hops;

_at(2, 3) _kernel(2) void circle(unsigned &trace) {
  ncl::atomic_inc(&hops);
  trace = trace * 10 + device.id;
  if (device.id == 2)
    return ncl::send_to_device(3);   // alter the path (Fig. 5a)
  return ncl::pass();                // dev3: continue to the destination
}
"""


@pytest.fixture
def system():
    net = Network()
    hosts = {i: net.add_host(i) for i in (1, 2, 3, 4)}
    devices = {}
    for dev_id in (1, 2, 3):
        cp = compile_netcl(SRC, dev_id, program_name="fig5")
        dev = NetCLDevice(dev_id, cp.module, cp.kernels())
        devices[dev_id] = dev
        net.add_switch(dev)
    # Topology: h1,h2 on dev1; dev1-dev2-dev3 chain; h3 on dev2, h4 on dev3.
    net.link(HOST(1), DEVICE(1))
    net.link(HOST(2), DEVICE(1))
    net.link(DEVICE(1), DEVICE(2))
    net.link(DEVICE(2), DEVICE(3))
    net.link(HOST(3), DEVICE(2))
    net.link(HOST(4), DEVICE(3))
    net.add_multicast_group(7, [HOST(1), HOST(2)])
    square_spec = devices[1].specs[1]
    circle_spec = devices[2].specs[2]
    return net, hosts, devices, square_spec, circle_spec


def test_square_multicasts_to_neighbor_hosts(system):
    net, hosts, devices, square_spec, _ = system
    # send(1->2, square, dev1, m)
    hosts[1].send_message(Message(src=1, dst=2, comp=1, to=1), square_spec, [6, None])
    net.sim.run()
    for hid in (1, 2):
        assert len(hosts[hid].received) == 1, hid
        _, values = unpack(hosts[hid].received[0][1].to_wire(), square_spec)
        assert values == [6, 36]
    assert not hosts[3].received and not hosts[4].received


def test_circle_chains_two_devices_then_reaches_destination(system):
    net, hosts, devices, _, circle_spec = system
    # send(1->4, circle, dev2, m): dev1 is a transit no-op.
    hosts[1].send_message(Message(src=1, dst=4, comp=2, to=2), circle_spec, [0])
    net.sim.run()
    assert len(hosts[4].received) == 1
    _, values = unpack(hosts[4].received[0][1].to_wire(), circle_spec)
    assert values == [23]  # computed at dev2 then dev3, in order
    # no-implicit-computation: dev1 saw the packet but never computed
    assert devices[1].packets_seen >= 1 and devices[1].packets_computed == 0
    assert devices[2].packets_computed == 1 and devices[3].packets_computed == 1


def test_multi_location_memory_is_per_device(system):
    net, hosts, devices, _, circle_spec = system
    for _ in range(3):
        hosts[1].send_message(Message(src=1, dst=4, comp=2, to=2), circle_spec, [0])
    net.sim.run()
    # `hops` is _at(2,3): one copy per device, each incremented locally.
    assert devices[2].state.cp_register_read("hops") == 3
    assert devices[3].state.cp_register_read("hops") == 3
    with pytest.raises(Exception):
        devices[1].state.cp_register_read("hops")  # not placed at dev1


def test_previous_hop_semantics_of_reflect(system):
    """From dev3's perspective the previous hop is the last *computing*
    device (dev2), not the transit switch (§IV)."""
    net, hosts, devices, _, circle_spec = system
    hosts[1].send_message(Message(src=1, dst=4, comp=2, to=2), circle_spec, [0])
    net.sim.run()
    pkt = hosts[4].received[0][1]
    assert pkt.from_ == 3  # dev3 computed last before delivery


def test_compact_topology_shares_devices():
    """Fig. 5(c) rightmost: both computations co-located on one device."""
    src = (
        "_kernel(1) void square(unsigned x, unsigned &y) { y = x * x; return ncl::reflect(); }\n"
        "_kernel(2) void negate(unsigned x, unsigned &y) { y = 0 - x; return ncl::reflect(); }\n"
    )
    cp = compile_netcl(src, 1, program_name="compact")
    dev = NetCLDevice(1, cp.module, cp.kernels())
    assert set(dev.kernels) == {1, 2}
    net = Network()
    h = net.add_host(1)
    net.add_switch(dev)
    net.link(HOST(1), DEVICE(1))
    s1, s2 = dev.specs[1], dev.specs[2]
    h.send_message(Message(src=1, dst=1, comp=1, to=1), s1, [9, None])
    h.send_message(Message(src=1, dst=1, comp=2, to=1), s2, [9, None])
    net.sim.run()
    results = sorted(unpack(p.to_wire(), s1)[1][1] for _, p in h.received)
    assert results == sorted([81, (0 - 9) & 0xFFFFFFFF])
