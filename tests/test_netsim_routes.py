"""Next-hop tables carry the stats of the link they route over.

One rule keeps them fresh: any topology change clears every cached table,
and the source that next forwards rebuilds its own.  So a cached
``(next hop, _LinkStats)`` pair never outlives the link it names: after
every topology change — with packets in flight on the links being
changed — each cached entry must equal what a fresh shortest-path
computation plus ``_link_stats`` gives, and the next packet must be
counted on exactly the links that computation routes it over.
"""

from __future__ import annotations

import pytest

from repro.core import compile_netcl
from repro.netsim import DEVICE, HOST, Link, Network, node_name
from repro.runtime import NetCLDevice
from repro.runtime.message import NO_DEVICE, NetCLPacket

IDLE = "_kernel(1) void idle(uint32_t x) { }"
TX = "link.tx_packets."


def two_spine_fabric() -> Network:
    """h1,h2 - d1 ; h3,h4 - d2 ; spines d3 and d4 join the two ToRs."""
    net = Network(seed=5)
    for dev in (1, 2, 3, 4):
        cp = compile_netcl(IDLE, dev, program_name="idle")
        net.add_switch(NetCLDevice(dev, cp.module, cp.kernels(), metrics=net.metrics))
    for spine in (3, 4):
        net.link(DEVICE(1), DEVICE(spine))
        net.link(DEVICE(2), DEVICE(spine))
    for host, tor in ((1, 1), (2, 1), (3, 2), (4, 2)):
        net.add_host(host)
        net.link(HOST(host), DEVICE(tor))
    return net


def send(net: Network, src: int, dst: int) -> NetCLPacket:
    packet = NetCLPacket(src, dst, NO_DEVICE, NO_DEVICE, 0, 0, bytes(16))
    net.hosts[src].send_packet(packet)
    return packet


def assert_cached_tables_are_fresh(net: Network) -> None:
    for src, table in net._routes.items():
        fresh = {
            dst: path[1]
            for dst, path in net.graph.shortest_paths(src).items()
            if len(path) > 1
        }
        assert {dst: nxt for dst, (nxt, _) in table.items()} == fresh
        for nxt, stats in table.values():
            assert stats is net._link_stats[frozenset((src, nxt))]
            assert stats.link is net.links[frozenset((src, nxt))]


def fresh_path(net: Network, src, dst) -> list:
    """The hop-by-hop route a fresh shortest-path computation gives."""
    path = [src]
    while path[-1] != dst:
        path.append(net.graph.shortest_paths(path[-1])[dst][1])
    return path


def tx_counts(net: Network) -> dict[str, int]:
    return {i.name[len(TX):]: i.value for i in net.metrics if i.name.startswith(TX)}


def crash(dev):
    return lambda net: net.crash_switch(dev)


def link_up(a, b, up):
    return lambda net: net.set_link_up(a, b, up)


D1, D2, D3, D4 = (DEVICE(i) for i in (1, 2, 3, 4))

#: each case is a sequence of topology changes; the checks run after each
CHANGES = {
    "crash_switch": [crash(3)],
    "restart_switch": [crash(3), lambda net: net.restart_switch(3), crash(4)],
    "set_link_up": [link_up(D1, D3, False), link_up(D1, D3, True), link_up(D2, D4, False)],
    "remove_link": [lambda net: net.remove_link(D1, D3), lambda net: net.remove_link(D2, D3)],
    "remove_switch": [lambda net: net.remove_switch(3)],
    "relink": [
        lambda net: net.link(D1, D3, Link()),
        lambda net: net.link(HOST(1), D1, Link()),
    ],
}


@pytest.mark.parametrize("case", CHANGES)
def test_cached_routes_and_stats_survive_topology_changes(case):
    net = two_spine_fabric()
    for change in CHANGES[case]:
        # traffic both ways, stopped with one wave on the ToR-spine links
        # and the next inside the ToR pipelines
        for pause_ns in (400, 2_800):
            for src, dst in ((1, 3), (3, 1), (2, 4), (4, 2)):
                send(net, src, dst)
            net.sim.run(until_ns=net.sim.now_ns + pause_ns)
        # packets on links and inside pipelines at the change: both waves
        # are still in the network, each packet one pending hop event
        assert net.sim.pending == 8
        change(net)
        assert_cached_tables_are_fresh(net)
        net.sim.run()
        assert_cached_tables_are_fresh(net)

        # one probe per direction: counted on the links it crossed, no other
        for src, dst in ((1, 3), (4, 2)):
            before = tx_counts(net)
            probe = send(net, src, dst)
            net.sim.run()
            assert net.hosts[dst].received[-1][1] is probe
            path = [node_name(n) for n in fresh_path(net, HOST(src), HOST(dst))]
            crossed = {"-".join(sorted(pair)) for pair in zip(path, path[1:])}
            after = tx_counts(net)
            moved = {name for name in after if after[name] != before.get(name, 0)}
            assert moved == crossed
            assert all(after[name] - before.get(name, 0) == 1 for name in crossed)
        assert_cached_tables_are_fresh(net)


def test_relinked_pair_routes_over_the_new_link_object():
    net = two_spine_fabric()
    send(net, 1, 3)
    net.sim.run()
    spine = net._routes[D1][HOST(3)][0]
    old = net._routes[D1][HOST(3)][1]
    net.link(D1, spine, Link(latency_ns=9))
    # the stale pair is gone; the rebuilt one holds the new link's stats
    assert D1 not in net._routes
    send(net, 1, 3)
    net.sim.run()
    new = net._routes[D1][HOST(3)][1]
    assert new is not old and new.link.latency_ns == 9
    assert new is net._link_stats[frozenset((D1, spine))]


#: one change of each kind, after whatever setup it needs
ONE_CHANGE = {
    "crash_switch": ([], crash(3)),
    "restart_switch": ([crash(3)], lambda net: net.restart_switch(3)),
    "set_link_up(False)": ([], link_up(D1, D3, False)),
    "set_link_up(True)": ([link_up(D1, D3, False)], link_up(D1, D3, True)),
    "remove_link": ([], lambda net: net.remove_link(D2, D4)),
    "remove_switch": ([], lambda net: net.remove_switch(4)),
    "link": ([], lambda net: net.link(D1, D3, Link())),
}


@pytest.mark.parametrize("case", ONE_CHANGE)
def test_no_cached_table_survives_a_topology_change(case):
    setup, change = ONE_CHANGE[case]
    net = two_spine_fabric()
    for step in setup:
        step(net)
    for src, dst in ((1, 3), (3, 1), (2, 4), (4, 2)):
        send(net, src, dst)
    net.sim.run()
    # every host and both ToRs forwarded, so each holds a table
    assert {HOST(h) for h in (1, 2, 3, 4)} | {D1, D2} <= set(net._routes)
    rebuilds = net.route_rebuilds
    change(net)
    assert net._routes == {}
    assert net.route_rebuilds == rebuilds  # rebuilt lazily, not here
