"""The single points of PR 22: one fabric description
(:class:`AbstractTopology` and the shape functions), one realiser
(:meth:`AbstractTopology.realise`), one placement search
(:meth:`DeploymentPlanner.search`)."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from repro.apps import compile_app
from repro.collective import (
    ROOT_DEVICE,
    build_collective_cluster,
    leaf_device,
)
from repro.collective.baseline import _RingRun
from repro.collective.tenant import ABSTRACT_ROOT, abstract_leaf, submit_collective_tenant
from repro.collective.tree import collective_topology
from repro.core import compile_cache_info, compile_netcl
from repro.deploy import (
    AbstractTopology,
    DeploymentError,
    DeploymentPlanner,
    PhysicalFabric,
)
from repro.deploy.planner import DeviceDemand
from repro.netsim import DEVICE, HOST, Link, node_name
from repro.rpc import (
    EDGE_DEVICE,
    SG_DEVICE,
    build_rpc_cluster,
    tor_device,
)
from repro.rpc.baseline import _FanoutRun
from repro.rpc.cluster import rpc_topology
from repro.rpc.scenarios import scenario_handlers, scenario_schema
from repro.rpc.tenant import ABSTRACT_EDGE, ABSTRACT_SG, abstract_tor, submit_rpc_tenant
from repro.service import AdmissionError, INCService, IncrementalPlanner, TenantState

ECHO = "_kernel(1) void k(unsigned x, unsigned &y) { y = x + %d; return ncl::reflect(); }"


def _mesh(switches, hosts, **headroom) -> PhysicalFabric:
    """A full mesh of ``switches`` with every host wired to every switch."""
    fab = PhysicalFabric()
    for sid in switches:
        fab.add_switch(sid, **headroom)
    for a, b in itertools.combinations(switches, 2):
        fab.link(DEVICE(a), DEVICE(b))
    for h in hosts:
        fab.add_host(h)
        for sid in switches:
            fab.link(HOST(h), DEVICE(sid))
    return fab


# ---------------------------------------------------------------------------
# the description validates itself, at all three call sites
# ---------------------------------------------------------------------------

def _dangling(kind: str) -> AbstractTopology:
    topo = AbstractTopology()
    topo.add_device(1, compile_netcl(ECHO % 1, 1))
    topo.attach_host(1, 1)
    if kind == "edge":
        topo.connect_devices(1, 9)
    elif kind == "attachment":
        topo.attach_host(2, 9)
    elif kind == "group":
        topo.add_multicast_group(5, [HOST(1), DEVICE(9)])
    else:
        topo.spares[9] = 1
    return topo


@pytest.mark.parametrize("kind", ["edge", "attachment", "group", "spare"])
class TestDanglingReference:
    def test_planner_names_it(self, kind):
        with pytest.raises(DeploymentError, match="abstract device 9"):
            DeploymentPlanner(_mesh((1, 2), (1, 2))).plan(_dangling(kind))

    def test_realiser_names_it(self, kind):
        with pytest.raises(DeploymentError, match="abstract device 9"):
            _dangling(kind).realise()

    def test_service_rejects_and_stays_intact(self, kind):
        svc = INCService(_mesh((1, 2), (1, 2)), seed=3)
        nodes = set(svc.network.graph._adj)
        residual = svc.admission.residual()
        with pytest.raises(AdmissionError, match="abstract device 9"):
            svc.submit("t", _dangling(kind))
        tenant = svc.tenants["t"]
        assert tenant.state is TenantState.REJECTED
        assert "abstract device 9" in tenant.reject_reason
        assert set(svc.network.graph._adj) == nodes
        assert svc.admission.residual() == residual
        assert svc._queue == [] and svc._host_owner == {}
        # the id is free again
        topo = AbstractTopology.star(1, compile_netcl(ECHO % 1, 1), [1])
        assert svc.submit("t", topo).state is TenantState.RUNNING


def test_service_rejects_a_device_without_a_program():
    svc = INCService(_mesh((1, 2), (1,)), seed=3)
    with pytest.raises(AdmissionError, match="without a program"):
        svc.submit("t", AbstractTopology.star(1, None, [1]))
    assert svc.tenants["t"].state is TenantState.REJECTED


# ---------------------------------------------------------------------------
# shape limits live in the shape function: both paths get them
# ---------------------------------------------------------------------------

BAD_COLLECTIVE = [
    # (num_racks, workers_per_rack, message)
    (2, 17, "workers_per_rack must be in"),
    (1, 4, "num_racks must be in"),
    (17, 2, "num_racks must be in"),
    (5, 13, "at most 64 workers"),
]


@pytest.mark.parametrize("racks,per_rack,message", BAD_COLLECTIVE)
def test_collective_shape_limits_on_both_paths(racks, per_rack, message):
    with pytest.raises(ValueError, match=message):
        build_collective_cluster(racks, per_rack)
    hosts = list(range(1, racks * per_rack + 1))
    svc = INCService(_mesh((1, 2, 3), hosts), seed=3)
    with pytest.raises(ValueError, match=message):
        submit_collective_tenant(svc, "c", hosts, num_racks=racks)
    assert svc.network.metrics.value("service.submissions") == 0
    assert "c" not in svc.tenants
    assert compile_cache_info().misses == 0  # nothing was compiled either


@pytest.mark.parametrize("fanout", [0, 17])
def test_rpc_fanout_limit_on_both_paths(fanout):
    schema, handlers = scenario_schema(), scenario_handlers({})
    with pytest.raises(ValueError, match="fanout must be in"):
        build_rpc_cluster(schema, handlers, num_racks=1, servers_per_rack=fanout)
    servers = list(range(2, 2 + fanout))
    svc = INCService(_mesh((1, 2, 3), [1, *servers]), seed=3)
    with pytest.raises(ValueError, match="fanout must be in"):
        submit_rpc_tenant(
            svc, "r", schema, handlers,
            client_hosts=[1], server_hosts=servers, num_racks=1,
        )
    assert svc.network.metrics.value("service.submissions") == 0
    assert compile_cache_info().misses == 0


# ---------------------------------------------------------------------------
# the one search
# ---------------------------------------------------------------------------

def _random_case(rng: random.Random):
    """A fabric of <= 6 switches with mixed headroom (sometimes in two
    islands) and a topology of <= 4 devices with synthetic demands."""
    n = rng.randint(2, 6)
    fab = PhysicalFabric()
    for sid in range(1, n + 1):
        fab.add_switch(
            sid,
            free_stages=rng.choice([2, 4, 6, 12]),
            free_sram_pct=rng.choice([20.0, 60.0, 100.0]),
        )
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.45:
            fab.link(DEVICE(a), DEVICE(b))
    for h in (1, 2):
        fab.add_host(h)
        for sid in rng.sample(range(1, n + 1), rng.randint(1, 2)):
            fab.link(HOST(h), DEVICE(sid))
    k = rng.randint(1, min(4, n))
    topo = AbstractTopology()
    demands = {}
    for dev in range(1, k + 1):
        topo.add_device(dev)
        demands[dev] = DeviceDemand(
            rng.choice([1, 3, 5, 8]), rng.choice([5.0, 30.0, 70.0]), 1.0
        )
        if dev > 1 and rng.random() < 0.7:
            topo.connect_devices(rng.randint(1, dev - 1), dev)
    topo.attach_host(1, 1)
    if rng.random() < 0.5:
        topo.attach_host(2, k)
    return fab, topo, demands


def _brute_force(fab: PhysicalFabric, topo: AbstractTopology, demands) -> bool:
    """Does any injective assignment fit every demand and keep every
    topology link's two ends connected in the fabric?"""
    lengths = fab.graph().all_pairs_lengths()
    devices = sorted(demands)
    for switches in itertools.permutations(fab.switches, len(devices)):
        where = dict(zip(devices, switches))
        fits = all(
            demands[d].stages <= fab.switches[s].free_stages
            and demands[d].sram_pct <= fab.switches[s].free_sram_pct
            and demands[d].salu_pct <= fab.switches[s].free_salu_pct
            for d, s in where.items()
        )
        if fits and all(
            (b if b[0] == "h" else DEVICE(where[b[1]]))
            in lengths[a if a[0] == "h" else DEVICE(where[a[1]])]
            for a, b in topo.links()
        ):
            return True
    return False


def _headroom(fab: PhysicalFabric) -> dict:
    return {
        sid: [sw.free_stages, sw.free_sram_pct, sw.free_salu_pct]
        for sid, sw in fab.switches.items()
    }


class TestOneSearch:
    def test_places_iff_brute_force_finds_a_fit(self):
        rng = random.Random(22)
        placed = refused = 0
        for _ in range(300):
            fab, topo, demands = _random_case(rng)
            try:
                got = DeploymentPlanner(fab).search(topo, demands, _headroom(fab))
            except DeploymentError as exc:
                assert not _brute_force(fab, topo, demands), str(exc)
                assert exc.breakdown is not None
                refused += 1
                continue
            assert _brute_force(fab, topo, demands)
            assert sorted(got) == sorted(demands)
            assert len(set(got.values())) == len(got)
            placed += 1
        assert placed > 50 and refused > 50  # the cases exercise both answers

    def test_plan_is_the_incremental_search_on_the_pristine_residual(self):
        agg = compile_app("agg", 1)
        topo = AbstractTopology()
        topo.add_device(1, agg)
        topo.add_device(2, compile_netcl(ECHO % 2, 2))
        topo.add_device(3, compile_netcl(ECHO % 3, 3))
        topo.connect_devices(1, 2)
        topo.connect_devices(2, 3)
        topo.attach_host(1, 1)
        topo.attach_host(2, 3)
        fab = PhysicalFabric()
        for sid, stages in ((1, 4), (2, 12), (3, 6), (4, 12), (5, 2)):
            fab.add_switch(sid, free_stages=stages)
        for a, b in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)):
            fab.link(DEVICE(a), DEVICE(b))
        for h, s in ((1, 1), (2, 4)):
            fab.add_host(h)
            fab.link(HOST(h), DEVICE(s))
        svc = INCService(fab)
        demands = {
            d: DeviceDemand(cp.report.stages_used, cp.report.sram_pct, cp.report.salus_pct)
            for d, cp in topo.programs.items()
        }
        planned = DeploymentPlanner(fab).plan(topo)
        assert planned == IncrementalPlanner(fab).plan_incremental(
            topo, demands, svc.admission.residual()
        )
        assert planned[1] in (2, 4)  # the only switches with 12 free stages

    def test_exclude_and_pinned_are_honoured(self):
        topo = AbstractTopology()
        for dev in (1, 2):
            topo.add_device(dev)
        topo.connect_devices(1, 2)
        topo.attach_host(1, 1)
        fab = _mesh((1, 2, 3, 4), (1,))
        demands = {1: DeviceDemand(2, 1.0, 1.0), 2: DeviceDemand(2, 1.0, 1.0)}
        planner = IncrementalPlanner(fab)
        free = _headroom(fab)
        assert planner.plan_incremental(topo, demands, free) == {1: 1, 2: 2}
        got = planner.plan_incremental(topo, demands, free, exclude=frozenset({1, 2}))
        assert got == {1: 3, 2: 4}
        # device 1 stays where it is; only device 2 is (re)placed, never onto 3
        moved = planner.plan_incremental(
            topo, {2: demands[2]}, free, exclude=frozenset({1}), pinned={1: 3}
        )
        assert moved == {2: 2}

    def test_backtracks_out_of_a_greedy_dead_end(self):
        """Device 1 (placed first: most stages) prefers switch 1, next to
        its host -- the only switch whose SRAM fits device 2.  The search
        must undo that choice instead of failing the placement."""
        topo = AbstractTopology()
        for dev in (1, 2):
            topo.add_device(dev)
        topo.attach_host(1, 1)
        fab = PhysicalFabric()
        fab.add_switch(1, free_stages=12, free_sram_pct=100.0)
        fab.add_switch(2, free_stages=12, free_sram_pct=10.0)
        fab.link(DEVICE(1), DEVICE(2))
        fab.add_host(1)
        fab.link(HOST(1), DEVICE(1))
        demands = {1: DeviceDemand(8, 5.0, 1.0), 2: DeviceDemand(2, 50.0, 1.0)}
        got = DeploymentPlanner(fab).search(topo, demands, _headroom(fab))
        assert got == {1: 2, 2: 1}


# ---------------------------------------------------------------------------
# the one realiser
# ---------------------------------------------------------------------------

def _edges(links, rename=lambda node: node) -> set:
    return {frozenset((rename(a), rename(b))) for a, b in links}


def _net_edges(net) -> set:
    return {frozenset(k) for k in net.links}


class TestOneShapeManyRealisations:
    def test_collective_standalone_tenant_and_baseline_share_the_graph(self):
        standalone = build_collective_cluster(2, 2).network
        ring = _RingRun(2, 2, [[0.0]] * 4, seed=7).net
        tenant = collective_topology(
            2, [1, 2, 3, 4], root=ABSTRACT_ROOT, leaf=abstract_leaf, target=None
        )
        ids = {ABSTRACT_ROOT: ROOT_DEVICE, abstract_leaf(0): leaf_device(0),
               abstract_leaf(1): leaf_device(1)}
        rename = lambda n: n if n[0] == "h" else DEVICE(ids[n[1]])  # noqa: E731
        assert _net_edges(standalone) == _net_edges(ring)
        assert _net_edges(standalone) == _edges(tenant.links(), rename)
        assert standalone.multicast_groups == tenant.multicast_groups

    def test_rpc_standalone_tenant_and_baseline_share_the_graph(self):
        schema, handlers = scenario_schema(), scenario_handlers({})
        standalone = build_rpc_cluster(schema, handlers).network
        fan = _FanoutRun(2, 2, [], None, {}, window=4, seed=7).net
        tenant = rpc_topology(
            2, [1], [2, 3, 4, 5], edge=ABSTRACT_EDGE, sg=ABSTRACT_SG,
            tor=abstract_tor, target=None,
        )
        ids = {ABSTRACT_EDGE: EDGE_DEVICE, ABSTRACT_SG: SG_DEVICE,
               abstract_tor(0): tor_device(0), abstract_tor(1): tor_device(1)}
        rename = lambda n: n if n[0] == "h" else DEVICE(ids[n[1]])  # noqa: E731
        assert _net_edges(standalone) == _net_edges(fan)
        assert _net_edges(standalone) == _edges(tenant.links(), rename)
        assert standalone.multicast_groups == tenant.multicast_groups
        # one host model on both sides of the fan-out comparison
        assert all(h.serialize_overheads for h in standalone.hosts.values())
        assert all(h.serialize_overheads for h in fan.hosts.values())

    def test_a_baseline_compiles_nothing(self):
        _RingRun(2, 2, [[0.0]] * 4, seed=7)
        _FanoutRun(2, 2, [], None, {}, window=4, seed=7)
        assert compile_cache_info().misses == 0


def _snapshot(net) -> dict:
    """What routing and timing depend on: adjacency *order*, groups,
    per-link parameters, per-switch pipeline latency."""
    return {
        "adjacency": {
            node_name(n): [node_name(m) for m in net.graph.neighbors(n)]
            for n in sorted(net.graph._adj)
        },
        "groups": {
            str(g): [node_name(m) for m in members]
            for g, members in sorted(net.multicast_groups.items())
        },
        "links": {
            "-".join(sorted(node_name(n) for n in key)): [
                link.latency_ns, link.bandwidth_gbps
            ]
            for key, link in net.links.items()
        },
        "processing_ns": {
            str(d): sw.processing_ns for d, sw in sorted(net.switches.items())
        },
    }


class TestRealisedFabricIsTheParents:
    """``tests/data/fabric_snapshot.json`` was taken on the commit before
    the realiser existed (PR 21): a golden-digest failure that comes with
    a failure here points at the edge that moved."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "fabric_snapshot.json").read_text()
    )

    @staticmethod
    def _diff(got: dict, want: dict) -> list[str]:
        return [
            f"{section}[{key}]: {got[section].get(key)} != {value}"
            for section in want
            for key, value in want[section].items()
            if got[section].get(key) != value
        ] + [
            f"{section}[{key}]: unexpected"
            for section in want
            for key in got[section]
            if key not in want[section]
        ]

    def test_collective_with_standbys(self):
        net = build_collective_cluster(2, 2, standby=True, reliable=True).network
        assert self._diff(_snapshot(net), self.GOLDEN["collective"]) == []

    def test_rpc_with_standbys(self):
        net = build_rpc_cluster(
            scenario_schema(), scenario_handlers({}),
            standby=True, num_clients=2,
        ).network
        assert self._diff(_snapshot(net), self.GOLDEN["rpc"]) == []


class TestLinksAreNotShared:
    def _only_this_link_changed(self, net, template: Link):
        first, *rest = net.links.values()
        first.bandwidth_gbps = 0.5
        assert all(link.bandwidth_gbps == template.bandwidth_gbps for link in rest)
        assert all(link is not template for link in net.links.values())

    def test_standalone(self):
        net = build_collective_cluster(2, 2).network
        self._only_this_link_changed(net, Link())

    def test_planned_deployment_copies_the_template_per_edge(self):
        topo = AbstractTopology.star(1, compile_netcl(ECHO % 1, 1), [1])
        template = Link(latency_ns=700, bandwidth_gbps=40.0)
        plan = DeploymentPlanner(_mesh((1, 2, 3), (1, 2))).deploy(topo, link=template)
        assert all(link.latency_ns == 700 for link in plan.network.links.values())
        self._only_this_link_changed(plan.network, template)
        assert template.bandwidth_gbps == 40.0


class TestDeploymentObject:
    def test_standalone_and_tenant_offer_the_same_four_accessors(self):
        prog = compile_app("cache", 1)
        standalone = AbstractTopology.star(1, prog, [1, 2]).realise()
        svc = INCService(_mesh((1, 2), (1, 2)), seed=3)
        tenant = svc.submit("t", AbstractTopology.star(1, prog, [1, 2]))
        for deployment in (standalone, tenant):
            assert deployment.network.hosts.keys() >= {1, 2}
            conn = deployment.control(1)
            assert deployment.control(1) is conn
            deployment.register_channel(1, "ch")
            assert (1, "ch") in deployment.channels
        assert standalone.address(1) == 1
        assert tenant.address(1) == svc.device_id_of("t", 1) != 1

    def test_standalone_control_journals_only_where_a_spare_can_take_over(self):
        from repro.reliability import ReplicatedConnection
        from repro.runtime import DeviceConnection

        prog = compile_app("cache", 1)
        plain = AbstractTopology.star(1, prog, [1, 2]).realise()
        assert isinstance(plain.control(1), DeviceConnection)
        spared = AbstractTopology.star(1, prog, [1, 2], spare=(2, prog)).realise()
        assert isinstance(spared.control(1), ReplicatedConnection)
        assert sorted(spared.devices) == [1, 2]
