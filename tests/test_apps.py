"""End-to-end application tests (§VII's four applications)."""

import pytest

from repro.apps import compile_app
from repro.apps.agg import build_agg_cluster, expected_sum
from repro.apps.cache import DEL_REQ, GET_REQ, PUT_REQ, VALUE_WORDS, build_cache_cluster
from repro.apps.calc import build_calc_cluster
from repro.apps.paxos import ACCEPTOR_DEVS, build_paxos_cluster
from repro.chaos import LinkFaults, apply_faults
from repro.netsim import DEVICE


class TestCompileAll:
    @pytest.mark.parametrize("app,devs", [
        ("agg", [1]), ("cache", [1]), ("calc", [1]), ("paxos", [1, 2, 3, 4, 5]),
    ])
    def test_every_app_fits_tofino(self, app, devs):
        for dev in devs:
            cp = compile_app(app, dev)
            assert cp.report is not None
            assert cp.report.stages_used <= 12

    def test_paxos_placement_per_device(self):
        cp = compile_app("paxos", 3)
        names = [k.name for k in cp.kernels()]
        assert names == ["acceptor"]
        cp5 = compile_app("paxos", 5)
        assert [k.name for k in cp5.kernels()] == ["learner"]


class TestCalc:
    def test_all_operations(self):
        c = build_calc_cluster()
        cases = [("+", 40, 2, 42), ("-", 7, 9, (7 - 9) & 0xFFFFFFFF),
                 ("&", 0b1100, 0b1010, 0b1000), ("|", 1, 2, 3), ("^", 5, 5, 0)]
        for op, a, b, _ in cases:
            c.client.compute(op, a, b)
        c.network.sim.run()
        assert c.client.answers == [e for *_, e in cases]


class TestAgg:
    def test_multiworker_sums(self):
        for n in (2, 3, 6):
            cluster = build_agg_cluster(num_workers=n, tensor_elements=320)
            cluster.run(until_ms=100, require_done=True)
            exp = expected_sum(cluster)
            for w in cluster.workers:
                assert w.result == exp

    def test_exponent_is_max_across_workers(self):
        cluster = build_agg_cluster(num_workers=2, tensor_elements=64)
        cluster.workers[0].tensor = [1] * 64        # small exponents
        cluster.workers[1].tensor = [0xFFFF] * 64   # large exponents
        cluster.run(until_ms=50, require_done=True)
        assert all(e == 16 for e in cluster.workers[0].exponents)

    def test_loss_recovery_preserves_correctness(self):
        cluster = build_agg_cluster(num_workers=2, tensor_elements=320, seed=23)
        apply_faults(LinkFaults(loss=0.1), cluster.network)
        cluster.run(until_ms=1000, require_done=True)
        exp = expected_sum(cluster)
        for w in cluster.workers:
            assert w.result == exp
        assert sum(w.stats.retransmissions for w in cluster.workers) > 0

    def test_window_smaller_than_tensor(self):
        cluster = build_agg_cluster(num_workers=2, tensor_elements=2048, window=4)
        cluster.run(until_ms=200, require_done=True)
        exp = expected_sum(cluster)
        for w in cluster.workers:
            assert w.result == exp


class TestCache:
    @pytest.fixture
    def cluster(self):
        cl = build_cache_cluster()
        for k in range(1, 9):
            cl.server.store[k] = [k * 100 + i for i in range(VALUE_WORDS)]
        return cl

    def _roundtrip(self, cl, op, key, value=None):
        cl.client.query(op, key, value)
        cl.network.sim.run()
        return cl.client.completed[-1]

    def test_miss_then_install_then_hit(self, cluster):
        miss = self._roundtrip(cluster, GET_REQ, 3)
        assert not miss.served_by_cache and miss.value == cluster.server.store[3]
        cluster.controller.install_from_server(3)
        hit = self._roundtrip(cluster, GET_REQ, 3)
        assert hit.served_by_cache and hit.value == cluster.server.store[3]
        assert hit.latency_ns < miss.latency_ns

    def test_put_invalidates_and_updates_server(self, cluster):
        cluster.controller.install_from_server(4)
        new_value = [9] * VALUE_WORDS
        self._roundtrip(cluster, PUT_REQ, 4, new_value)
        assert cluster.server.store[4] == new_value
        after = self._roundtrip(cluster, GET_REQ, 4)
        assert not after.served_by_cache and after.value == new_value

    def test_del_removes_from_server(self, cluster):
        cluster.controller.install_from_server(5)
        self._roundtrip(cluster, DEL_REQ, 5)
        assert 5 not in cluster.server.store

    def test_hot_key_detection_and_bloom_suppression(self):
        cl = build_cache_cluster(hot_thresh=8)
        cl.server.store[77] = [1] * VALUE_WORDS
        for _ in range(30):
            cl.client.query(GET_REQ, 77)
            cl.network.sim.run()
        assert cl.server.hot_reports.count(77) == 1

    def test_controller_reacts_to_hot_report(self):
        cl = build_cache_cluster(hot_thresh=8)
        cl.server.store[88] = [8] * VALUE_WORDS
        cl.server.on_hot = lambda key: cl.controller.install_from_server(key)
        for _ in range(30):
            cl.client.query(GET_REQ, 88)
            cl.network.sim.run()
        final = cl.client.completed[-1]
        assert final.served_by_cache  # the cache absorbed the hot key

    def test_hit_counters_visible_to_controller(self, cluster):
        idx = cluster.controller.install_from_server(2)
        for _ in range(5):
            self._roundtrip(cluster, GET_REQ, 2)
        assert cluster.controller.conn.managed_read("HitCount", index=idx) == 5


class TestPaxos:
    def test_sequencing_and_delivery(self):
        px = build_paxos_cluster()
        for i in range(8):
            px.client.propose([i, 2 * i, 3 * i])
        px.network.sim.run()
        assert len(px.app.deliveries) == 8
        instances = [d.instance for d in px.app.deliveries]
        assert len(set(instances)) == 8  # unique consensus instances
        values = {tuple(d.value[:3]) for d in px.app.deliveries}
        assert values == {(i, 2 * i, 3 * i) for i in range(8)}

    def test_exactly_one_delivery_per_instance(self):
        px = build_paxos_cluster(majority=2)
        px.client.propose([42])
        px.network.sim.run()
        # 3 acceptors vote; majority (2nd vote) delivers exactly once
        assert len(px.app.deliveries) == 1

    def test_acceptor_loss_tolerated(self):
        px = build_paxos_cluster()
        # break one leader->acceptor link completely
        apply_faults(LinkFaults(loss=1.0), px.network, (DEVICE(1), DEVICE(ACCEPTOR_DEVS[0])))
        px.client.propose([7])
        px.network.sim.run()
        assert len(px.app.deliveries) == 1  # 2 of 3 acceptors still a majority

    def test_no_delivery_without_majority(self):
        px = build_paxos_cluster()
        apply_faults(
            LinkFaults(loss=1.0), px.network,
            *[(DEVICE(1), DEVICE(d)) for d in ACCEPTOR_DEVS[:2]],
        )
        px.client.propose([7])
        px.network.sim.run()
        assert not px.app.deliveries

    def test_leader_state_persists(self):
        px = build_paxos_cluster()
        px.client.propose([1])
        px.network.sim.run()
        px.client.propose([2])
        px.network.sim.run()
        insts = [d.instance for d in px.app.deliveries]
        assert insts == [1, 2]
