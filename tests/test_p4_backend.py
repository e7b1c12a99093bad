"""``repro.apps.p4_backend``: a handwritten P4 baseline is parsed, fitted
and lowered to engine code once per source text, and every device over it
keeps its own registers and tables."""

import random

import pytest

from repro.apps import p4_backend
from repro.apps.agg import build_agg_cluster, expected_sum
from repro.apps.cache import GET_REQ, VALUE_WORDS, build_cache_cluster
from repro.core import compile_cache_clear
from repro.p4 import compiled

TNA = dict(parser="IngressParser", ingress="Ingress", deparser="IngressDeparser")


def zeroed(device) -> bool:
    return not any(any(mem) for mem in device.interp.registers.values())


def test_agg_clusters_share_one_program_per_source_text(monkeypatch):
    calls = []
    real = compiled.generate
    monkeypatch.setattr(compiled, "generate", lambda *a: calls.append(a) or real(*a))
    first = build_agg_cluster(num_workers=2, tensor_elements=64, backend="p4")
    second = build_agg_cluster(num_workers=2, tensor_elements=64, backend="p4", seed=3)
    other = build_agg_cluster(num_workers=3, tensor_elements=64, backend="p4")
    assert first.device.program is second.device.program
    assert other.device.program is not first.device.program
    assert other.device.program.constants["NUM_WORKERS"] == 3

    first.run(require_done=True)
    assert all(w.result == expected_sum(first) for w in first.workers)
    assert not zeroed(first.device)
    assert zeroed(second.device) and zeroed(other.device)  # no packet reached them

    second.run(require_done=True)
    assert all(w.result == expected_sum(second) for w in second.workers)
    assert len(calls) == 1  # the second cluster bound the first one's code
    assert second.device.interp.packet_code(**TNA) is first.device.interp.packet_code(**TNA)
    assert first.device.interp.interpreted == second.device.interp.interpreted == 0


def test_compile_cache_clear_forgets_the_program():
    before = build_agg_cluster(num_workers=2, tensor_elements=64, backend="p4").device.program
    compile_cache_clear()
    after = build_agg_cluster(num_workers=2, tensor_elements=64, backend="p4").device.program
    assert after is not before
    assert after.source == before.source


def run_cache(cluster, cached_keys: int) -> None:
    rng = random.Random(3)
    for key in range(1, 9):
        value = [key * 10 + i for i in range(VALUE_WORDS)]
        cluster.server.store[key] = value
        if key <= cached_keys:
            cluster.controller.install(key, value)
    for _ in range(16):
        cluster.client.query(GET_REQ, rng.randrange(1, 9))
        cluster.network.sim.run()
    for rec in cluster.client.completed:
        assert rec.value == cluster.server.store[rec.key]


def test_cache_clusters_share_one_program_not_tables_or_registers():
    first = build_cache_cluster(backend="p4")
    second = build_cache_cluster(backend="p4")
    other = build_cache_cluster(backend="p4", hot_thresh=64)
    assert first.device.program is second.device.program
    assert other.device.program is not first.device.program

    run_cache(first, cached_keys=4)
    assert len(first.client.completed) == 16
    assert len(first.device.interp.tables["cache_index"].entries) == 4
    assert not zeroed(first.device)
    assert second.device.interp.tables["cache_index"].entries == []
    assert zeroed(second.device)

    run_cache(second, cached_keys=0)
    assert second.device.interp.tables["cache_index"].entries == []
    assert len(first.device.interp.tables["cache_index"].entries) == 4
    assert first.device.program.controls["Ingress"].tables["cache_index"].entries == []


def test_a_missing_constant_is_named():
    with pytest.raises(ValueError, match=r"agg\.p4 declares no 'const bit<8> NUM_WORKERZ'"):
        p4_backend("agg", "const bit<8> NUM_WORKERZ", 2)
