"""Fig. 14 (left) — end-to-end AGG throughput.

Paper: aggregated tensor elements per second *per worker* for 2, 4, and 6
workers; no difference between NetCL and handwritten P4, and adding
workers does not degrade per-worker throughput (the switch aggregates at
line rate).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.apps.agg import build_agg_cluster, expected_sum
from repro.chaos import LinkFaults, apply_faults

TENSOR = 2048  # elements per worker per run
WORKER_COUNTS = (2, 4, 6)


def run_one(num_workers: int, backend: str) -> float:
    """Returns aggregated tensor elements / second / worker (millions)."""
    cluster = build_agg_cluster(
        num_workers=num_workers,
        tensor_elements=TENSOR,
        backend=backend,
        window=32,
    )
    cluster.run(until_ms=2000, require_done=True)
    exp = expected_sum(cluster)
    for w in cluster.workers:
        assert w.result == exp, "aggregation result mismatch"
    finish = max(w.stats.finished_at_ns for w in cluster.workers)
    ate_per_worker = TENSOR / (finish / 1e9)
    return ate_per_worker / 1e6  # MATE/s/worker


@pytest.fixture(scope="module")
def sweep():
    return {
        backend: {n: run_one(n, backend) for n in WORKER_COUNTS}
        for backend in ("netcl", "p4")
    }


def test_fig14_agg_throughput(benchmark, sweep, bench_metrics):
    benchmark.pedantic(run_one, args=(2, "netcl"), rounds=1, iterations=1)
    for backend in ("netcl", "p4"):
        for n in WORKER_COUNTS:
            bench_metrics(f"mate_per_worker_{backend}_{n}w", sweep[backend][n])
    rows = [
        [n, f"{sweep['netcl'][n]:.2f}", f"{sweep['p4'][n]:.2f}"]
        for n in WORKER_COUNTS
    ]
    print_table(
        "Fig. 14 (left): AGG throughput (M aggregated tensor elements/s/worker)",
        ["workers", "NetCL", "handwritten P4"],
        rows,
    )
    for n in WORKER_COUNTS:
        ncl, p4 = sweep["netcl"][n], sweep["p4"][n]
        # NetCL == handwritten P4 (identical host program and device
        # behavior; only the device implementation differs).
        assert abs(ncl - p4) / p4 < 0.05, (n, ncl, p4)
    # Per-worker throughput must not degrade with more workers (paper:
    # "adding more workers does not degrade per-worker throughput").
    base = sweep["netcl"][2]
    for n in WORKER_COUNTS[1:]:
        assert sweep["netcl"][n] > 0.85 * base, (n, sweep["netcl"][n], base)


def test_agg_throughput_survives_loss(bench_metrics):
    """Reliability does not collapse throughput (slots retransmit).

    5% loss on every link, injected through a chaos plan.  Loss and
    recovery accounting comes from the telemetry layer: the network's loss
    counters say how many packets the links ate, and the device's kernel
    counters say how much extra work retransmission cost.
    """
    lossy_cluster = build_agg_cluster(
        num_workers=2, tensor_elements=512, backend="netcl", window=16
    )
    apply_faults(LinkFaults(loss=0.05), lossy_cluster.network)
    lossy_cluster.run(until_ms=3000, require_done=True)
    exp = expected_sum(lossy_cluster)
    for w in lossy_cluster.workers:
        assert w.result == exp
    net = lossy_cluster.network
    lost = net.metrics.value("net.lost")
    assert lost > 0, "loss injection produced no losses"
    # per-link loss counters decompose the total
    assert net.metrics.total("link.lost.") == lost
    # the switch saw more dispatches than the loss-free packet count:
    # retransmissions made up for the losses
    dispatches = lossy_cluster.device.metrics.value("kernel.dispatches")
    chunks = (512 + 31) // 32
    assert dispatches > 2 * chunks  # 2 workers x 16 chunks minimum
    # kernel drops are the protocol (first packet of each pair is absorbed
    # into the aggregation), one per completed chunk at minimum
    assert net.metrics.value("net.drop.kernel") >= chunks
    bench_metrics("lossy_packets_lost", lost)
    bench_metrics("lossy_kernel_dispatches", dispatches)
