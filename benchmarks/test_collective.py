"""Collective goodput — in-network tree vs host ring (ISSUE 9 tentpole).

Goodput = reduced tensor elements per second per worker, measured from
the slowest rank's finish time on a lossless fabric (loss sweeps live in
the chaos scenario; this series isolates protocol efficiency).  Three
sweeps are pinned in ``BENCH_paper.json``:

* workers per rack at 2 racks (4 and 8 workers total),
* rack count at 2 workers each (flat vs deeper trees),
* window size (slot parallelism vs per-slot serialization).

``speedup_time`` / ``speedup_bytes`` compare the 2-rack 8-worker
in-network allreduce against the host ring running over its reliable
transport on the same fabric shape: wall-clock (simulated) and total
link bytes, both higher-is-better for the tree.
"""

from __future__ import annotations

import random

from benchmarks.conftest import print_table
from repro.collective import build_collective_cluster, run_host_ring

ELEMENTS = 2048


def _tensors(num_workers: int, seed: int = 3) -> list[list[float]]:
    rng = random.Random(seed)
    return [
        [rng.uniform(-50.0, 50.0) for _ in range(ELEMENTS)]
        for _ in range(num_workers)
    ]


def run_tree(num_racks: int, workers_per_rack: int, window: int = 8) -> tuple[int, int]:
    """Returns (the slowest rank's finished_at_ns, link_bytes)."""
    cluster = build_collective_cluster(num_racks, workers_per_rack, window=window)
    n = num_racks * workers_per_rack
    cluster.submit("allreduce", _tensors(n))
    cluster.run(until_ms=2000, require_done=True)
    return max(w.finished_at_ns for w in cluster.workers), cluster.link_bytes()


def goodput(fact, tag: str, finish_ns: int) -> float:
    """Pins the finish time and the goodput (M elements/s/worker) it gives."""
    melems = ELEMENTS * 1000 / finish_ns
    fact(f"finish_ns_{tag}", finish_ns)
    fact(f"goodput_melems_{tag}", round(melems, 3))
    return melems


def test_goodput_vs_workers(fact):
    rows = []
    for wpr in (2, 3, 4):
        melems = goodput(fact, f"2r_{2 * wpr}w", run_tree(2, wpr)[0])
        rows.append([2 * wpr, f"{melems:.2f}"])
    print_table(
        "Collective goodput vs workers (2 racks, M elements/s/worker)",
        ["workers", "goodput"], rows,
    )
    # The switch aggregates at line rate: per-worker goodput must not
    # collapse as workers are added (same claim as Fig. 14 for AGG).
    base = float(rows[0][1])
    assert float(rows[-1][1]) > 0.7 * base, rows


def test_goodput_vs_racks(fact):
    rows = []
    for racks in (2, 3, 4):
        melems = goodput(fact, f"{racks}r_2wpr", run_tree(racks, 2)[0])
        rows.append([racks, f"{melems:.2f}"])
    print_table(
        "Collective goodput vs racks (2 workers/rack, M elements/s/worker)",
        ["racks", "goodput"], rows,
    )
    # One extra tree level (leaf -> root) costs latency per chunk but the
    # window pipelines it: deeper trees must stay within 2x of the flat one.
    assert float(rows[-1][1]) > 0.5 * float(rows[0][1]), rows


def test_goodput_vs_window(fact):
    rows = []
    series = {}
    for window in (2, 8, 32):
        series[window] = goodput(fact, f"window{window}", run_tree(2, 2, window=window)[0])
        rows.append([window, f"{series[window]:.2f}"])
    print_table(
        "Collective goodput vs window (2x2, M elements/s/worker)",
        ["window", "goodput"], rows,
    )
    # More in-flight slots must help: the wide window beats the narrow one.
    assert series[32] > series[2], series


def test_innetwork_vs_host_ring_speedup(fact):
    """The flagship comparison: 2 racks x 4 workers, in-network tree vs
    host ring over its reliable transport, identical tensors."""
    tensors = _tensors(8)
    # Wide window: the tree is latency-bound below ~32 in-flight slots
    # (see the window sweep), the ring pipelines its whole shard anyway.
    tree_ns, tree_bytes = run_tree(2, 4, window=32)
    ring = run_host_ring(2, 4, tensors)
    speedup_time = ring.finished_at_ns / tree_ns
    speedup_bytes = ring.link_bytes / tree_bytes
    fact("tree_finish_ns", tree_ns)
    fact("ring_finish_ns", ring.finished_at_ns)
    fact("speedup_time", round(speedup_time, 2))
    fact("speedup_bytes", round(speedup_bytes, 2))
    fact("tree_link_bytes", tree_bytes)
    fact("ring_link_bytes", ring.link_bytes)
    print_table(
        "In-network tree vs host ring (2 racks x 4 workers)",
        ["metric", "tree", "ring", "speedup"],
        [
            ["finish (us)", f"{tree_ns / 1e3:.0f}", f"{ring.finished_at_ns / 1e3:.0f}",
             f"{speedup_time:.2f}x"],
            ["link bytes", f"{tree_bytes:,}", f"{ring.link_bytes:,}",
             f"{speedup_bytes:.2f}x"],
        ],
    )
    # The point of in-network reduction: strictly less traffic than the
    # ring, and no slower end to end.
    assert speedup_bytes > 1.0, (tree_bytes, ring.link_bytes)
    assert speedup_time > 1.0, (tree_ns, ring.finished_at_ns)
