"""RPC scatter-gather — in-network merge vs host fan-out (ISSUE 10).

The claim under test: once a reply must be gathered from N replicas, an
on-path merge beats the host doing its own fan-out — the client sends
ONE request and receives ONE merged reply regardless of N, while the
host baseline pays N requests and N replies through its single-core
packet path.  Both sides run the same reliable transport, the same
serialized per-packet host overhead, and compute bit-identical results
(``compare_gather`` raises if they ever diverge).

Three sweeps are pinned in ``BENCH_paper.json``:

* replica count (N = 2, 4, 8, 16) on a clean fabric — ``speedup_time`` /
  ``speedup_bytes`` must both exceed 1.0 from N >= 4;
* the same comparison under 2% loss (retransmissions included);
* unary memoization: the ToR-served (hit) latency vs the full
  client -> server round trip (miss).
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.chaos.plan import LinkFaults
from repro.rpc import build_rpc_cluster, compare_gather
from repro.rpc.scenarios import GetReq, scenario_handlers, scenario_schema

SEED = 7


def record(fact, tag: str, cmp, prefix: str = "") -> None:
    """Pins both sides' bytes and finish times, and the two speedups."""
    fact(f"{prefix}innetwork_bytes_{tag}", cmp.innetwork_bytes)
    fact(f"{prefix}host_bytes_{tag}", cmp.host_bytes)
    fact(f"{prefix}innetwork_ns_{tag}", cmp.innetwork_ns)
    fact(f"{prefix}host_ns_{tag}", cmp.host_ns)
    fact(f"{prefix}speedup_time_{tag}", round(cmp.speedup_time, 3))
    fact(f"{prefix}speedup_bytes_{tag}", round(cmp.speedup_bytes, 3))


def test_gather_speedup_vs_replicas(fact):
    rows = []
    for n in (2, 4, 8, 16):
        cmp = compare_gather(
            SEED, num_racks=2, servers_per_rack=n // 2, num_calls=32
        )
        assert cmp.match, f"N={n}: merged replies diverged from host fan-out"
        record(fact, f"n{n}", cmp)
        rows.append(
            [n, f"{cmp.speedup_time:.2f}x", f"{cmp.speedup_bytes:.2f}x",
             cmp.innetwork_bytes, cmp.host_bytes]
        )
        if n >= 4:
            # The acceptance claim: fewer bytes AND faster from N >= 4.
            assert cmp.speedup_time > 1.0, rows
            assert cmp.speedup_bytes > 1.0, rows
    print_table(
        "Scatter-gather: in-network merge vs host fan-out (32 calls)",
        ["replicas", "time", "bytes", "net B", "host B"], rows,
    )
    # The win must grow with the fan-out: the in-network client cost is
    # O(1) per call while the host baseline's is O(N).
    times = [float(r[1][:-1]) for r in rows]
    assert times[-1] > times[1], rows


def test_gather_speedup_survives_loss(fact):
    cmp = compare_gather(
        SEED,
        num_racks=2,
        servers_per_rack=4,
        num_calls=32,
        faults=LinkFaults(loss=0.02),
    )
    assert cmp.match
    record(fact, "n8", cmp, prefix="lossy_")
    # Loss costs the in-network path re-scatters (partially suppressed
    # by the spine's bitmap piggyback); it must still move fewer bytes
    # and finish no slower than the host fan-out under the same faults.
    assert cmp.speedup_bytes > 1.0
    assert cmp.speedup_time > 1.0


def test_memo_hit_beats_server_roundtrip(fact):
    cluster = build_rpc_cluster(
        scenario_schema(),
        scenario_handlers({}),
        num_racks=2,
        servers_per_rack=2,
        seed=SEED,
    )
    client = cluster.clients[0]
    miss = client.call("get", GetReq(key=6))
    cluster.run(until_ms=5)
    hit = client.call("get", GetReq(key=6))
    cluster.run(until_ms=5)
    assert miss.done and not miss.hit and hit.done and hit.hit
    miss_ns = miss.finished_ns - miss.sent_ns
    hit_ns = hit.finished_ns - hit.sent_ns
    fact("unary_miss_ns", miss_ns)
    fact("unary_memo_hit_ns", hit_ns)
    fact("memo_latency_ratio", round(miss_ns / hit_ns, 3))
    print_table(
        "Unary latency: ToR memo hit vs server round trip",
        ["path", "ns"], [["server miss", miss_ns], ["memo hit", hit_ns]],
    )
    # The memoized reply turns around at the ToR: it must strictly beat
    # the full trip through the ToR to the server host and back.
    assert hit_ns < miss_ns
