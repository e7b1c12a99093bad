"""Multi-tenant service overhead — shared fabric vs dedicated deployments.

The paper deploys one NetCL program at a time (§VIII); the service
extension multiplexes a fabric between tenants.  This benchmark replays
the built-in service workload (AGG + CACHE sharing a 4-switch fabric, an
oversized third tenant rejected, one mid-run switch crash) and records
the control-plane numbers that make the "as-a-Service" claim concrete:

* both admitted tenants finish their full workload on the shared fabric
  even though one of them is live-migrated mid-run;
* admission rejects the oversized tenant instead of degrading the
  admitted ones;
* the fabric runs consolidated: reserved stages land on 2 of 4 switches.

The results are pinned in ``BENCH_paper.json``.  ``cache_p99_us`` is the
bound of the latency histogram bucket the p99 falls in, not a measured
latency, so it moves only when a bucket boundary is crossed.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.service import default_service_plan, run_service_plan

SEED = 7


def test_shared_fabric_service_workload(fact):
    result = run_service_plan(default_service_plan(SEED))
    assert result.ok, result.errors

    svc = result.report["service"]
    rows = []
    for tid, rep in sorted(result.report["tenants"].items()):
        outcome = result.tenants.get(tid, {})
        rows.append(
            [
                tid,
                rep["state"],
                f"{outcome.get('completed', 0)}/{outcome.get('expected', 0)}",
                rep["migrations"],
                rep["counters"]["packets"],
            ]
        )
    print_table(
        "multi-tenant service (seed %d)" % SEED,
        ["tenant", "state", "completed", "migrations", "packets"],
        rows,
    )

    # Both admitted tenants finished everything; the third was rejected.
    agg, cache = result.tenants["agg"], result.tenants["cache"]
    assert agg["completed"] == agg["expected"]
    assert cache["completed"] == cache["expected"]
    assert svc["admission_rejects"] == 1
    # The crash forced at least one live migration and the SLO still held.
    assert svc["migrations"] >= 1
    assert result.report["tenants"]["cache"]["slo"]["met"] is True

    used = [
        u["used"]["stages"] for u in result.report["fabric"].values()
    ]
    occupied = sum(1 for s in used if s > 0)
    assert occupied == 2  # consolidated, not smeared over all 4 switches

    fact("sim_ns", result.sim_ns)
    fact("tenants_active", svc["tenants_active"])
    fact("admission_rejects", svc["admission_rejects"])
    fact("migrations", svc["migrations"])
    fact("ops_replayed", svc["ops_replayed"])
    fact("agg_completed", agg["completed"])
    fact("cache_completed", cache["completed"])
    fact("cache_p99_us", result.report["tenants"]["cache"]["slo"]["observed_p99_us"])
    fact("occupied_switches", occupied)
    fact("stages_reserved", sum(used))
