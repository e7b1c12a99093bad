"""Table III — lines of code: NetCL vs handwritten P4.

Paper: NetCL needs O(10) LoC where P4 needs O(100); average reduction
~12x against the authors' own P4-16 implementations (geomean).
"""

from __future__ import annotations

import math

from benchmarks.conftest import print_table
from repro.apps import netcl_source, p4_source
from repro.p4.loc import count_loc

#: NetCL program -> handwritten P4 counterpart(s).  P4xos compares each
#: kernel against its own P4 program; the NetCL side counts the kernel's
#: share of the shared paxos.ncl file.
PAIRS = [
    ("agg", "agg", ["agg"]),
    ("cache", "cache", ["cache"]),
    ("paxos", "paxos", ["paxos_acceptor", "paxos_learner", "paxos_leader"]),
    ("calc", "calc", ["calc"]),
]


def loc_table() -> list[tuple[str, int, int, float]]:
    rows = []
    for label, ncl_name, p4_names in PAIRS:
        ncl = count_loc(netcl_source(ncl_name))
        p4 = sum(count_loc(p4_source(n)) for n in p4_names)
        rows.append((label, ncl, p4, p4 / ncl))
    return rows


def test_table3_loc_reduction(fact):
    rows = loc_table()
    for label, ncl, p4, r in rows:
        fact(f"netcl_loc_{label}", ncl)
        fact(f"p4_loc_{label}", p4)
        fact(f"reduction_{label}", round(r, 2))
    print_table(
        "Table III: lines of code (NetCL vs handwritten P4)",
        ["app", "NetCL", "P4", "reduction"],
        [[a, n, p, f"{r:.2f}x"] for a, n, p, r in rows],
    )
    reductions = [r for *_ , r in rows]
    # libm and a float sum: printed and bounded, never pinned
    geomean = math.exp(sum(math.log(r) for r in reductions) / len(reductions))
    print(f"  GEOMEAN reduction: {geomean:.2f}x (paper: 11.93x vs own P4-16)")

    # Shape assertions (paper: O(10) vs O(100), >= ~5x per app).
    for label, ncl, p4, r in rows:
        assert ncl < 120, f"{label}: NetCL should be O(10) lines, got {ncl}"
        assert p4 > 150, f"{label}: P4 should be O(100) lines, got {p4}"
        assert r >= 3.5, f"{label}: reduction {r:.1f}x below the paper's range"
    assert geomean >= 5.0


def test_table3_per_paxos_role(fact):
    rows = []
    ncl_total = count_loc(netcl_source("paxos"))
    for role in ("paxos_acceptor", "paxos_learner", "paxos_leader"):
        p4 = count_loc(p4_source(role))
        fact(f"p4_loc_{role}", p4)
        rows.append([role, p4])
        assert p4 > 100
    print_table("Table III (P4xos roles, handwritten P4)", ["role", "P4 LoC"], rows)
    assert ncl_total < 120
