"""Fig. 12 — breakdown of P4 code across constructs.

Paper: on average over 65% of P4 code is packet-processing constructs
(headers, parsers, MATs) with ~30% on header definitions + parsing alone;
RegisterActions ~13% of stateful apps; only ~10% is imperative control
logic; roughly half the code is non-compute plumbing.
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import PAPER_APPS, print_table
from repro.apps import p4_source
from repro.p4.loc import LineCategory, breakdown_fractions, classify_lines


def breakdown():
    per_app = {}
    total = Counter()
    for name in PAPER_APPS:
        counts = classify_lines(p4_source(name))
        per_app[name] = counts
        total += counts
    return per_app, total


def test_fig12_breakdown(fact):
    per_app, total = breakdown()
    cats = [c for c in LineCategory]
    rows = []
    for name, counts in per_app.items():
        for c in cats:
            fact(f"{name}.{c.value}", counts.get(c, 0))
        n = sum(counts.values())
        rows.append([name] + [f"{100*counts.get(c,0)/n:.0f}%" for c in cats])
    print_table("Fig. 12: P4 construct breakdown", ["app"] + [c.value for c in cats], rows)

    frac = breakdown_fractions(total)
    frac["headers_parser"] = frac["headers"] + frac["parser"]
    for share in ("headers_parser", "register", "control", "tables", "deparser",
                  "packet_processing"):
        fact(f"aggregate_pct_{share}", round(100 * frac[share], 1))
    print(
        f"  aggregate: packet-processing {100*frac['packet_processing']:.1f}% "
        f"(paper >65% incl. plumbing), headers+parser "
        f"{100*frac['headers_parser']:.1f}% (paper ~30%), "
        f"register externs {100*frac['register']:.1f}% (paper ~13%), "
        f"apply control logic {100*frac['control']:.1f}% (paper ~10%)"
    )

    # Headers + parsing form a major share (paper: ~30%).
    assert frac["headers_parser"] > 0.18
    # Non-compute plumbing (packet processing + other) is about half or more.
    assert frac["packet_processing"] + frac["other"] > 0.40
    # Imperative apply logic is a small minority (paper ~10%).
    assert frac["control"] < 0.30
    # Register/extern code is substantial in the stateful apps.
    stateful = ["agg", "cache", "paxos_acceptor", "paxos_learner"]
    reg_share = sum(per_app[a].get(LineCategory.REGISTER, 0) for a in stateful) / sum(
        sum(per_app[a].values()) for a in stateful
    )
    assert reg_share > 0.08
