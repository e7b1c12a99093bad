"""Table V — Tofino resource utilization: generated vs handwritten P4.

Paper: every program fits a 12-stage Tofino pipe; generated CACHE needs a
few extra stages (the CMS min chain); generated AGG uses *no* TCAM while
the handwritten AGG (following SwitchML) matches worker bits with ternary
MATs; overall the generated code's usage is modest and in line with
handwritten P4.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.apps import compile_app, p4_source
from repro.core import compile_netcl
from repro.p4 import parse_p4, p4_to_pipeline_spec
from repro.p4.resources import p4_local_bits
from repro.tofino.report import build_report

GENERATED = [("agg", 1, "AGG"), ("cache", 1, "CACHE"), ("paxos", 2, "PACC"),
             ("paxos", 5, "PLRN"), ("paxos", 1, "PLDR"), ("calc", 1, "CALC")]
HANDWRITTEN = [("agg", "AGG"), ("cache", "CACHE"), ("paxos_acceptor", "PACC"),
               ("paxos_learner", "PLRN"), ("paxos_leader", "PLDR"), ("calc", "CALC")]


def collect():
    gen, hand = {}, {}
    for app, dev, label in GENERATED:
        gen[label] = compile_app(app, dev).report
    for name, label in HANDWRITTEN:
        prog = parse_p4(p4_source(name))
        spec = p4_to_pipeline_spec(prog, name=name)
        hand[label] = build_report(spec, local_fields=[p4_local_bits(prog)])
    empty = compile_netcl("", None).report  # the generated program with no kernel
    return gen, hand, empty


def _rows(reports):
    gen, hand, empty = reports
    rows = []
    for label in ("AGG", "CACHE", "PACC", "PLRN", "PLDR", "CALC"):
        for kind, rep in (("gen", gen[label]), ("hand", hand[label])):
            r = rep.row()
            rows.append(
                [f"{label}/{kind}", r["stages"], r["sram_pct"], r["tcam_pct"],
                 r["salus_pct"], r["vliw_pct"], r["worst_sram_pct"],
                 r["worst_salus_pct"]]
            )
    e = empty.row()
    rows.append(["EMPTY", e["stages"], e["sram_pct"], e["tcam_pct"],
                 e["salus_pct"], e["vliw_pct"], e["worst_sram_pct"], e["worst_salus_pct"]])
    return rows


def test_table5_resources():
    reports = collect()
    print_table(
        "Table V: Tofino resource utilization (pipe totals, % of chip)",
        ["program", "stages", "sram%", "tcam%", "salu%", "vliw%", "worst-sram%", "worst-salu%"],
        _rows(reports),
    )
    gen, hand, empty = reports

    # Everything fits a 12-stage pipe.
    for label, rep in {**{f"g/{k}": v for k, v in gen.items()},
                       **{f"h/{k}": v for k, v in hand.items()}}.items():
        assert rep.stages_used <= 12, label

    # Generated AGG's kernel adds no TCAM beyond the base program, while
    # the handwritten AGG spends TCAM on ternary worker-seen MATs.
    assert gen["AGG"].tcam_pct <= empty.tcam_pct + 0.01
    assert hand["AGG"].tcam_pct > 0

    # Generated CACHE needs a few extra stages vs handwritten (the CMS min
    # chain of subtract+MSB checks, §VII "Resources").
    extra = gen["CACHE"].stages_used - hand["CACHE"].stages_used
    assert 0 <= extra <= 4, f"generated CACHE stage delta {extra}"

    # Overall usage is "modest and in line with handwritten P4": same
    # order of magnitude on pipe totals.
    for label in ("AGG", "CACHE", "PACC", "PLRN", "PLDR", "CALC"):
        g, h = gen[label], hand[label]
        assert g.salus_pct <= max(2 * h.salus_pct, h.salus_pct + 10), label
        assert abs(g.stages_used - h.stages_used) <= 4, label

    # The EMPTY program is the floor every deployment pays.
    assert empty.stages_used <= min(r.stages_used for r in gen.values())
