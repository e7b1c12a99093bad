"""Table VI — local memory and worst-case PHV occupancy.

Paper: NetCL adds PHV pressure through compiler-generated locals and the
shim NetCL header; worst-case occupancy of generated code stays within a
few percent of handwritten code for the large apps, with the biggest
relative increase on the tiny CALC program (whose PHV usage is dominated
by the base program).
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.apps import compile_app, p4_source
from repro.p4 import parse_p4, p4_to_pipeline_spec
from repro.p4.resources import p4_local_bits
from repro.tofino.report import build_report

PAIRS = [("agg", 1, "agg", "AGG"), ("cache", 1, "cache", "CACHE"),
         ("paxos", 2, "paxos_acceptor", "PACC"),
         ("paxos", 5, "paxos_learner", "PLRN"),
         ("paxos", 1, "paxos_leader", "PLDR"), ("calc", 1, "calc", "CALC")]


def measure_phv():
    out = []
    for app, dev, p4name, label in PAIRS:
        cp = compile_app(app, dev)
        stats = list(cp.kernel_stats.values())
        kernel_stats = next(
            (s for s in stats if getattr(s, "header_bits", 0) > 0), stats[0]
        )
        prog = parse_p4(p4_source(p4name))
        hand = build_report(
            p4_to_pipeline_spec(prog, name=p4name),
            local_fields=[p4_local_bits(prog)],
        )
        out.append(
            {
                "label": label,
                "gen_ir_allocas": kernel_stats.ir_alloca_bits,
                "gen_locals": kernel_stats.p4_local_bits,
                "gen_headers": kernel_stats.header_bits,
                "gen_phv": cp.report.phv_occupancy_pct,
                "hand_locals": p4_local_bits(prog),
                "hand_phv": hand.phv_occupancy_pct,
            }
        )
    return out


def test_table6_phv():
    phv_data = measure_phv()
    rows = [
        [d["label"], d["gen_ir_allocas"], d["gen_locals"], d["gen_headers"],
         f"{d['gen_phv']:.1f}%", d["hand_locals"], f"{d['hand_phv']:.1f}%",
         f"{d['gen_phv'] - d['hand_phv']:+.1f}%"]
        for d in phv_data
    ]
    print_table(
        "Table VI: local memory (bits) and worst-case PHV occupancy",
        ["app", "IR allocas", "P4 locals", "arg header", "NetCL PHV",
         "hand locals", "hand PHV", "delta"],
        rows,
    )
    for d in phv_data:
        # NetCL carries the shim header: occupancy should not be lower by
        # much, and the increase stays bounded (paper: within a few percent
        # for the big apps, ~12 points for CALC).
        delta = d["gen_phv"] - d["hand_phv"]
        assert delta > -6.0, d["label"]
        assert delta < 30.0, d["label"]
        assert d["gen_phv"] < 75.0, d["label"]
    # CALC shows one of the largest *relative* increases (base-dominated).
    calc = next(d for d in phv_data if d["label"] == "CALC")
    others = [d for d in phv_data if d["label"] in ("PACC", "PLRN", "PLDR")]
    calc_rel = calc["gen_phv"] / max(calc["hand_phv"], 1)
    assert all(calc_rel >= 0.8 * (d["gen_phv"] / max(d["hand_phv"], 1)) for d in others)
