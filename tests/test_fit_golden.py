"""Hold every resource report to the one the retired lowering computed.

``tests/data/fit_golden.json`` was captured from the lowering that built a
pipeline spec beside the P4 text (before the program became one tree):
for the 17 ``compile_all`` units, every program the five simulated bench
workloads deploy (each per-rack collective leaf included), the EMPTY
column and the six handwritten baselines (plus the substituted AGG that
``agg_p4`` runs), its ``ResourceReport.row()``, stage entry dependencies,
parsed bytes, PHV bits and Table VI's per-kernel local memory.  The
reports are now read from the program tree; switch latencies, placements
and admission all come from them, so a moved field moves every simulated
number.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import p4_source
from repro.core import compile_netcl
from repro.p4 import parse_p4, p4_to_pipeline_spec
from repro.p4.resources import p4_local_bits
from repro.tofino.report import build_report

GOLDEN = json.loads((Path(__file__).parent / "data" / "fit_golden.json").read_text())

#: handwritten fields that moved, with why: a key is as wide as the field
#: it matches (AGG's ternary worker-bitmap key is hdr.agg.mask and md.idx,
#: 32 bits, counted as 64 before), so it takes one TCAM block per entry
#: block, not two.  Stages and dependencies do not move, so neither does
#: the switch latency agg_p4 runs with.
MOVED = {
    "agg": {"tcam_pct": 0.35, "worst_tcam_pct": 4.17},
    "agg_p4:agg": {"tcam_pct": 0.35, "worst_tcam_pct": 4.17},
}


def _facts(report, spec) -> dict:
    return {
        "row": report.row(),
        "stage_entry_dependency": {
            str(s): k.value for s, k in sorted(report.fit.stage_entry_dependency.items())
        },
        "parsed_bytes": spec.parsed_bytes,
        "phv": {
            "header_bits": report.phv.header_bits,
            "metadata_bits": report.phv.metadata_bits,
            "local_bits": report.phv.local_bits,
            "used_bits": report.phv.used_bits,
        },
    }


def _expected(entry: dict) -> dict:
    want = {k: entry[k] for k in ("row", "stage_entry_dependency", "parsed_bytes", "phv")}
    want["row"] = {**want["row"], **MOVED.get(entry["label"], {})}
    return want


@pytest.mark.parametrize("entry", GOLDEN["netcl"], ids=[e["label"] for e in GOLDEN["netcl"]])
def test_a_compiled_program_reports_what_it_did(entry):
    cp = compile_netcl(
        GOLDEN["sources"][entry["source"]],
        entry["device"],
        target=entry["target"],
        defines=dict(entry["defines"]),
        program_name=entry["program_name"],
    )
    assert _facts(cp.report, cp.spec) == _expected(entry)
    kernels = {
        name: {"ir_alloca_bits": a, "p4_local_bits": b, "header_bits": c}
        for name, (a, b, c) in cp.kernel_stats.items()
    }
    assert kernels == entry["kernels"]


def test_the_empty_program_is_the_empty_column():
    empty = compile_netcl("", None)
    assert _facts(empty.report, empty.spec) == GOLDEN["empty"]


@pytest.mark.parametrize(
    "entry", GOLDEN["handwritten"], ids=[e["label"] for e in GOLDEN["handwritten"]]
)
def test_a_handwritten_program_reports_what_it_did(entry):
    src = p4_source(entry["p4"])
    if entry["substitute"]:
        constant, value = entry["substitute"]
        start = src.find(constant + " = ")
        src = src[:start] + f"{constant} = {value};" + src[src.index(";", start) + 1 :]
    prog = parse_p4(src)
    spec = p4_to_pipeline_spec(prog, name=entry["p4"])
    assert p4_local_bits(prog) == entry["local_bits"]
    tables = build_report(spec, local_fields=[p4_local_bits(prog)])
    assert _facts(tables, spec) == _expected(entry)
    deployed = {**entry["deployed_row"], **MOVED.get(entry["label"], {})}
    assert build_report(spec).row() == deployed
