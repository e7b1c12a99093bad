"""Keep one producer of resource specs: the fitter's input is read from a
P4 program, never built beside it.

In ``src`` a :class:`~repro.tofino.tables.PipelineSpec` or a
:class:`~repro.tofino.tables.LogicalTable` is constructed only by
:mod:`repro.p4.resources` (the reader every generated and handwritten
program goes through) and by :mod:`repro.tofino` itself.  A second
lowering would let the resources drift from the program that runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: where a spec or a logical table may be constructed
ALLOWED = {"p4/resources.py", "tofino"}


def test_only_the_resource_reader_builds_pipeline_specs():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in ALLOWED or rel.split("/")[0] in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func).rsplit(".", 1)[-1]
                if name in ("PipelineSpec", "LogicalTable"):
                    offenders.append(f"{rel}:{node.lineno} {name}(…)")
    assert not offenders, "read resources with p4_to_pipeline_spec: " + ", ".join(offenders)
