"""Every entry of ``BENCH_paper.json`` names a benchmark that records facts.

A test that runs checks its own entry (see ``conftest.py``); this check
catches the entries no test checks any more: those of a deleted or
renamed test, or of one that no longer requests the ``fact`` fixture.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from benchmarks.conftest import PAPER_FACTS


def fact_tests() -> set[str]:
    """``"<module>::<test>"`` of every benchmark that requests ``fact``."""
    found = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
                    and any(arg.arg == "fact" for arg in node.args.args)):
                found.add(f"{path.stem}::{node.name}")
    return found


def test_every_entry_names_a_fact_test():
    stale = sorted(set(json.loads(PAPER_FACTS.read_text())) - fact_tests())
    assert not stale, f"{PAPER_FACTS.name} entries that no test records: {stale}"
