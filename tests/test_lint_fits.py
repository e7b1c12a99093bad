"""NCL007 is the fitter's verdict on the chip the target names.

``tests/lint/resources.ncl`` chains 13 dependent register accesses: each
needs a strictly later stage, so the kernel cannot fit Tofino-1's 12
stages, but fits v1model's 64.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DiagnosticEngine, lint_source
from repro.core import compile_netcl
from repro.tofino.allocator import FitError

RESOURCES = (Path(__file__).parent / "lint" / "resources.ncl").read_text()


def _ncl007(target: str) -> list[tuple[int, int]]:
    engine = DiagnosticEngine()
    lint_source(RESOURCES, engine=engine, target=target, program_name="resources")
    return [(d.line, d.col) for d in engine.diagnostics if d.code == "NCL007"]


def test_a_chain_deeper_than_tofino_warns_once_at_its_kernel():
    assert _ncl007("tna") == [(17, 17)]


def test_the_same_chain_fits_v1model_so_lint_is_silent():
    assert _ncl007("v1model") == []


def test_a_fit_error_names_the_kernel_that_owns_the_table():
    with pytest.raises(FitError) as excinfo:
        compile_netcl(RESOURCES, 1, target="tna")
    assert excinfo.value.origin == "chain"
