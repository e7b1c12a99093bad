"""Ablations over the compiler flags §VI-B calls out.

The paper motivates several toggleable transformations: aggressive
speculation ("what allowed one of the major programs to fit"), lookup
duplication ("could lead to excessive resource consumption and thus can
be turned off"), and intrinsic/peephole conversions.  These benches
measure the effect of each on stage counts and fitting.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_table
from repro.apps import compile_app, netcl_source
from repro.core import compile_netcl
from repro.passes.manager import PassOptions
from repro.tofino.allocator import FitError


def fit_with(app: str, dev: int, **flags):
    opts = PassOptions(target="tna", **flags)
    try:
        cp = compile_app(app, dev, options=opts)
        return cp.report
    except FitError:
        return None


def test_ablation_speculation(fact):
    """Speculation shortens dependency chains at the cost of PHV."""
    on = fit_with("cache", 1, speculation=True)
    off = fit_with("cache", 1, speculation=False)
    fact("stages_on", on.stages_used)
    fact("stages_off", off.stages_used if off else 0)  # 0: does not fit
    rows = [
        ["speculation on", on.stages_used, f"{on.phv_occupancy_pct:.1f}%"],
        ["speculation off",
         off.stages_used if off else "DOES NOT FIT",
         f"{off.phv_occupancy_pct:.1f}%" if off else "-"],
    ]
    print_table("Ablation: speculation (CACHE)", ["config", "stages", "phv"], rows)
    assert on is not None
    if off is not None:
        assert on.stages_used <= off.stages_used


def test_ablation_if_conversion(fact):
    """If-conversion collapses the CMS min chain (the paper's +3-stage
    culprit in generated CACHE)."""
    on = fit_with("cache", 1, if_conversion=True)
    off = fit_with("cache", 1, if_conversion=False)
    fact("stages_on", on.stages_used)
    fact("stages_off", off.stages_used if off else 0)  # 0: does not fit
    rows = [
        ["if-conversion on", on.stages_used],
        ["if-conversion off", off.stages_used if off else "DOES NOT FIT"],
    ]
    print_table("Ablation: if-conversion (CACHE)", ["config", "stages"], rows)
    assert on is not None
    if off is not None:
        assert on.stages_used <= off.stages_used


def test_ablation_lookup_duplication(fact):
    """Duplication trades SRAM for stage freedom on static lookup memory."""
    src = (
        "_net_ _lookup_ ncl::kv<unsigned,unsigned> t[64] = {{1,10},{2,20}};\n"
        "_kernel(1) void k(unsigned a, unsigned b, unsigned &x, unsigned &y) {\n"
        "  if (a > b) { ncl::lookup(t, a, x); }\n"
        "  else       { ncl::lookup(t, b, y); } }"
    )
    on = compile_netcl(src, 1, options=PassOptions(lookup_duplication=True))
    off = compile_netcl(src, 1, options=PassOptions(lookup_duplication=False))
    dup_tables = [g for g in on.module.globals if ".dup" in g]
    fact("stages_on", on.report.stages_used)
    fact("stages_off", off.report.stages_used)
    rows = [
        ["duplication on", on.report.stages_used, f"{on.report.sram_pct:.2f}%", len(dup_tables)],
        ["duplication off", off.report.stages_used, f"{off.report.sram_pct:.2f}%", 0],
    ]
    print_table(
        "Ablation: lookup duplication", ["config", "stages", "sram", "copies"], rows
    )
    assert len(dup_tables) == 2
    assert on.report.sram_pct >= off.report.sram_pct


def test_ablation_intrinsic_conversion(fact):
    """icmp -> sub+MSB conversion changes instruction mix, not behavior."""
    from repro.ir import GlobalState, IRInterpreter, KernelMessage

    src = "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) { r = a < b ? a : b; }"
    results = {}
    for flag in (True, False):
        cp = compile_netcl(src, 1, options=PassOptions(intrinsic_conversion=flag))
        fn = cp.kernels()[0]
        msg = KernelMessage({"a": 7, "b": 3, "r": 0})
        IRInterpreter(cp.module, GlobalState()).run_kernel(fn, msg)
        results[flag] = (msg.fields["r"], cp.report.stages_used)
        fact(f"stages_{'on' if flag else 'off'}", cp.report.stages_used)
    rows = [[f"conversion {k}", v[0], v[1]] for k, v in results.items()]
    print_table("Ablation: intrinsic conversion", ["config", "min(7,3)", "stages"], rows)
    assert results[True][0] == results[False][0] == 3


def test_ablation_distance_threshold():
    """The §VI-B distance check rejects spread-out exclusive accesses."""
    from repro.lang.errors import CompileError
    from repro.passes.memcheck import MemoryCheckError

    src = (
        "_net_ int m[4];\n"
        "_kernel(1) void k(int a, int b, int c, int &r) {\n"
        "  if (a > 0) { r = m[0]; }\n"
        "  else if (ncl::crc16(b) > ncl::crc16(c)) {\n"
        "    if (ncl::crc32<16>(b) > ncl::crc16(c)) { r = m[1]; } } }"
    )
    strict = PassOptions(distance_threshold=0)
    with pytest.raises((MemoryCheckError, CompileError)):
        compile_netcl(src, 1, options=strict)
    relaxed = compile_netcl(src, 1, options=PassOptions(distance_threshold=8))
    assert relaxed.report is not None
    # the paper's apps all pass at the default threshold
    assert compile_netcl(netcl_source("cache"), 1, program_name="cache").report
