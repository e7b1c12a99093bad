"""Table IV — compilation times.

Paper: ncc always finishes in under one second; over 98% of total NetCL
compile time is spent in the (stand-in for the) P4 compiler; the EMPTY
program compiles fastest.

Seconds are one machine's reading, so they are printed, and only the
paper's ceiling (ncc < 1 s per program) is asserted on them.  Which
program is the largest compile is asserted, and pinned, on deterministic
sizes: the IR instructions of the compiled kernels and the pipeline's
logical tables.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.apps import compile_app
from repro.core import compile_netcl

APPS = [("agg", 1), ("cache", 1), ("paxos", 2), ("paxos", 5), ("paxos", 1), ("calc", 1)]
LABELS = ["AGG", "CACHE", "PACC", "PLRN", "PLDR", "CALC"]


def ir_instrs(cp) -> int:
    return sum(len(block.instructions) for fn in cp.kernels() for block in fn.blocks)


def test_table4_compile_times(fact):
    # EMPTY: the generated program with no kernel (base program + runtime)
    compiled = [compile_app(app, dev) for app, dev in APPS] + [compile_netcl("", None)]
    labels = LABELS + ["EMPTY"]
    sizes = {}
    for label, cp in zip(labels, compiled):
        sizes[label] = (ir_instrs(cp), len(cp.spec.tables))
        fact(f"ir_instrs_{label}", sizes[label][0])
        fact(f"tables_{label}", sizes[label][1])
    print_table(
        "Table IV: compilation times (seconds)",
        ["program", "ncc", "fitter (bf-p4c stand-in)", "total", "IR instrs", "tables"],
        [[label, f"{cp.timings.ncc_seconds:.4f}", f"{cp.timings.fitter_seconds:.4f}",
          f"{cp.timings.total_seconds:.4f}", *sizes[label]]
         for label, cp in zip(labels, compiled)],
    )
    for label, cp in zip(labels, compiled):
        # Paper: "our compiler introduces insignificant overhead, always
        # finishing in less than one second".
        assert cp.timings.ncc_seconds < 1.0, f"{label}: ncc took {cp.timings.ncc_seconds:.2f}s"
    # AGG is the largest compile and EMPTY the smallest, on both sizes.
    for i in (0, 1):
        ranked = sorted(labels, key=lambda label: sizes[label][i])
        assert ranked[-1] == "AGG" and ranked[0] == "EMPTY", sizes


def test_ncc_scales_with_unrolled_size(fact):
    """Compile size grows linearly with unrolled kernel width, up to 8x
    the AGG slot width."""
    sizes, seconds = {}, {}
    for n in (8, 32, 64):
        body = "\n".join(
            f"  v[{i}] = ncl::atomic_add_new(&m[{i}][idx & 255], v[{i}]);"
            for i in range(n)
        )
        src = (
            f"_net_ unsigned m[{n}][256];\n"
            f"_kernel(1) void k(unsigned idx, unsigned _spec({n}) *v) {{\n"
            f"{body}\n}}"
        )
        cp = compile_netcl(src, 1, fit=False)
        sizes[n] = (ir_instrs(cp), len(cp.spec.tables))
        seconds[n] = round(cp.timings.ncc_seconds, 4)
        fact(f"ir_instrs_w{n}", sizes[n][0])
        fact(f"tables_w{n}", sizes[n][1])
    print("\nncc by unrolled width (IR instrs, tables):", sizes, "seconds:", seconds)
    for i in (0, 1):
        # growth with width, and no more than linear: 8x the width is at
        # most 8x the size
        assert sizes[8][i] < sizes[32][i] < sizes[64][i], sizes
        assert sizes[64][i] <= 8 * sizes[8][i], sizes
