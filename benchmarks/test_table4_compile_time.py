"""Table IV — compilation times.

Paper: ncc always finishes in under one second; over 98% of total NetCL
compile time is spent in the (stand-in for the) P4 compiler; the EMPTY
program compiles fastest.
"""

from __future__ import annotations

from benchmarks.conftest import print_table
from repro.apps import compile_app
from repro.core import compile_cache_clear, compile_netcl

APPS = [("agg", 1), ("cache", 1), ("paxos", 2), ("paxos", 5), ("paxos", 1), ("calc", 1)]
LABELS = ["AGG", "CACHE", "PACC", "PLRN", "PLDR", "CALC"]


def compile_all():
    compile_cache_clear()  # every round times cold compiles, not cache hits
    # EMPTY: the generated program with no kernel (base program + runtime)
    compiled = [compile_app(app, dev) for app, dev in APPS] + [compile_netcl("", None)]
    return [
        (label, cp.timings.ncc_seconds, cp.timings.fitter_seconds, cp.timings.total_seconds)
        for label, cp in zip(LABELS + ["EMPTY"], compiled)
    ]


def test_table4_compile_times(benchmark, bench_metrics):
    rows = benchmark.pedantic(compile_all, rounds=3, iterations=1)
    for label, ncc, fitter, total in rows:
        bench_metrics(f"ncc_seconds_{label}", ncc)
        bench_metrics(f"total_seconds_{label}", total)
    print_table(
        "Table IV: compilation times (seconds)",
        ["program", "ncc", "fitter (bf-p4c stand-in)", "total"],
        [[l, f"{n:.4f}", f"{f:.4f}", f"{t:.4f}"] for l, n, f, t in rows],
    )
    for label, ncc, fitter, total in rows:
        # Paper: "our compiler introduces insignificant overhead, always
        # finishing in less than one second".
        assert ncc < 1.0, f"{label}: ncc took {ncc:.2f}s"
    # AGG (the largest program) must be the slowest app compile.
    by_label = {l: t for l, _, _, t in rows}
    assert by_label["AGG"] >= max(by_label[l] for l in ("PLDR", "CALC"))
    assert by_label["EMPTY"] <= by_label["AGG"]


def test_ncc_single_compile_benchmark(benchmark):
    """Microbenchmark: one full ncc run of the CALC program."""
    def cold_compile():
        compile_cache_clear()
        return compile_app("calc", 1)

    result = benchmark(cold_compile)
    assert result.report is not None


def test_ncc_scales_with_unrolled_size():
    """Compile time grows roughly linearly with unrolled kernel size and
    stays far under a second even at 8x the AGG slot width."""
    from repro.core import compile_netcl

    times = {}
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
        times[n] = cp.timings.ncc_seconds
    print("\nncc seconds by unrolled width:", {k: round(v, 4) for k, v in times.items()})
    assert times[64] < 1.0
    assert times[64] < 60 * times[8] + 0.05  # no pathological blowup
