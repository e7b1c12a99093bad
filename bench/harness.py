"""The rep loop, the metric tables and the result line.

One process measures one workload: it loads the program (timed), then
repeats build -> run -> check with the same seed until ``--seconds`` have
passed, reports the lower quartile of the timings, and fails loudly when any rep's outputs are
wrong or two reps of one seed disagree.  ``run_all`` starts one such
process per workload, one after another (the sandbox has two cores and
``peak_rss_mb`` must be the workload's own).
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MIN_REPS = 3
WARMUP_SCALE = 0.25
#: a traced run makes one untraced rep per this many traced ones, as the
#: base of ``trace.overhead_share``
TRACED_PER_REFERENCE = 3

def typical(samples: list[float]) -> float:
    """The lower quartile of repeated timings of the same work.

    Not the median: on the shared sandbox the noise is one-sided and comes
    in phases (several reps in a row 1.3-1.5x slower while a neighbour is
    busy, never faster), so the median of a run moves with how many of its
    reps a phase happened to cover.  Over ten-seed sweeps the lower
    quartile spreads half as wide as the median (bench/README.md)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[0]


def metric_unit(name: str) -> str:
    """Unit of a metric, from its name (the naming is the schema)."""
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_call"):
        return "us"
    if name.endswith("_ns") or name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("share"):
        return "ratio"
    return "count"


def program_on_path() -> None:
    """Make the checkout's own ``src/`` importable (the benchmark measures
    the program it sits next to, never an installed copy)."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _one_rep(workload, seed: int, scale: float, layers=None):
    """build -> run -> check once; returns (setup_s, wall_s, outcome, state).
    With ``layers`` the wrappers are installed for this rep only."""
    gc.collect()
    installed = layers.installed() if layers is not None else nullcontext()
    span = layers.tracer.span if layers is not None else nullcontext
    with installed:
        with span("setup"):
            t0 = time.perf_counter()
            state = workload.build(seed, scale)
            t1 = time.perf_counter()
        with span("run"):
            t2 = time.perf_counter()
            workload.run(state)
            t3 = time.perf_counter()
    return t1 - t0, t3 - t2, workload.check(state), state


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            chrome_trace: Path | None = None) -> dict:
    """Measure one workload in this process; returns the detail record."""
    program_on_path()
    from bench import workloads

    t0 = time.perf_counter()
    workloads.load_program()
    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[name]()

    # One small discarded rep: lazy imports, memoised tables and the
    # allocator's arenas are warm before anything is timed.
    _one_rep(workload, seed, scale * WARMUP_SCALE)

    layers = None
    if trace:
        from bench import layers as tracing

        layers = tracing.Layers()
    started = time.perf_counter()
    setups: list[float] = []
    walls: list[float] = []
    outcomes = []
    problems: list[str] = []
    #: untraced reps of a traced run, interleaved with the traced ones
    #: (U TTT U TTT ...) so machine drift cancels out of overhead_share
    reference: list[float] = []
    layer_reps: list[dict[str, float]] = []
    while len(walls) < MIN_REPS or time.perf_counter() - started < seconds:
        if trace and len(reference) <= len(walls) // TRACED_PER_REFERENCE:
            reference.append(_one_rep(workload, seed, scale)[1])
            continue
        setup_s, wall_s, outcome, state = _one_rep(workload, seed, scale, layers)
        setups.append(setup_s)
        walls.append(wall_s)
        outcomes.append(outcome)
        if trace:
            spans = layers.tracer.spans()
            counts = tracing.program_counts(layers.networks)
            problems += tracing.check_integrity(
                spans, counts, layers.compile.calls, workload.setup_compiles
            )
            layer_reps.append(tracing.rep_metrics(spans, counts, layers.compile, outcome.facts))
    if trace and chrome_trace is not None:
        from bench.tracer import write_chrome_trace

        chrome_trace.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(spans, chrome_trace)

    first = outcomes[0]
    for i, o in enumerate(outcomes[1:], start=1):
        if (o.facts, o.digest) != (first.facts, first.digest):
            problems.append(
                f"rep {i} differs from rep 0 on seed {seed}: "
                f"{o.facts} {o.digest[:12]} vs {first.facts} {first.digest[:12]}"
            )
    worst = max(outcomes, key=lambda o: (o.failed, len(o.errors)))
    problems += worst.errors

    if not trace:
        metrics = {
            "wall_s": typical(walls),
            "setup_s": import_s + typical(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = tracing.median_metrics(layer_reps)
        pack_us, unpack_us = tracing.message_costs(workload.message_sample(state))
        traced_wall = typical(walls)
        metrics.update(
            {
                "runtime.message.pack_us": pack_us,
                "runtime.message.unpack_us": unpack_us,
                "trace.wall_s": traced_wall,
                "trace.overhead_share": traced_wall / typical(reference) - 1.0,
                "sim.done_ns": first.facts.get("sim_done_ns", 0),
                "sim.link_bytes": first.facts.get("sim_link_bytes", 0),
                "sim.op_p50_ns": first.facts.get("sim_op_p50_ns", 0),
                "sim.op_p99_ns": first.facts.get("sim_op_p99_ns", 0),
                "out.p4_bytes": first.facts.get("p4_bytes", 0),
                "out.stages_used": first.facts.get("stages_used", 0),
            }
        )
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "reps": len(walls),
        "import_s": import_s,
        "wall_samples_s": walls,
        "setup_samples_s": setups,
        "attempted": worst.attempted,
        "failed": worst.failed,
        "correct": worst.failed == 0 and not problems,
        "problems": problems,
        "facts": first.facts,
        "digest": first.digest,
        "metrics": metrics,
    }


def print_detail(detail: dict) -> None:
    """Every metric by name and unit, then the evidence for any problem."""
    walls = detail["wall_samples_s"]
    print(
        f"{detail['workload']} seed={detail['seed']} "
        f"{'traced' if detail['trace'] else 'untraced'}: n={detail['reps']} reps, "
        f"wall min {min(walls):.4f} low-quartile {typical(walls):.4f} "
        f"median {statistics.median(walls):.4f} max {max(walls):.4f} s; "
        f"failed {detail['failed']}/{detail['attempted']}"
    )
    for name, value in detail["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {metric_unit(name)}")
    for name, value in detail["facts"].items():
        print(f"  {name:34s} {value:>16d} (exact per seed)")
    for line in detail["problems"][:20]:
        print(f"  PROBLEM {line}")


def result_line(detail: dict) -> str:
    """The contract's last line of standard output."""
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {
                name: {"value": value, "unit": metric_unit(name)}
                for name, value in detail["metrics"].items()
            },
        }
    )


def run_one(args) -> int:
    chrome = OUT_DIR / f"{args.workload}.trace.json" if args.chrome_trace else None
    detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, chrome
    )
    print_detail(detail)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(detail, indent=1))
    print(result_line(detail), flush=True)
    return 0 if detail["correct"] else 1


def run_all(args, *, trace: bool) -> int:
    """``bench run`` / ``bench trace``: every workload, one child process
    each, one after another; writes one result file for ``bench check``."""
    from bench.workloads import WORKLOADS

    names = args.workloads or list(WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    status = 0
    for name in names:
        part = OUT_DIR / f".{name}.part.json"
        cmd = [
            sys.executable, "-m", "bench", "one",
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(trace)),
            "--scale", str(args.scale), "--out", str(part),
        ]
        if trace:
            cmd.append("--chrome-trace")
        proc = subprocess.run(cmd, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
        # the child's last line is the machine result; show the rest
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        if part.exists():
            results[name] = json.loads(part.read_text())
            part.unlink()
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            status = 1
    out = Path(args.out or OUT_DIR / f"{'trace' if trace else 'run'}-seed{args.seed}.json")
    out.write_text(json.dumps(results, indent=1))
    print(f"wrote {out}")
    return status
