"""``python -m repro.collective`` — run the collective acceptance scenario.

Usage::

    python -m repro.collective                      # 2-rack 8-worker allreduce
    python -m repro.collective --op reduce_scatter --racks 2 --workers-per-rack 4
    python -m repro.collective --elements 4096 --window 16 --json
    python -m repro.collective --no-crash           # link faults only
    python -m repro.collective --check-determinism  # run twice, compare digests

``--seed``, ``--json``, ``--check-determinism`` and the exit status are
:func:`repro.scenario.scenario_main`'s.  The acceptance checks: all ranks
finished, every element within the quantization error bound, failover
happened when a crash was planned, and the tree's fabric traffic beat
the host-ring baseline under the same link faults.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.collective.job import OPS
from repro.collective.scenarios import (
    CollectiveRunResult,
    default_collective_plan,
    run_collective_chaos,
)
from repro.scenario import add_fault_arguments, scenario_main


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--op", choices=OPS, default="allreduce",
        help="which collective to run",
    )
    p.add_argument("--racks", type=int, default=2, help="number of racks")
    p.add_argument(
        "--workers-per-rack", type=int, default=4,
        help="worker hosts attached to each rack's ToR",
    )
    p.add_argument(
        "--elements", type=int, default=2048,
        help="float32 tensor elements per rank",
    )
    p.add_argument(
        "--window", type=int, default=8, help="slot-stream window size"
    )
    add_fault_arguments(p, "ToR")
    p.add_argument(
        "--no-baseline", action="store_true",
        help="skip the host-ring baseline run and traffic comparison",
    )


def _run(args: argparse.Namespace) -> CollectiveRunResult:
    plan = default_collective_plan(
        args.seed,
        loss=args.loss,
        crash_at_ns=None if args.no_crash else 60_000,
    )
    return run_collective_chaos(
        args.seed,
        op=args.op,
        num_racks=args.racks,
        workers_per_rack=args.workers_per_rack,
        tensor_elements=args.elements,
        window=args.window,
        plan=plan,
        baseline=not args.no_baseline,
    )


def _render(r: CollectiveRunResult) -> str:
    lines = [
        f"collective run: op={r.op} seed={r.seed} "
        f"{r.num_racks}x{r.workers_per_rack} workers "
        f"{'OK' if r.ok else 'FAILED'}",
        f"  {r.finished}/{r.num_racks * r.workers_per_rack} ranks finished "
        f"in {r.sim_ns / 1e6:.3f} ms simulated"
        f"{' (failed over to standby ToR)' if r.failed_over else ''}",
        f"  max |error| {r.max_abs_error:.3e} (bound {r.error_bound:.3e})",
    ]
    if r.ring_link_bytes:
        lines.append(
            f"  fabric traffic {r.innetwork_link_bytes} B vs host ring "
            f"{r.ring_link_bytes} B "
            f"({r.ring_link_bytes / max(1, r.innetwork_link_bytes):.2f}x saved)"
        )
    else:
        lines.append(f"  fabric traffic {r.innetwork_link_bytes} B")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    return scenario_main(
        argv,
        prog="python -m repro.collective",
        description="Hierarchical in-network collectives under injected faults",
        add_arguments=_add_arguments,
        run=_run,
        render=_render,
    )

