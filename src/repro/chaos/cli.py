"""``python -m repro.chaos`` — run the fault-injection acceptance scenarios.

Usage::

    python -m repro.chaos --app cache --seed 7
    python -m repro.chaos --app agg --seed 7 --json
    python -m repro.chaos --app cache --no-crash      # link faults only
    python -m repro.chaos --app cache --plan plan.json
    python -m repro.chaos --app agg --check-determinism

``--seed``, ``--json``, ``--dump-plan``, ``--check-determinism`` and the
exit status are :func:`repro.scenario.scenario_main`'s.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.chaos.plan import ChaosPlan
from repro.chaos.scenarios import SCENARIOS, ChaosRunResult, default_chaos_plan
from repro.scenario import add_fault_arguments, scenario_main


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--app", choices=sorted(SCENARIOS), default="cache",
        help="which acceptance scenario to run",
    )
    p.add_argument(
        "--plan", type=Path, default=None,
        help="JSON ChaosPlan file to replay (overrides the default plan)",
    )
    add_fault_arguments(p, "primary-switch")


def _build_plan(args: argparse.Namespace) -> ChaosPlan:
    if args.plan is not None:
        return ChaosPlan.from_json(args.plan.read_text())
    crash_at = 60_000 if args.app == "agg" else 600_000
    return default_chaos_plan(
        args.seed, loss=args.loss, crash_at_ns=None if args.no_crash else crash_at
    )


def _run(args: argparse.Namespace) -> ChaosRunResult:
    return SCENARIOS[args.app](args.seed, plan=_build_plan(args))


def _render(result: ChaosRunResult) -> str:
    lines = [
        f"chaos run: app={result.app} seed={result.seed} "
        f"{'OK' if result.ok else 'FAILED'}",
        f"  completed {result.completed}/{result.expected} "
        f"in {result.sim_ns / 1e6:.3f} ms simulated"
        f"{' (failed over to standby)' if result.failed_over else ''}",
    ]
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    return scenario_main(
        argv,
        prog="python -m repro.chaos",
        description="Run the paper's apps under injected network failures",
        add_arguments=_add_arguments,
        build=_build_plan,
        run=_run,
        render=_render,
    )

