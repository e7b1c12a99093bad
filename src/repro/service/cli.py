"""``python -m repro.service`` — replay a multi-tenant service workload.

Usage::

    python -m repro.service                      # the default plan
    python -m repro.service --seed 9 --json
    python -m repro.service --plan workload.json
    python -m repro.service --dump-plan > workload.json
    python -m repro.service --check-determinism

A plan is a JSON document: a fabric (switches with headroom, hosts,
links) plus a timeline of ``submit`` / ``evict`` / ``crash`` /
``restart`` / ``defragment`` / ``headroom`` events.  The replay prints
fabric utilization and a per-tenant SLO report.  ``--seed``, ``--json``,
``--dump-plan``, ``--check-determinism`` and the exit status are
:func:`repro.scenario.scenario_main`'s.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.scenario import scenario_main
from repro.service.workload import (
    ServicePlan,
    ServiceRunResult,
    default_service_plan,
    run_service_plan,
)


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plan", type=Path, default=None,
        help="JSON ServicePlan file to replay (default: the built-in plan; "
        "a file carries its own seed, so --seed is ignored)",
    )
    p.add_argument(
        "--no-crash", action="store_true",
        help="drop the mid-run switch crash from the built-in plan",
    )


def _build_plan(args: argparse.Namespace) -> ServicePlan:
    if args.plan is not None:
        return ServicePlan.from_json(args.plan.read_text())
    return default_service_plan(
        args.seed, crash_at_us=None if args.no_crash else 400
    )


def _run(args: argparse.Namespace) -> ServiceRunResult:
    return run_service_plan(_build_plan(args))


def _render(result: ServiceRunResult) -> str:
    lines = [
        f"service run: seed={result.seed} {'OK' if result.ok else 'FAILED'}",
        f"  {result.sim_ns / 1e6:.3f} ms simulated",
        "",
        "fabric utilization:",
    ]
    for sid, u in result.report.get("fabric", {}).items():
        cap, used = u["capacity"], u["used"]
        lines.append(
            f"  switch {sid}: {used['stages']:g}/{cap['stages']:g} stages "
            f"({u['stage_utilization']:.0%}), {used['sram_pct']:.1f}% SRAM, "
            f"{used['salu_pct']:.1f}% SALUs reserved"
        )
    svc = result.report.get("service", {})
    lines.append(
        f"  tenants active={svc.get('tenants_active')} "
        f"rejects={svc.get('admission_rejects')} "
        f"migrations={svc.get('migrations')} "
        f"evictions={svc.get('evictions')}"
    )
    lines.append("")
    lines.append("tenants:")
    for tid, rep in result.report.get("tenants", {}).items():
        outcome = result.tenants.get(tid, {})
        slo = rep.get("slo", {})
        status = "REJECTED" if outcome.get("rejected") else rep.get("state")
        line = f"  {tid}: {status}"
        if not outcome.get("rejected"):
            line += (
                f" placement={rep.get('placement')}"
                f" migrations={rep.get('migrations')}"
                f" completed={outcome.get('completed')}/{outcome.get('expected')}"
            )
            if slo.get("max_latency_us") is not None:
                line += (
                    f" slo_p99={slo.get('observed_p99_us')}us"
                    f"/{slo.get('max_latency_us')}us"
                    f" ({'met' if slo.get('met') else 'MISSED'})"
                )
        lines.append(line)
        if rep.get("reject_reason"):
            lines.append(f"      reason: {rep['reject_reason']}")
    for r in result.rejected:
        bd = r.get("breakdown")
        if bd:
            lines.append(
                f"  {r['tenant']} breakdown: device {bd['device']} needs "
                f"{bd['need']['stages']} stages; "
                + "; ".join(
                    f"switch {sw['switch']}: {sw['reason']}"
                    for sw in bd["switches"]
                )
            )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    return scenario_main(
        argv,
        prog="python -m repro.service",
        description="Replay a multi-tenant INC service workload",
        add_arguments=_add_arguments,
        build=_build_plan,
        run=_run,
        render=_render,
    )

