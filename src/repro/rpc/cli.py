"""``python -m repro.rpc`` — run the RPC acceptance scenario.

Usage::

    python -m repro.rpc                       # 2 racks x 8 servers, 2 clients
    python -m repro.rpc --racks 2 --servers-per-rack 4 --clients 1
    python -m repro.rpc --gathers 24 --json
    python -m repro.rpc --no-crash            # link faults only
    python -m repro.rpc --check-determinism   # run twice, compare digests

``--seed``, ``--json``, ``--check-determinism`` and the exit status are
:func:`repro.scenario.scenario_main`'s.  The acceptance checks: all
calls completed, every gather bit-identical to the host merge twin,
every non-idempotent call applied exactly once, memoization hits
observed, failover happened when a crash was planned, and the gather
fabric traffic beat the host fan-out baseline under the same link faults.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.rpc.scenarios import RpcRunResult, default_rpc_plan, run_rpc_chaos
from repro.scenario import add_fault_arguments, scenario_main


def _add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--racks", type=int, default=2, help="number of racks")
    p.add_argument(
        "--servers-per-rack", type=int, default=8,
        help="replica servers attached to each rack's ToR",
    )
    p.add_argument(
        "--clients", type=int, default=2, help="client hosts at the edge"
    )
    p.add_argument(
        "--gets", type=int, default=8,
        help="memoizable unary calls per client",
    )
    p.add_argument(
        "--bumps", type=int, default=6,
        help="non-idempotent unary calls per client",
    )
    p.add_argument(
        "--gathers", type=int, default=12,
        help="scatter-gather calls per client",
    )
    p.add_argument(
        "--window", type=int, default=8, help="gather slot-stream window size"
    )
    add_fault_arguments(p, "ToR")
    p.add_argument(
        "--no-baseline", action="store_true",
        help="skip the host fan-out baseline run and traffic comparison",
    )


def _run(args: argparse.Namespace) -> RpcRunResult:
    plan = default_rpc_plan(
        args.seed,
        loss=args.loss,
        crash_at_ns=None if args.no_crash else 60_000,
    )
    return run_rpc_chaos(
        args.seed,
        num_racks=args.racks,
        servers_per_rack=args.servers_per_rack,
        num_clients=args.clients,
        gets_per_client=args.gets,
        bumps_per_client=args.bumps,
        gathers_per_client=args.gathers,
        window=args.window,
        plan=plan,
        baseline=not args.no_baseline,
    )


def _render(r: RpcRunResult) -> str:
    lines = [
        f"rpc run: seed={r.seed} {r.num_racks}x{r.servers_per_rack} servers, "
        f"{r.clients} clients {'OK' if r.ok else 'FAILED'}",
        f"  {r.unary_calls} unary + {r.gather_calls} gather calls completed "
        f"in {r.sim_ns / 1e6:.3f} ms simulated"
        f"{' (failed over to standby ToR)' if r.failed_over else ''}",
        f"  {r.memo_hits} calls answered by the ToR memo, "
        f"{r.replays} retries absorbed by the server reply cache",
    ]
    if r.fanout_link_bytes:
        lines.append(
            f"  fabric traffic {r.innetwork_link_bytes} B vs host fan-out "
            f"{r.fanout_link_bytes} B "
            f"({r.fanout_link_bytes / max(1, r.innetwork_link_bytes):.2f}x saved)"
        )
    else:
        lines.append(f"  fabric traffic {r.innetwork_link_bytes} B")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    return scenario_main(
        argv,
        prog="python -m repro.rpc",
        description="In-network accelerated RPC under injected faults",
        add_arguments=_add_arguments,
        run=_run,
        render=_render,
    )

