"""What every scenario entry point shares, stated once.

``python -m repro.chaos``, ``repro.collective``, ``repro.rpc`` and
``repro.service`` each run one seeded scenario and judge it the same
way: a SHA-256 digest over the application-visible outcome plus every
counter (:func:`digest`), a result record whose ``--json`` form is its
dataclass fields (:class:`ScenarioResult`), the acceptance fault model
of 5% loss / duplication / reordering plus one mid-run switch crash
(:func:`acceptance_plan`), and a command line with ``--seed``,
``--json``, ``--check-determinism`` and the 0/1/2 exit policy
(:func:`scenario_main`).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional


def digest(payload) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def acceptance_plan(
    seed: int,
    *,
    crash_node: str,
    crash_at_ns: Optional[int],
    loss: float,
    duplicate: float,
    reorder: float,
    jitter_ns: int,
):
    """The acceptance fault model: loss + duplication + reordering +
    jitter on every link, and (unless ``crash_at_ns`` is None) a crash of
    ``crash_node`` mid-run."""
    # imported here: repro.chaos's package import pulls in its scenarios,
    # which import this module
    from repro.chaos.plan import ChaosEvent, ChaosPlan, LinkFaults

    faults = LinkFaults(
        loss=loss,
        duplicate=duplicate,
        reorder=reorder,
        reorder_delay_ns=15_000,
        jitter_ns=jitter_ns,
    )
    events = []
    if crash_at_ns is not None:
        events.append(ChaosEvent(at_ns=crash_at_ns, kind="crash", node=crash_node))
    return ChaosPlan(seed=seed, default_link=faults, events=events)


def add_fault_arguments(parser: argparse.ArgumentParser, crash_of: str) -> None:
    """The two knobs of :func:`acceptance_plan` a command line exposes."""
    parser.add_argument(
        "--loss", type=float, default=0.05, help="per-hop loss probability"
    )
    parser.add_argument(
        "--no-crash", action="store_true",
        help=f"skip the mid-run {crash_of} crash (link faults only)",
    )


@dataclass(kw_only=True)
class ScenarioResult:
    """What one scenario run produced; subclasses add their own fields."""

    seed: int
    ok: bool
    errors: list[str]
    sim_ns: int
    digest: str
    metrics: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The ``--json`` report: every field but the full metric
        snapshot, which the digest already covers."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "metrics"
        }


def scenario_main(
    argv: Optional[list[str]],
    *,
    prog: str,
    description: str,
    add_arguments: Callable[[argparse.ArgumentParser], None],
    run: Callable[[argparse.Namespace], ScenarioResult],
    render: Callable[[ScenarioResult], str],
    build: Optional[Callable[[argparse.Namespace], object]] = None,
) -> int:
    """Parse, run, report.  Exit status 0 = every acceptance check
    passed, 1 = the scenario failed, 2 = bad input or (under
    ``--check-determinism``) two runs with different digests.  One
    ``--seed`` drives everything a run draws, so the printed digest is the
    same on every invocation with that seed.

    ``run(args)`` performs one full run; ``render(result)`` is the
    scenario's own summary, under which the digest, the counters and the
    errors are printed the same way for all.  ``build(args)``, for entry
    points whose plan is a replayable JSON document, returns that plan;
    it adds ``--dump-plan``.  A ``ValueError`` or ``OSError`` from either
    (an out-of-range size, an unreadable or malformed ``--plan`` file) is
    reported as a usage error; anything else is a bug and propagates.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed: workload, fault RNG and the fabric all derive from it",
    )
    add_arguments(parser)
    parser.add_argument(
        "--json", action="store_true", help="emit the full result as JSON"
    )
    if build is not None:
        parser.add_argument(
            "--dump-plan", action="store_true",
            help="print the effective plan as JSON and exit",
        )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run twice and require identical digests",
    )
    args = parser.parse_args(argv)
    try:
        if build is not None and args.dump_plan:
            print(build(args).to_json())
            return 0
        result = run(args)
        again = run(args) if args.check_determinism else result
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    if again.digest != result.digest:
        print(
            f"NOT deterministic: {result.digest} != {again.digest}",
            file=sys.stderr,
        )
        return 2
    if args.check_determinism:
        print(
            f"deterministic: two runs produced digest {result.digest}",
            file=sys.stderr,
        )
    report = result.to_dict()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render(result))
        print(f"  digest {result.digest}")
        for name, value in sorted(report.get("counters", {}).items()):
            print(f"  {name:<24} {value}")
        for err in result.errors:
            print(f"  ERROR: {err}")
    return 0 if result.ok else 1
