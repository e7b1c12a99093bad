"""Nothing is ever cancelled: one event kind, and guarded timeouts.

:class:`~repro.netsim.Simulator` schedules with ``at`` / ``after`` and
returns nothing to cancel.  A timeout carries what it guards and, when it
fires, checks that this is still current (the reliable channel's pending
entry, a slot's timeout token, an RPC call still outstanding, a ring
packet still unACKed); a superseded one runs as a no-op.  The AST checks
keep handles from coming back; the slot-stream test pins the one guard a
plain "is this round still in flight" test would miss.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.apps.agg import build_agg_cluster

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _attr_calls(tree: ast.AST, names: set[str]):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            yield node


def _is_sim(node: ast.AST) -> bool:
    """``sim`` or ``<anything>.sim``: the receiver of a scheduling call."""
    return (isinstance(node, ast.Name) and node.id == "sim") or (
        isinstance(node, ast.Attribute) and node.attr == "sim"
    )


def test_simulator_defines_no_handle_cancel_or_defer():
    tree = ast.parse((SRC / "netsim" / "sim.py").read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert not defined & {"Event", "cancel", "defer"}, defined
    simulator = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Simulator"
    )
    public = {
        n.name
        for n in simulator.body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    }
    assert public == {"at", "after", "run", "pending"}


def test_nothing_in_src_cancels():
    calls = [
        f"{rel}:{call.lineno}"
        for rel, tree in _sources()
        for call in _attr_calls(tree, {"cancel"})
    ]
    assert not calls, calls


def test_no_scheduling_result_is_kept():
    kept = []
    for rel, tree in _sources():
        statements = {
            id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)
        }
        for call in _attr_calls(tree, {"at", "after"}):
            if _is_sim(call.func.value) and id(call) not in statements:
                kept.append(f"{rel}:{call.lineno} {ast.unparse(call)[:60]}")
    assert not kept, "a timeout guards its own state; keep no handle: " + ", ".join(kept)


def test_resync_while_timeout_live_retransmits_once():
    """A resync re-sends a round whose timeout is still armed.  The old
    timeout finds the round still in flight on its slot, so only the slot's
    token tells it that the resync's timeout superseded it."""
    cluster = build_agg_cluster(num_workers=2, tensor_elements=32, window=1)
    worker = cluster.workers[0]  # alone: the switch never completes the round
    sim = cluster.network.sim
    worker.start()  # round 0 at t=0, timeout at 400 us
    sim.at(100_000, worker.resync_slot, 0, 0)  # re-sent, timeout at 500 us
    sim.run(until_ns=550_000)
    assert worker.in_flight() == {0: 0}
    assert worker.stats.retransmissions == 1  # at 500 us, not also at 400 us
