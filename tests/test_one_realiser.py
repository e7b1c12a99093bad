"""Keep the fabric from growing back: a live :class:`~repro.netsim.Network`
gets its switches and hosts in one place.

``add_switch(`` / ``add_host(`` on a ``Network`` may appear in ``src``
only in :mod:`repro.netsim` (the definitions), the realiser's module
(:mod:`repro.deploy.planner`) and :mod:`repro.service.orchestrator` (a
tenant's slice joining the running network); and a transit switch is
spelled ``Module("transit…")`` once, in ``transit_device``.  A new
cluster builder states an :class:`~repro.deploy.AbstractTopology` and
calls ``realise()`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: where a Network may be given nodes
ALLOWED = {"netsim", "deploy/planner.py", "service/orchestrator.py"}
#: the same method names on a PhysicalFabric (a description, not a live
#: network): (file, receiver expression)
ON_A_FABRIC = {("service/workload.py", "fab")}


def _calls(tree: ast.AST, names: set[str]):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            yield node


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_only_the_realiser_adds_nodes_to_a_network():
    offenders = []
    for rel, tree in _sources():
        if rel in ALLOWED or rel.split("/")[0] in ALLOWED:
            continue
        for call in _calls(tree, {"add_switch", "add_host"}):
            receiver = ast.unparse(call.func.value)
            if (rel, receiver) not in ON_A_FABRIC:
                offenders.append(f"{rel}:{call.lineno} {receiver}.{call.func.attr}(…)")
    assert not offenders, (
        "wire fabrics through AbstractTopology.realise(): " + ", ".join(offenders)
    )


def test_exactly_one_function_adds_switches_for_a_standalone_fabric():
    tree = ast.parse((SRC / "deploy" / "planner.py").read_text())
    owners = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            ast.unparse(call.func.value) == "net"
            for call in _calls(fn, {"add_switch"})
        )
    ]
    assert owners == ["realise"]


def test_a_transit_switch_is_spelled_once():
    spellings = []
    for rel, tree in _sources():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", "")) == "Module"
                and node.args
            ):
                continue
            first = node.args[0]
            text = (
                first.value
                if isinstance(first, ast.Constant)
                else getattr(first.values[0], "value", "")
                if isinstance(first, ast.JoinedStr)
                else ""
            )
            if isinstance(text, str) and text.startswith("transit"):
                spellings.append(f"{rel}:{node.lineno}")
    assert len(spellings) == 1 and spellings[0].startswith("deploy/planner.py:"), spellings
