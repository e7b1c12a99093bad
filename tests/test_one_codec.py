"""Keep the wire out of the simulator and the layout in one place.

A packet that never leaves the process is decoded from ``packet.data``
(:func:`~repro.runtime.message.unpack_packet`) and built from values
(:meth:`~repro.runtime.message.NetCLPacket.from_message`): ``src`` may
spell neither ``unpack(<expr>.to_wire(), …)`` nor ``from_wire(pack(…))``,
and ``to_wire`` / ``from_wire`` appear only where a wire exists — the UDP
backend, the P4 adapter, and ``runtime/message.py`` which defines them.
``rpc/idl.py`` evaluates a field annotation only inside the
once-per-class resolver.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: where wire bytes exist
WIRE = {"runtime/udp.py", "p4/switch.py", "runtime/message.py"}


def _name(call: ast.Call) -> str:
    return getattr(call.func, "attr", getattr(call.func, "id", ""))


def _calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _is_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and _name(node) == name


def test_no_wire_round_trip_inside_the_process():
    offenders = []
    for rel, tree in _sources():
        for call in _calls(tree):
            first = call.args[0] if call.args else None
            if (_name(call) == "unpack" and _is_call(first, "to_wire")) or (
                _name(call) == "from_wire" and _is_call(first, "pack")
            ):
                offenders.append(f"{rel}:{call.lineno} {ast.unparse(call)[:60]}")
    assert not offenders, "use unpack_packet / NetCLPacket.from_message: " + ", ".join(offenders)


def test_wire_conversion_only_where_a_wire_exists():
    users = {
        rel
        for rel, tree in _sources()
        for call in _calls(tree)
        if _name(call) in ("to_wire", "from_wire")
    }
    assert users <= WIRE, sorted(users - WIRE)
    assert {"runtime/udp.py", "p4/switch.py"} <= users


def test_idl_evaluates_annotations_only_in_the_per_class_resolver():
    tree = ast.parse((SRC / "rpc" / "idl.py").read_text())
    evaluators = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any(_name(c) == "eval" for c in _calls(fn))
    ]
    assert evaluators == ["_wire_type"]
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and any(_name(c) == "_wire_type" for c in _calls(fn))
    ]
    assert callers == ["_wire_layout"]
    resolver = next(
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_wire_layout"
    )
    assert [ast.unparse(d.func) for d in resolver.decorator_list] == ["lru_cache"]
