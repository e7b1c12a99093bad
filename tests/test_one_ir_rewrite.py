"""Keep the middle end from rescanning a function per edit.

``src`` asks for predecessors in one way, :func:`repro.ir.dominators.
predecessor_map` (all blocks in one sweep), and rewrites uses in one way,
:func:`repro.ir.module.replace_uses` (a whole mapping in one sweep; its
per-instruction step :func:`~repro.ir.module.rewrite_operands` is what
reverse-post-order walks call on arrival).  The per-query helpers these
replaced — ``BasicBlock.predecessors``, ``Function.replace_all_uses`` and
``simplify._rauw`` — each walked the whole function once per call.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

GONE = {"predecessors", "replace_all_uses", "_rauw"}


def _functions(tree: ast.AST):
    """(qualified name, node) of every def, methods as ``Class.name``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _owner_of(tree: ast.AST):
    """Map each node to the innermost def that contains it."""
    owner: dict[ast.AST, str] = {}
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            owner[node] = name  # inner defs come later and win
    return owner


def _sources(root: Path = SRC):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _calls(tree: ast.AST, attr: str):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
        ):
            yield node


def _iterates_blocks(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "blocks"


def _inverts_successors(loop: ast.AST, target: ast.AST, body: list[ast.AST]) -> bool:
    """A loop over ``x.blocks`` that asks, per block, whether a block is
    among its successors, or files the block under each successor."""
    if not isinstance(target, ast.Name):
        return False
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                and any(
                    isinstance(c, ast.Call)
                    and isinstance(c.func, ast.Attribute)
                    and c.func.attr == "successors"
                    for c in node.comparators
                )
            ):
                return True
            if isinstance(node, ast.For) and any(
                True for _ in _calls(node.iter, "successors")
            ):
                for call in _calls(node, "append"):
                    if any(isinstance(a, ast.Name) and a.id == target.id for a in call.args):
                        return True
    return False


def test_predecessor_map_is_the_only_predecessor_computation():
    found = []
    for rel, tree in _sources():
        owner = _owner_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and _iterates_blocks(node.iter):
                hit = _inverts_successors(node, node.target, node.body)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                hit = any(
                    _iterates_blocks(gen.iter) and _inverts_successors(node, gen.target, gen.ifs)
                    for gen in node.generators
                )
            else:
                continue
            if hit:
                found.append(f"{rel}::{owner.get(node, '<module>')}")
    assert found == ["ir/dominators.py::predecessor_map"]


def test_replace_uses_is_the_only_use_rewrite():
    found = set()
    for rel, tree in _sources():
        owner = _owner_of(tree)
        for call in _calls(tree, "replace_operand"):
            found.add(f"{rel}::{owner.get(call, '<module>')}")
    assert found == {"ir/module.py::rewrite_operands"}
    defined = {
        f"{rel}::{name}"
        for rel, tree in _sources()
        for name, _ in _functions(tree)
        if name.rsplit(".", 1)[-1] in ("replace_uses", "rewrite_operands")
    }
    assert defined == {"ir/module.py::replace_uses", "ir/module.py::rewrite_operands"}


def test_the_per_query_helpers_are_gone():
    for folder in ("src", "tests", "tools", "bench", "examples", "benchmarks"):
        for rel, tree in _sources(REPO / folder):
            names = {name.rsplit(".", 1)[-1] for name, _ in _functions(tree)}
            assert not names & GONE, f"{folder}/{rel} defines {sorted(names & GONE)}"
            for attr in GONE:
                assert not list(_calls(tree, attr)), f"{folder}/{rel} calls .{attr}()"
