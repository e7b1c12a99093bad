"""Keep unset options from growing back: an option exists only while
something sets it.

For every public function and class (its ``__init__``) defined in the
packages of :data:`PACKAGES` (the applications, the scenario packages,
the compiler, the P4 and simulated runtimes, reliability, telemetry and
analysis), each keyword-only parameter with a default must be passed by
keyword in some call outside its own ``def``, anywhere in ``src``,
``bench``, ``benchmarks``, ``examples``, ``tools`` or ``tests``.  A call
names the function (``f(...)`` or ``x.f(...)``), or is a subclass's
``super().__init__(...)``.  A value nothing passes is a constant: write
it as one.  The options set only through a dict of runners are listed in
:data:`DISPATCHED` with the call that sets them, and the deployment
settings no shipped run sets in :data:`DEPLOYMENT` with why they stay.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = (
    "apps", "collective", "rpc", "chaos", "service", "deploy",
    "core", "backends", "p4", "runtime", "netsim", "reliability", "telemetry", "analysis",
)
CALLERS = ("src", "bench", "benchmarks", "examples", "tools", "tests")

#: (function, option) -> (file, dict): set only by ``dict[...](..., option=...)``
DISPATCHED = {
    ("run_cache_chaos", "plan"): ("src/repro/chaos/cli.py", "SCENARIOS"),
    ("run_agg_chaos", "plan"): ("src/repro/chaos/cli.py", "SCENARIOS"),
}

#: (function, option) -> why it stays an option that nothing here sets
DEPLOYMENT = {
    (name, option): "the address a real deployment binds its UDP socket to"
    for name in ("UdpSwitch", "UdpHost")
    for option in ("bind", "port")
}


def _options():
    """(name, option, its def node, where) of every defaulted keyword-only
    parameter of a public function or class of the packages."""
    for pkg in PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.FunctionDef):
                    defs = [node]
                elif isinstance(node, ast.ClassDef):
                    defs = [f for f in node.body if getattr(f, "name", "") == "__init__"]
                else:
                    continue
                if node.name.startswith("_"):
                    continue
                for fn in defs:
                    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                        if default is not None:
                            yield node.name, arg.arg, fn, f"{path.relative_to(ROOT)}:{fn.lineno}"


def _keyword_calls():
    """(callee name, keyword) -> the ``def`` nodes enclosing each such call;
    ``super().__init__`` names the class's first base."""
    calls: dict[tuple[str, str], list[tuple[ast.AST, ...]]] = {}
    dispatched: set[tuple[str, str, str]] = set()

    def visit(node, path, defs, base):
        if isinstance(node, ast.ClassDef):
            base = ast.unparse(node.bases[0]).rsplit(".", 1)[-1] if node.bases else None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = (*defs, node)
        elif isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "id", getattr(f, "attr", None))
            if name == "__init__" and ast.unparse(getattr(f, "value", f)) == "super()":
                name = base
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                if name is not None:
                    calls.setdefault((name, kw.arg), []).append(defs)
                if isinstance(f, ast.Subscript) and isinstance(f.value, ast.Name):
                    dispatched.add((path, f.value.id, kw.arg))
        for child in ast.iter_child_nodes(node):
            visit(child, path, defs, base)

    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            visit(ast.parse(path.read_text()), path.relative_to(ROOT).as_posix(), (), None)
    return calls, dispatched


def test_every_keyword_option_is_set_somewhere():
    calls, _ = _keyword_calls()
    unset = []
    for name, option, fn, where in _options():
        if (name, option) in DISPATCHED or (name, option) in DEPLOYMENT:
            continue
        if not any(fn not in defs for defs in calls.get((name, option), ())):
            unset.append(f"{where} {name}({option}=...)")
    assert not unset, "options nothing sets (make them constants): " + ", ".join(unset)


def test_the_dispatched_options_are_set_by_their_dispatch():
    options = {(name, option) for name, option, *_ in _options()}
    _, dispatched = _keyword_calls()
    for (name, option), (path, table) in DISPATCHED.items():
        assert (name, option) in options, f"{name}({option}=...) is gone: drop its entry"
        assert (path, table, option) in dispatched, (
            f"{path} no longer sets {option}= through {table}[...](...)"
        )


def test_the_deployment_settings_still_exist():
    options = {(name, option) for name, option, *_ in _options()}
    assert set(DEPLOYMENT) <= options, set(DEPLOYMENT) - options
