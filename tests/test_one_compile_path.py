"""Keep one compile path: ``compile_netcl`` is the only code that runs the
frontend and the pass pipeline, and the fitter is the only resource model.

Outside :mod:`repro.lang` (the definitions) and :mod:`repro.core.driver`,
nothing in ``src`` or ``tools`` calls ``parse_source`` / ``lower_to_ir``
or builds a ``PassManager``: ``ncc lint``, ``ncc verify`` and the CI tools
compile through ``compile_netcl`` (``lower_source`` / ``placed_devices``
when they need the placed devices first).  The IR-shape resource
estimator is gone for good.

Code generation is one function too: ``repro.backends.generate_p4`` is
the only caller of ``build_program``, a target is a row of data (no
backend classes), a compile has one result (``CompiledProgram``) and a
pass one profiler span, and the switch convention's port and forwarding
codes are assigned in one module.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: where the frontend and the pass pipeline may be entered
ALLOWED = ("lang/", "core/driver.py")
ENTRY_POINTS = {"parse_source", "lower_to_ir", "PassManager"}
GONE = {"lint_resources", "kernel_chain_depth", "kernel_salu_sites", "run_default_pipeline"}
#: the classes one compile result and one code generator replaced (each
#: name in two parts, so a text search for them finds no use either)
GONE_CLASSES = {"Codegen" "Result", "Pass" "Record", "Tna" "Backend", "V1Model" "Backend"}


@functools.lru_cache(maxsize=None)
def _parsed(root: Path) -> list[tuple[Path, ast.Module]]:
    """Every ``.py`` file under ``root``, parsed once for all the checks."""
    return [(path, ast.parse(path.read_text())) for path in sorted(root.rglob("*.py"))]


def _trees(*roots: Path):
    for root in roots:
        yield from _parsed(root)


def _called_name(call: ast.Call) -> str:
    func = call.func
    return getattr(func, "id", getattr(func, "attr", ""))


def test_only_the_driver_runs_the_frontend_and_the_passes():
    offenders = []
    for path, tree in _trees(SRC, ROOT / "tools"):
        rel = path.relative_to(SRC).as_posix() if path.is_relative_to(SRC) else path.name
        if rel.startswith(ALLOWED):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ENTRY_POINTS:
                offenders.append(f"{rel}:{node.lineno} {_called_name(node)}(…)")
    assert not offenders, "compile through compile_netcl: " + ", ".join(offenders)


def test_the_resource_estimator_and_the_pipeline_wrapper_are_gone():
    defined = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees(SRC, ROOT / "tools", ROOT / "tests", ROOT / "bench")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in GONE
    ]
    assert not defined, defined
    assert not (SRC / "analysis" / "estimate.py").exists()


def _defined_names(node: ast.AST) -> set[str]:
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def test_one_compile_result_and_no_backend_classes():
    defined = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, tree in _trees(SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "tools")
        for node in ast.walk(tree)
        for name in _defined_names(node) & GONE_CLASSES
    ]
    assert not defined, defined


def _callers_of(name: str, tree: ast.AST, where: str = "<module>"):
    """The innermost ``def`` around each call of ``name`` in ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call) and _called_name(child) == name:
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _callers_of(name, child, inner)


def test_only_the_code_generator_builds_the_p4_tree():
    callers = {
        f"{path.relative_to(ROOT).as_posix()}:{where}"
        for path, tree in _trees(SRC, ROOT / "tests", ROOT / "benchmarks", ROOT / "tools", ROOT / "bench")
        for where in _callers_of("build_program", tree)
    }
    assert callers == {"src/repro/backends/__init__.py:generate_p4"}, callers


def test_the_switch_convention_is_assigned_once():
    for name in ("NETCL_PORT", "FWD_HOST"):
        modules = sorted(
            path.relative_to(ROOT).as_posix()
            for path, tree in _trees(SRC)
            if any(name in _defined_names(node) for node in ast.walk(tree))
        )
        assert modules == ["src/repro/runtime/constants.py"], (name, modules)
