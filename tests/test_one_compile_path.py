"""Keep one compile path: ``compile_netcl`` is the only code that runs the
frontend and the pass pipeline, and the fitter is the only resource model.

Outside :mod:`repro.lang` (the definitions) and :mod:`repro.core.driver`,
nothing in ``src`` or ``tools`` calls ``parse_source`` / ``lower_to_ir``
or builds a ``PassManager``: ``ncc lint``, ``ncc verify`` and the CI tools
compile through ``compile_netcl`` (``lower_source`` / ``placed_devices``
when they need the placed devices first).  The IR-shape resource
estimator is gone for good.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: where the frontend and the pass pipeline may be entered
ALLOWED = ("lang/", "core/driver.py")
ENTRY_POINTS = {"parse_source", "lower_to_ir", "PassManager"}
GONE = {"lint_resources", "kernel_chain_depth", "kernel_salu_sites", "run_default_pipeline"}


def _trees(*roots: Path):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text())


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
