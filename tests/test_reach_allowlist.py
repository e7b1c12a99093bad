"""``tools/reach_allow.txt`` stays well formed (AST only; ``tools/reach.py``
itself runs in CI, not here).

Every line names a ``def`` that exists in ``src`` and gives exactly one of
the four reasons, with a tier-1 test that exists or a doc that names the
def in a code span.  And a method family is never left half-overridden:
an IR class that reports operands also rewrites them, every concrete
instruction prints itself, and no instruction computes a constant
side-effect flag in a method.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402

_REASON = re.compile(
    r"oracle"
    r"|error path (?P<test>tests/[\w/]+\.py(?:::\w+)+(?:\[[^\]]*\])?)"
    r"|public API (?P<doc>\S+\.md)"
    r"|held for item 7"
)

ALLOWED = reach.allowed()
_DEFS = list(reach.src_defs())
DEFINED = {f"src/{rel}::{qual}" for rel, node, qual in _DEFS if not isinstance(node, ast.ClassDef)}
CLASSES = [(rel, node) for rel, node, _ in _DEFS if isinstance(node, ast.ClassDef)]


def test_each_line_names_a_def_and_one_reason():
    lines = [
        line.split("#", 1)[0].split(None, 1)[0]
        for line in reach.ALLOW.read_text().splitlines()
        if line.split("#", 1)[0].strip()
    ]
    assert lines and len(lines) == len(set(lines)) == len(ALLOWED)
    problems = []
    for name, reason in sorted(ALLOWED.items()):
        match = _REASON.fullmatch(reason)
        if name not in DEFINED:
            problems.append(f"{name}: no such def in src")
        elif not match:
            problems.append(f"{name}: reason {reason!r} is not one of the four")
        elif match["test"]:
            path, *_, test = match["test"].split("[")[0].split("::")
            source = (REPO / path).read_text() if (REPO / path).is_file() else ""
            if not re.search(rf"^\s*def {test}\(", source, re.M):
                problems.append(f"{name}: no test {match['test']}")
        elif match["doc"] and not _doc_names(REPO / match["doc"], name):
            problems.append(f"{name}: {match['doc']} does not name it in a code span")
    assert not problems, "\n".join(problems)


def _doc_names(doc: Path, name: str) -> bool:
    """Whether a `code span` of ``doc`` names the def: its own name, or its
    class's for a dunder method."""
    qual = name.split("::")[1].split(".")
    word = qual[-2] if qual[-1].startswith("__") else qual[-1]
    spans = re.findall(r"```.*?```|``.+?``|`[^`]+`", doc.read_text(), re.S) if doc.is_file() else []
    return any(re.search(rf"(?<!\w){re.escape(word)}(?!\w)", span) for span in spans)


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}


def test_a_class_that_reports_operands_rewrites_them():
    for path, cls in CLASSES:
        methods = _methods(cls)
        ops = methods.get("operands")
        if ops is None:
            continue
        returns_nothing = [ast.unparse(s) for s in ops.body] == ["return ()"]
        assert returns_nothing or "replace_operand" in methods, (
            f"{path}: {cls.name} reports operands but cannot replace them"
        )


def test_every_concrete_instruction_prints_itself():
    path = "repro/ir/instructions.py"
    classes = {cls.name: cls for rel, cls in CLASSES if rel == path}
    bases = {name: {ast.unparse(b) for b in cls.bases} for name, cls in classes.items()}

    def is_instruction(name: str) -> bool:
        return name == "Instruction" or any(is_instruction(b) for b in bases.get(name, ()))

    subclassed = set().union(*bases.values())
    leaves = [n for n in classes if is_instruction(n) and n not in subclassed]
    assert len(leaves) > 10
    unprinted = [n for n in leaves if "__repr__" not in _methods(classes[n])]
    assert not unprinted, f"{path}: {unprinted} have no __repr__"


def test_no_constant_side_effect_flag_is_a_method():
    for path, cls in CLASSES:
        fn = _methods(cls).get("has_side_effects")
        if fn is None:
            continue
        body = [s for s in fn.body if not isinstance(s, ast.Expr)]
        constant = (
            len(body) == 1
            and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Constant)
        )
        assert not constant, f"{path}: {cls.name}.has_side_effects is a constant"
