"""Docs that cannot drift: every ``repro.*`` dotted path and every
back-ticked repository path named in README.md, DESIGN.md and
``docs/*.md`` must resolve against the tree as it is."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_TREE_PATH = re.compile(
    r"`((?:src|tests|benchmarks|bench|tools|examples|docs)/[^`\s]*)`"
)


def _resolves(dotted: str) -> bool:
    """``repro.a.b.C.m``: the longest importable module prefix, then
    attributes for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _path_exists(path: str) -> bool:
    """Brace lists (``a/{x,y}.py``) and globs name several files: each
    alternative must match at least one."""
    m = re.search(r"\{([^}]*)\}", path)
    if m:
        return all(
            _path_exists(path[: m.start()] + alt + path[m.end():])
            for alt in m.group(1).split(",")
        )
    if any(c in path for c in "*?["):
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_named_path_resolves(doc):
    text = doc.read_text()
    dotted = sorted({m.group(0).rstrip(".") for m in _DOTTED.finditer(text)})
    paths = sorted({m.group(1) for m in _TREE_PATH.finditer(text)})
    broken = [d for d in dotted if not _resolves(d)]
    broken += [p for p in paths if not _path_exists(p)]
    assert not broken, f"{doc.name} names things that do not exist: {broken}"
