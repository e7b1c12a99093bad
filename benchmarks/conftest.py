"""Shared helpers for the evaluation benchmarks (§VII of the paper).

Every benchmark regenerates one table or figure of the paper's evaluation
(or one series of an extension) and asserts its qualitative claims: who
wins, by roughly what factor.  Absolute numbers come from our simulated
substrate, not the authors' testbed, so the assertions check the shape.

The numbers themselves are deterministic, so they are also held exactly.
A test records them with the ``fact`` fixture; when the test passes, its
facts must equal its entry in the committed ``BENCH_paper.json``, keyed
``"<module>::<test>"``.  A changed, new or missing fact fails the test
and lists old -> new.  If any did, the regenerated file is written under
pytest's temp directory and its path printed; nothing is written into the
checkout.

A fact is an int the simulator or compiler produces (ns, bytes, counts,
stages, lines, bits), or one division of two such ints (rounded with
``round``), so it is the same on every Python version CI runs.  Anything
that passes through ``sum()`` over floats, ``statistics`` or libm (a
geomean, a mean of ratios) is printed, never pinned: pin its inputs.
Table V and VI rows are not pinned here: ``tests/data/fit_golden.json``
holds them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import compile_cache_clear

#: Application list in the paper's Table III order.
PAPER_APPS = ["agg", "cache", "paxos_acceptor", "paxos_learner", "paxos_leader", "calc"]

#: The committed facts of every benchmark, keyed ``"<module>::<test>"``.
PAPER_FACTS = Path(__file__).resolve().parent.parent / "BENCH_paper.json"
COMMITTED = json.loads(PAPER_FACTS.read_text()) if PAPER_FACTS.exists() else {}

#: on the config: the facts of each test that passed this session, by key
_RAN = pytest.StashKey[dict]()
#: on the config: the regenerated file, once written
_WRITTEN = pytest.StashKey[Path]()
#: on a test item: the facts it recorded
_FACTS = pytest.StashKey[dict]()
_NONE = "(none)"


def pytest_configure(config) -> None:
    config.stash[_RAN] = {}


@pytest.fixture(scope="session")
def regenerated_facts(request, tmp_path_factory):
    """At session end, if a fact moved, writes the committed facts with
    this session's in their place under pytest's temp directory."""
    yield
    ran = request.config.stash[_RAN]
    if any(COMMITTED.get(key, {}) != facts for key, facts in ran.items()):
        merged = {**COMMITTED, **ran}
        path = tmp_path_factory.mktemp("paper") / PAPER_FACTS.name
        path.write_text(json.dumps({k: v for k, v in merged.items() if v},
                                   indent=2, sort_keys=True) + "\n")
        request.config.stash[_WRITTEN] = path


@pytest.fixture
def fact(request, regenerated_facts):
    """``fact(name, value)`` records one exact number of this test."""
    facts = request.node.stash[_FACTS] = {}
    return facts.__setitem__


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """A test that passed fails if its facts differ from its entry."""
    result = yield
    if _FACTS in item.stash:
        key = f"{item.module.__name__.rsplit('.', 1)[-1]}::{item.name}"
        facts, old = item.stash[_FACTS], COMMITTED.get(key, {})
        item.config.stash[_RAN][key] = facts
        moved = [f"{name}: {old.get(name, _NONE)} -> {facts.get(name, _NONE)}"
                 for name in sorted(old.keys() | facts.keys())
                 if old.get(name, _NONE) != facts.get(name, _NONE)]
        if moved:
            pytest.fail(f"{len(moved)} fact(s) differ from {PAPER_FACTS.name}[{key!r}]:\n  "
                        + "\n  ".join(moved), pytrace=False)
    return result


def pytest_terminal_summary(terminalreporter, config) -> None:
    if _WRITTEN in config.stash:
        terminalreporter.write_line(
            f"{PAPER_FACTS.name}: facts moved; regenerated file: {config.stash[_WRITTEN]}")


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Table IV times cold compiles: no benchmark may be answered from a
    program an earlier one compiled."""
    compile_cache_clear()


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
