"""Shared helpers for the evaluation benchmarks (§VII of the paper).

Every benchmark regenerates one table or figure of the paper's evaluation
and asserts its qualitative claims (who wins, by roughly what factor).
Absolute numbers come from our simulated substrate, not the authors'
testbed, so only the *shape* is checked.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import compile_cache_clear

#: Application list in the paper's Table III order.
PAPER_APPS = ["agg", "cache", "paxos_acceptor", "paxos_learner", "paxos_leader", "calc"]

#: NetCL app -> (netcl source name, handwritten p4 names, device ids)
APP_MAP = {
    "agg": ("agg", ["agg"], [1]),
    "cache": ("cache", ["cache"], [1]),
    "paxos": ("paxos", ["paxos_acceptor", "paxos_learner", "paxos_leader"], [2, 5, 1]),
    "calc": ("calc", ["calc"], [1]),
}


#: metric group -> {metric name: value}, flushed to BENCH_<group>.json at
#: session end so the perf trajectory is machine-readable across PRs.
_bench_metrics: dict[str, dict[str, float]] = {}


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Table IV and the ablations measure cold compiles: no benchmark may
    be answered from a program an earlier one compiled."""
    compile_cache_clear()


@pytest.fixture
def bench_metrics(request):
    """Recorder for machine-readable benchmark results.

    ``bench_metrics("metric_name", value)`` files the value under the
    calling module's group (``test_fig14_agg_throughput`` ->
    ``BENCH_fig14_agg_throughput.json``).
    """
    group = request.module.__name__.rsplit(".", 1)[-1]
    if group.startswith("test_"):
        group = group[len("test_"):]
    store = _bench_metrics.setdefault(group, {})

    def record(name: str, value) -> None:
        store[name] = value

    return record


def pytest_sessionfinish(session, exitstatus) -> None:
    root = Path(str(session.config.rootpath))
    for group, metrics in _bench_metrics.items():
        if metrics:
            path = root / f"BENCH_{group}.json"
            path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    print(f"\n== {title} " + "=" * max(0, 60 - len(title)))
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
