"""Hot-path overhaul equivalence (ISSUE 7 acceptance).

The simulator optimization (tuple-heap events, tracer guards, pooled
multicast replicas, incremental routing, deadline-based retransmission
timers) must be *observably invisible*: the golden values below were
captured on the pre-overhaul simulator with the same seeds, and every
run here must reproduce them bit-identically — application results,
every telemetry counter (the digest covers the full metric snapshot),
drop/lost totals, and (for traced runs) the exact number of traces and
recorded hops.  Tracing on must not change the digest either.

The collective, rpc and service entries pin the other three scenario
entry points at the same seed (captured before the scenario-harness
refactor of ISSUE 21, which restructured exactly those paths); they
record no per-run trace counts, and the service replay has no tracing
switch.

If a deliberate behavioral change ever invalidates these goldens,
recapture them in the same commit and say why in its message.
"""

from __future__ import annotations

import pytest

from repro.chaos.scenarios import run_agg_chaos, run_cache_chaos
from repro.collective.scenarios import run_collective_chaos
from repro.rpc.scenarios import run_rpc_chaos
from repro.service.workload import default_service_plan, run_service_plan

SEED = 7

GOLDEN = {
    "agg": {
        "digest": "9bc9f574bc29b4bcc0bbb97693cb1ada2f787102be024dbc10cd582a54d71b91",
        "dropped": 147,
        "lost": 34,
        "traces": 355,
        "trace_events": 1126,
    },
    "cache": {
        "digest": "7db7c3d38af5139a42a39e759d11e7d9373350c6b7fc3963d860eb9a1d35a31e",
        "dropped": 0,
        "lost": 12,
        "traces": 68,
        "trace_events": 347,
    },
    "collective": {
        "digest": "dd1d1854149ea554d297d413aaec1b161cc276d8cbb5b77d3d3c942eb66b69bc",
        "dropped": 1936,
        "lost": 266,
    },
    "rpc": {
        "digest": "5f4a2233c7f1c792a5231dfc624e7897a481666c643ab1b9bd6766dd0f801aad",
        "dropped": 411,
        "lost": 124,
    },
    "service": {
        "digest": "d858ca97559bd7f75be6cfacee1f60613aec34c0d41e4774d3d8f4bdb28fd5fa",
        "dropped": 17,
        "lost": 0,
    },
}

RUNNERS = {
    "agg": run_agg_chaos,
    "cache": run_cache_chaos,
    "collective": run_collective_chaos,
    "rpc": run_rpc_chaos,
    # the service replay takes a plan, not a seed, and cannot be traced
    "service": lambda seed, trace: run_service_plan(default_service_plan(seed)),
}


#: untraced digests at two more seeds: same-nanosecond ties break by
#: ``(time_ns, seq)``, and a scheduler change that reorders them moves a
#: digest at some seed even where it happens to keep seed 7's.
SEED_DIGESTS = {
    3: {
        "agg": "d1ab744f0b0d98dff5bb9e4c59506bef2c98d9d7034d391d251fee9bd1ad3e87",
        "cache": "9f1bb3735e223ccca1c45802b70b8c4cf410c8b068872c6899bf0e9c9a5df44e",
        "collective": "72659c34e3c6e71c379c69ebd339bb4c6f24360506a55369d42f649c9b30b282",
        "rpc": "92cf8310548e9166ba50b8766108a8e1972dab2d9eecb404090f556ff1380b2a",
        "service": "9e3b62fae82d251120497eed8814a5d9a2c9639164cb07bfbe9344d6653205ca",
    },
    11: {
        "agg": "185dccfff9b653972a09d0efd00f35809fbfd047c866844161bf5c0455813709",
        "cache": "2f7af9d440dd1dfe663c20a62e77c974d3c9c62db3e7b5ac8404f7f6bad9a2ae",
        "collective": "42fc8fd867d34c727948236a617f73e48c3b2ea70f5fbbba00095af5d6055e7b",
        "rpc": "2bf985c8ca9b5c372bfb6e99b615ab6f1de5dde434c6a4817ac6c81ea3e20429",
        "service": "0d226c34b7073c1d52451f62fc4c107a884be39386db1d95a9fddc8c6f25049c",
    },
}


def _dropped(result) -> int:
    return sum(
        v for k, v in result.metrics.items() if k.startswith("net.drop.")
    )


def _lost(result) -> int:
    return int(result.metrics.get("net.lost", 0))


@pytest.mark.parametrize(
    "trace,app",
    [
        (trace, app)
        for trace in (False, True)
        for app in sorted(GOLDEN)
        if not (trace and app == "service")
    ],
)
def test_chaos_run_matches_pre_overhaul_golden(app, trace):
    result = RUNNERS[app](seed=SEED, trace=trace)
    want = GOLDEN[app]

    assert result.ok, result.errors
    assert result.digest == want["digest"]
    assert _dropped(result) == want["dropped"]
    assert _lost(result) == want["lost"]
    if "traces" in want:
        assert result.traces == (want["traces"] if trace else 0)
        assert result.trace_events == (want["trace_events"] if trace else 0)


@pytest.mark.parametrize(
    "seed,app", [(seed, app) for seed in sorted(SEED_DIGESTS) for app in sorted(GOLDEN)]
)
def test_digest_is_pinned_at_more_seeds(seed, app):
    result = RUNNERS[app](seed=seed, trace=False)
    assert result.ok, result.errors
    assert result.digest == SEED_DIGESTS[seed][app]


@pytest.mark.parametrize("app", ["agg", "cache"])
def test_tracing_does_not_perturb_digest(app):
    """A traced run and an untraced run are the same run."""
    run = run_agg_chaos if app == "agg" else run_cache_chaos
    plain = run(seed=SEED, trace=False)
    traced = run(seed=SEED, trace=True)
    assert plain.digest == traced.digest
    assert plain.sim_ns == traced.sim_ns
    assert traced.trace_events > 0
