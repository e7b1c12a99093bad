"""Hot-path overhaul equivalence (ISSUE 7 acceptance).

The simulator optimization (tuple-heap events, pooled multicast
replicas, incremental routing, deadline-based retransmission timers)
must be *observably invisible*: the golden values below were captured
on the pre-overhaul simulator with the same seeds, and every run here
must reproduce them bit-identically — application results, every
telemetry counter (the digest covers the full metric snapshot) and
drop/lost totals.

The collective, rpc and service entries pin the other three scenario
entry points at the same seed (captured before the scenario-harness
refactor of ISSUE 21, which restructured exactly those paths).

Test ids keep the ``False`` they carried while a run could also be
traced (the per-packet tracer is gone), so each pinned run keeps its id.

If a deliberate behavioral change ever invalidates these goldens,
recapture them in the same commit and say why in its message.  The
digests were recaptured once, when the ``link.in_flight.*`` and
``node.queue.*`` gauges left the metric snapshot; ``GAUGE_FREE`` ties
the new values to the runs before that change.
"""

from __future__ import annotations

import functools

import pytest

from repro.chaos.scenarios import run_agg_chaos, run_cache_chaos
from repro.collective.scenarios import run_collective_chaos
from repro.rpc.scenarios import run_rpc_chaos
from repro.scenario import digest
from repro.service.workload import default_service_plan, run_service_plan

SEED = 7

GOLDEN = {
    "agg": {
        "digest": "c026673686e2ad6b43291a5779bfc7975851733225dbb66c3bbdd842183d201e",
        "dropped": 147,
        "lost": 34,
    },
    "cache": {
        "digest": "448028a2785a04c96eeb4d5ec90487199d528160118d81521950c86658326484",
        "dropped": 0,
        "lost": 12,
    },
    "collective": {
        "digest": "22ce59578ceb51c37ce23e68de9b01ba50c3889f768bc0696a77299fd9e8b160",
        "dropped": 1936,
        "lost": 266,
    },
    "rpc": {
        "digest": "316a83b40d2092bc293525a4be82eb317a130119fdc83282053f270b743f62a7",
        "dropped": 411,
        "lost": 124,
    },
    "service": {
        "digest": "7460fa58647ef01cab69ef2ef51f7aee094775b681b2be9e4d14be0684336282",
        "dropped": 17,
        "lost": 0,
    },
}

RUNNERS = {
    "agg": run_agg_chaos,
    "cache": run_cache_chaos,
    "collective": run_collective_chaos,
    "rpc": run_rpc_chaos,
    # the service replay takes a plan, not a seed
    "service": lambda seed: run_service_plan(default_service_plan(seed)),
}


#: untraced digests at two more seeds: same-nanosecond ties break by
#: ``(time_ns, seq)``, and a scheduler change that reorders them moves a
#: digest at some seed even where it happens to keep seed 7's.
SEED_DIGESTS = {
    3: {
        "agg": "988d44f8487ee036895fe8124f3dde926b7b949dcf681b2ac0d08937c3f7eb7f",
        "cache": "68c0aa5d3dd3044338eb87170983a129ce2f1677d3a6cb1a8dd5bd6cb9d566a5",
        "collective": "456e5735f4c92ebd47dd0402770d7bf06c81a89f5575fdd30bb56e519159cdef",
        "rpc": "9e9bf58205b0b1db30b19ca5f119c16b70e0e35a8c53e06c7fc4dc646363ba8f",
        "service": "b5edf77f28e74ee92ca3289eb0ff6ce9342ca716090013198f5c00eca8b3dc0f",
    },
    11: {
        "agg": "afbc74440672180bf946d245219d7cd15bcecbf3ed3ee49d595f9f355ed51778",
        "cache": "b8c40fe9fabb2928c9e0010b73d6b6e3ddb52936d25a5506568769d658b911f7",
        "collective": "2afa0ed9ce9aacdd6fa6d26a66af575ba556961117ae7f9678d503adb46badab",
        "rpc": "aa1ce18f4cc51a7a4c16d91e387b5d460208ee0152122d750ce36b1322b577cb",
        "service": "9a5c8e65ec77c15b74936a85f8baefb549fb45d25814c763221f1de916c05838",
    },
}


#: digests of each scenario's payload with the ``link.in_flight.*`` and
#: ``node.queue.*`` gauges left out of its metric snapshot, captured
#: while the simulator still kept them.  The two gauges needed an arrival
#: instant the one-event hop does not have; these digests show that
#: removing them and fusing the hop moved nothing else.  With the gauges
#: gone, each equals the run's full digest.
GAUGE_FREE = {
    (3, 'agg'): '988d44f8487ee036895fe8124f3dde926b7b949dcf681b2ac0d08937c3f7eb7f',
    (3, 'cache'): '68c0aa5d3dd3044338eb87170983a129ce2f1677d3a6cb1a8dd5bd6cb9d566a5',
    (3, 'collective'): '456e5735f4c92ebd47dd0402770d7bf06c81a89f5575fdd30bb56e519159cdef',
    (3, 'rpc'): '9e9bf58205b0b1db30b19ca5f119c16b70e0e35a8c53e06c7fc4dc646363ba8f',
    (3, 'service'): 'b5edf77f28e74ee92ca3289eb0ff6ce9342ca716090013198f5c00eca8b3dc0f',
    (7, 'agg'): 'c026673686e2ad6b43291a5779bfc7975851733225dbb66c3bbdd842183d201e',
    (7, 'cache'): '448028a2785a04c96eeb4d5ec90487199d528160118d81521950c86658326484',
    (7, 'collective'): '22ce59578ceb51c37ce23e68de9b01ba50c3889f768bc0696a77299fd9e8b160',
    (7, 'rpc'): '316a83b40d2092bc293525a4be82eb317a130119fdc83282053f270b743f62a7',
    (7, 'service'): '7460fa58647ef01cab69ef2ef51f7aee094775b681b2be9e4d14be0684336282',
    (11, 'agg'): 'afbc74440672180bf946d245219d7cd15bcecbf3ed3ee49d595f9f355ed51778',
    (11, 'cache'): 'b8c40fe9fabb2928c9e0010b73d6b6e3ddb52936d25a5506568769d658b911f7',
    (11, 'collective'): '2afa0ed9ce9aacdd6fa6d26a66af575ba556961117ae7f9678d503adb46badab',
    (11, 'rpc'): 'aa1ce18f4cc51a7a4c16d91e387b5d460208ee0152122d750ce36b1322b577cb',
    (11, 'service'): '9a5c8e65ec77c15b74936a85f8baefb549fb45d25814c763221f1de916c05838',
}

#: modules whose ``digest`` call hashes a scenario's whole payload
DIGEST_SITES = (
    "repro.chaos.scenarios",
    "repro.collective.scenarios",
    "repro.rpc.scenarios",
    "repro.service.workload",
)

ARRIVAL_GAUGES = ("link.in_flight.", "node.queue.")


@functools.cache
def _run(app: str, seed: int):
    """One scenario run and the digest of its payload without the
    arrival gauges (shared by every test that needs the same run)."""
    payloads = []

    def spy(payload):
        if isinstance(payload, dict) and "metrics" in payload:
            payloads.append(payload)
        return digest(payload)

    with pytest.MonkeyPatch.context() as mp:
        for site in DIGEST_SITES:
            mp.setattr(f"{site}.digest", spy)
        result = RUNNERS[app](seed=seed)
    (payload,) = payloads
    metrics = {
        k: v for k, v in payload["metrics"].items() if not k.startswith(ARRIVAL_GAUGES)
    }
    return result, digest({**payload, "metrics": metrics})


def _dropped(result) -> int:
    return sum(
        v for k, v in result.metrics.items() if k.startswith("net.drop.")
    )


def _lost(result) -> int:
    return int(result.metrics.get("net.lost", 0))


@pytest.mark.parametrize("app", sorted(GOLDEN), ids=lambda app: f"False-{app}")
def test_chaos_run_matches_pre_overhaul_golden(app):
    result, _ = _run(app, SEED)
    want = GOLDEN[app]

    assert result.ok, result.errors
    assert result.digest == want["digest"]
    assert _dropped(result) == want["dropped"]
    assert _lost(result) == want["lost"]


@pytest.mark.parametrize(
    "seed,app", [(seed, app) for seed in sorted(SEED_DIGESTS) for app in sorted(GOLDEN)]
)
def test_digest_is_pinned_at_more_seeds(seed, app):
    result, _ = _run(app, seed)
    assert result.ok, result.errors
    assert result.digest == SEED_DIGESTS[seed][app]


@pytest.mark.parametrize(
    "seed,app", sorted(GAUGE_FREE), ids=[f"{s}-{a}-False" for s, a in sorted(GAUGE_FREE)]
)
def test_everything_but_the_arrival_gauges_is_pinned(seed, app):
    _, gauge_free = _run(app, seed)
    assert gauge_free == GAUGE_FREE[seed, app]

