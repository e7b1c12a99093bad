"""repro.chaos — scriptable fault injection for the network simulator.

Declarative, replayable failure plans (:class:`~repro.chaos.plan.ChaosPlan`)
drive a per-hop fault engine (:class:`~repro.chaos.inject.ChaosController`):
packet loss, corruption, duplication, reordering, latency jitter, and
scheduled switch crashes / restarts / link flaps.  All randomness derives
from the plan's seed, so every failure run replays bit-identically.

``python -m repro.chaos --app cache --seed 7`` runs the acceptance
scenarios from :mod:`repro.chaos.scenarios`: the paper's applications
completing correctly through combined loss + duplication + reordering +
a mid-run primary-switch crash with failover (see :mod:`repro.reliability`).
"""

from repro.chaos.plan import ChaosEvent, ChaosPlan, LinkFaults, link_name, parse_node
from repro.chaos.inject import ChaosConflictError, ChaosController, apply_faults
from repro.chaos.scenarios import (
    ChaosRunResult,
    default_chaos_plan,
    run_agg_chaos,
    run_cache_chaos,
)

__all__ = [
    "ChaosConflictError",
    "ChaosController",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosRunResult",
    "LinkFaults",
    "apply_faults",
    "default_chaos_plan",
    "link_name",
    "parse_node",
    "run_agg_chaos",
    "run_cache_chaos",
]
