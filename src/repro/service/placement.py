"""Incremental, residual-aware placement.

The single-tenant :meth:`~repro.deploy.planner.DeploymentPlanner.plan`
places against a *pristine* fabric.  The service runs the same
:meth:`~repro.deploy.planner.DeploymentPlanner.search` against whatever
headroom already-running tenants left behind: crashed switches are
``exclude``d, and the tenant's unaffected devices stay ``pinned`` during
a partial migration.  Across tenants, co-location on one switch is
allowed whenever the residual fits — that is the point of the service;
*within* one tenant the search keeps one device per switch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.deploy.planner import AbstractTopology, DeploymentPlanner, DeviceDemand


class IncrementalPlanner(DeploymentPlanner):
    """Places one tenant's abstract topology into residual headroom."""

    def plan_incremental(
        self,
        topology: AbstractTopology,
        demands: Dict[int, DeviceDemand],
        residual: Dict[int, List[float]],
        *,
        exclude: FrozenSet[int] = frozenset(),
        pinned: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Assign each device in ``demands`` to a switch within
        ``residual`` headroom; raises
        :class:`~repro.deploy.planner.DeploymentError` with a per-switch
        breakdown when no feasible assignment exists."""
        return self.search(
            topology, demands, residual, exclude=exclude, pinned=pinned
        )
