"""Incremental, residual-aware placement with backtracking.

The single-tenant :class:`~repro.deploy.planner.DeploymentPlanner` plans
against a *pristine* fabric.  The service plans against whatever headroom
already-running tenants left behind:

* candidates are scored by total shortest-path distance to the device's
  attached hosts and already-placed peers (the base planner's metric),
  tie-broken toward the switch with the most free stages (spread load,
  keep large contiguous holes for future tenants);
* placement is a depth-first search with backtracking: a greedy dead end
  (an early device taking the only switch a later device fits) is
  undone instead of rejecting the tenant;
* crashed or excluded switches never receive devices, and ``pinned``
  assignments (the tenant's unaffected devices during a partial
  migration) anchor distance scoring without being moved.

Across tenants, co-location on one switch is allowed whenever the
residual fits — that is the point of the service.  *Within* one tenant,
the base planner's one-device-per-switch rule is kept: distinct abstract
devices exist to parallelize the pipeline.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.deploy.planner import (
    AbstractTopology,
    DeploymentError,
    DeploymentPlanner,
    PlacementBreakdown,
    SwitchResidual,
    fit_reason,
)
from repro.netsim import DEVICE, HOST, NodeKey
from repro.service.admission import DeviceDemand


class IncrementalPlanner(DeploymentPlanner):
    """Places one tenant's abstract topology into residual headroom."""

    #: backtracking budget: candidate switches tried across the whole
    #: search before giving up (keeps worst-case planning time bounded).
    MAX_NODES = 20_000

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
        ``residual`` headroom; raises :class:`DeploymentError` with a
        per-switch breakdown when no feasible assignment exists."""
        pinned = dict(pinned or {})
        graph = self.fabric.graph()
        for sid in exclude:
            if DEVICE(sid) in graph:
                graph.remove_node(DEVICE(sid))
        for host_id in topology.host_attachments:
            if HOST(host_id) not in graph:
                raise DeploymentError(f"host {host_id} is not in the fabric")
        paths = graph.all_pairs_lengths()

        free = {
            sid: list(headroom)
            for sid, headroom in residual.items()
            if sid not in exclude
        }
        order = sorted(demands, key=lambda d: (-demands[d].stages, d))
        assignment: Dict[int, int] = dict(pinned)
        state = {"nodes": 0, "breakdown": None}

        def neighbors_of(dev_id: int) -> List[NodeKey]:
            out: List[NodeKey] = [
                HOST(h)
                for h, d in topology.host_attachments.items()
                if d == dev_id
            ]
            for a, b in topology.device_edges:
                if a == dev_id and b in assignment:
                    out.append(DEVICE(assignment[b]))
                if b == dev_id and a in assignment:
                    out.append(DEVICE(assignment[a]))
            return out

        def candidates(
            dev_id: int,
        ) -> Tuple[List[int], List[SwitchResidual]]:
            need = demands[dev_id]
            neighbors = neighbors_of(dev_id)
            scored: List[Tuple[Tuple[float, float, int], int]] = []
            rejects: List[SwitchResidual] = []
            taken = set(assignment.values())
            for sid, headroom in free.items():
                residual_row = SwitchResidual(
                    sid, headroom[0], headroom[1], headroom[2], ""
                )
                if sid in taken:
                    residual_row.reason = "holds another device of this tenant"
                    rejects.append(residual_row)
                    continue
                reason = fit_reason(
                    need.stages, need.sram_pct, need.salu_pct, headroom
                )
                if reason is not None:
                    residual_row.reason = reason
                    rejects.append(residual_row)
                    continue
                key = DEVICE(sid)
                dist = 0.0
                unreachable: Optional[NodeKey] = None
                for n in neighbors:
                    hop = paths.get(key, {}).get(n)
                    if hop is None:
                        unreachable = n
                        break
                    dist += hop
                if unreachable is not None:
                    kind, ident = unreachable
                    residual_row.reason = (
                        f"unreachable from "
                        f"{'host' if kind == 'h' else 'device'} {ident}"
                    )
                    rejects.append(residual_row)
                    continue
                scored.append(((dist, -headroom[0], sid), sid))
            scored.sort()
            return [sid for _, sid in scored], rejects

        def place(i: int) -> bool:
            if i == len(order):
                return True
            dev_id = order[i]
            cands, rejects = candidates(dev_id)
            if not cands and state["breakdown"] is None:
                need = demands[dev_id]
                state["breakdown"] = PlacementBreakdown(
                    device=dev_id,
                    need_stages=need.stages,
                    need_sram_pct=need.sram_pct,
                    need_salu_pct=need.salu_pct,
                    switches=rejects,
                )
            for sid in cands:
                state["nodes"] += 1
                if state["nodes"] > self.MAX_NODES:
                    return False
                need = demands[dev_id]
                assignment[dev_id] = sid
                headroom = free[sid]
                headroom[0] -= need.stages
                headroom[1] -= need.sram_pct
                headroom[2] -= need.salu_pct
                if place(i + 1):
                    return True
                headroom[0] += need.stages
                headroom[1] += need.sram_pct
                headroom[2] += need.salu_pct
                del assignment[dev_id]
            return False

        if place(0):
            return {dev: assignment[dev] for dev in demands}
        breakdown: Optional[PlacementBreakdown] = state["breakdown"]
        detail = "\n" + breakdown.render() if breakdown is not None else ""
        raise DeploymentError(
            "no feasible placement into residual fabric headroom "
            f"(searched {state['nodes']} candidates)" + detail,
            breakdown=breakdown,
        )
