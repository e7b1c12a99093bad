"""Admission control: track residual headroom.

Admission answers "will this tenant fit the fabric's *remaining*
resources?" before anything touches the live network.  Demand per
abstract device is :func:`~repro.deploy.planner.demand_of`, read from
the Tofino fitter's :class:`~repro.tofino.report.ResourceReport`, so a
tenant's programs are compiled with ``fit=True``.

:class:`AdmissionController` is pure bookkeeping — capacity comes from
the :class:`~repro.deploy.planner.PhysicalFabric`, reservations from the
placements the orchestrator commits — so the planner can always be
handed an up-to-date residual map.
"""

from __future__ import annotations

from typing import Optional

from repro.deploy.planner import DeviceDemand, PhysicalFabric, PlacementBreakdown


class AdmissionError(Exception):
    """A tenant submission was rejected.

    Carries the tenant id and, for resource-driven rejects, the
    planner's per-switch :class:`PlacementBreakdown` so the caller can
    see exactly which resource on which switch was the binding
    constraint.
    """

    def __init__(
        self,
        tenant_id: str,
        message: str,
        *,
        breakdown: Optional[PlacementBreakdown] = None,
    ) -> None:
        super().__init__(f"tenant {tenant_id!r}: {message}")
        self.tenant_id = tenant_id
        self.breakdown = breakdown


class AdmissionController:
    """Residual-headroom bookkeeping for one shared fabric."""

    def __init__(self, fabric: PhysicalFabric) -> None:
        self.fabric = fabric
        #: switch id -> [stages, sram_pct, salu_pct] total NetCL capacity.
        self.capacity: dict[int, list[float]] = {
            sid: [sw.free_stages, sw.free_sram_pct, sw.free_salu_pct]
            for sid, sw in fabric.switches.items()
        }
        #: switch id -> [stages, sram_pct, salu_pct] currently reserved.
        self.used: dict[int, list[float]] = {
            sid: [0, 0.0, 0.0] for sid in fabric.switches
        }

    def residual(self) -> dict[int, list[float]]:
        """Per-switch headroom left for new tenants."""
        return {
            sid: [cap[i] - self.used[sid][i] for i in range(3)]
            for sid, cap in self.capacity.items()
        }

    def reserve(self, assignment: dict[int, int], demands: dict[int, DeviceDemand]) -> None:
        for dev, sid in assignment.items():
            d = demands[dev]
            u = self.used[sid]
            u[0] += d.stages
            u[1] += d.sram_pct
            u[2] += d.salu_pct

    def release(self, assignment: dict[int, int], demands: dict[int, DeviceDemand]) -> None:
        for dev, sid in assignment.items():
            d = demands[dev]
            u = self.used[sid]
            u[0] -= d.stages
            u[1] -= d.sram_pct
            u[2] -= d.salu_pct

    def set_capacity(self, switch_id: int, **headroom: float) -> None:
        """An operator headroom change (the base program grew or shrank)."""
        index = {"free_stages": 0, "free_sram_pct": 1, "free_salu_pct": 2}
        for key, value in headroom.items():
            if key not in index:
                raise TypeError(
                    f"set_capacity() got unknown headroom key {key!r}; "
                    f"valid keys: {sorted(index)}"
                )
            self.capacity[switch_id][index[key]] = value

    def overcommitted(self) -> list[int]:
        """Switches whose reservations exceed their (possibly shrunk)
        capacity — candidates for migration."""
        return [
            sid
            for sid, cap in self.capacity.items()
            if any(self.used[sid][i] > cap[i] + 1e-9 for i in range(3))
        ]

    def utilization(self) -> dict[int, dict]:
        """Per-switch capacity/used/residual snapshot (report surface)."""
        out: dict[int, dict] = {}
        for sid, cap in self.capacity.items():
            used = self.used[sid]
            out[sid] = {
                "capacity": {
                    "stages": cap[0], "sram_pct": round(cap[1], 2),
                    "salu_pct": round(cap[2], 2),
                },
                "used": {
                    "stages": used[0], "sram_pct": round(used[1], 2),
                    "salu_pct": round(used[2], 2),
                },
                "stage_utilization": round(used[0] / cap[0], 4) if cap[0] else 0.0,
            }
        return out
