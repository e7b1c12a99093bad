"""Per-packet latency model (Fig. 13 of the paper).

Tofino guarantees line rate for any fitting program; what varies between
programs is the worst-case per-packet latency, which the Tofino compiler
reports as exact cycle costs.  The latency of a pass through one pipe is::

    parser + sum over stages of stage-crossing cost + deparser + TM

where a stage's crossing cost depends on how its tables relate to earlier
stages (match-dependent stages stall the longest, concurrent ones pipeline
freely) — the RMT timing model of [51].  The paper reports worst-case
latency with no egress bypass, i.e. ingress + TM + egress; we model the
egress pipe as a pass-through of the same pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tofino.allocator import FitResult
from repro.tofino.chip import ChipSpec
from repro.tofino.tables import DependencyKind


@dataclass
class LatencyReport:
    parser_cycles: float
    ingress_cycles: float
    tm_cycles: float
    egress_cycles: float
    deparser_cycles: float
    chip: ChipSpec

    @property
    def total_cycles(self) -> float:
        return (
            self.parser_cycles
            + self.ingress_cycles
            + self.tm_cycles
            + self.egress_cycles
            + self.deparser_cycles
        )

    @property
    def total_ns(self) -> float:
        return self.total_cycles * self.chip.timing.ns_per_cycle


class LatencyModel:
    def __init__(self, chip: ChipSpec) -> None:
        self.chip = chip

    def latency(self, fit: FitResult) -> LatencyReport:
        t = self.chip.timing
        parser = t.parser_base_cycles + t.parser_cycles_per_byte * fit.spec.parsed_bytes

        ingress = 0.0
        for s in range(self.chip.stages):
            usage = fit.stages[s] if s < len(fit.stages) else None
            if usage is None or not usage.names:
                ingress += t.stage_passthrough_cycles
                continue
            dep = fit.stage_entry_dependency.get(s)
            if dep == DependencyKind.MATCH or dep == DependencyKind.CONTROL:
                ingress += t.stage_match_dependent_cycles
            elif dep == DependencyKind.ACTION:
                ingress += t.stage_action_dependent_cycles
            else:
                ingress += t.stage_concurrent_cycles
            # SALU transactions add fixed per-stage cost.
            if usage.salus:
                ingress += 2

        # Worst case (no egress bypass): the packet traverses the egress
        # pipe too.  Our programs do all work at ingress, so egress is a
        # pass-through of all stages.
        egress = self.chip.stages * t.stage_passthrough_cycles

        return LatencyReport(
            parser_cycles=parser,
            ingress_cycles=ingress,
            tm_cycles=t.traffic_manager_cycles,
            egress_cycles=egress,
            deparser_cycles=t.deparser_cycles,
            chip=self.chip,
        )
