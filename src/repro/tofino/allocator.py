"""Greedy, dependency-aware stage allocation ("fitting").

Mirrors what the paper relies on bf-p4c for: tables are layered by their
dependency graph (a match/action/control dependency forces the consumer
into a strictly later stage; independent tables may share one), then packed
greedily into stages subject to the per-stage budgets.  Exceeding the last
stage raises :class:`FitError` — the program "does not fit", the same
trial-and-error contract §VI-B describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.tofino.chip import ChipSpec, TOFINO_1
from repro.tofino.tables import DependencyKind, LogicalTable, PipelineSpec


class FitError(Exception):
    """The program does not fit the pipeline.  ``origin`` is the failing
    table's provenance (the kernel that owns it) when one table is to
    blame, else ``""``."""

    def __init__(self, message: str, origin: str = "") -> None:
        super().__init__(message)
        self.origin = origin


@dataclass
class StageUsage:
    """Resources consumed within one physical stage."""

    sram_blocks: int = 0
    tcam_blocks: int = 0
    salus: int = 0
    vliw_slots: int = 0
    hash_engines: int = 0
    gateways: int = 0
    tables: int = 0
    names: list[str] = field(default_factory=list)

    def fits(self, t: LogicalTable, chip: ChipSpec) -> bool:
        return (
            self.sram_blocks + t.sram_blocks(chip) <= chip.sram_blocks_per_stage
            and self.tcam_blocks + t.tcam_blocks(chip) <= chip.tcam_blocks_per_stage
            and self.salus + t.salus <= chip.salus_per_stage
            and self.vliw_slots + t.vliw_slots <= chip.vliw_slots_per_stage
            and self.hash_engines + t.hash_engines <= chip.hash_engines_per_stage
            and self.gateways + (1 if t.is_gateway else 0) <= chip.gateways_per_stage
            and self.tables + t.table_slots() <= chip.tables_per_stage
        )

    def place(self, t: LogicalTable, chip: ChipSpec) -> None:
        self.sram_blocks += t.sram_blocks(chip)
        self.tcam_blocks += t.tcam_blocks(chip)
        self.salus += t.salus
        self.vliw_slots += t.vliw_slots
        self.hash_engines += t.hash_engines
        self.gateways += 1 if t.is_gateway else 0
        self.tables += t.table_slots()
        self.names.append(t.name)


@dataclass
class FitResult:
    """A successful placement."""

    spec: PipelineSpec
    chip: ChipSpec
    stage_of: dict[str, int]
    stages: list[StageUsage]
    #: dependency kind that forced each stage transition (for timing)
    stage_entry_dependency: dict[int, DependencyKind]


class _ColocationConflict(FitError):
    def __init__(self, anchor: str, required_stage: int) -> None:
        super().__init__(f"colocation anchor {anchor} must move to stage {required_stage}")
        self.anchor = anchor
        self.required_stage = required_stage


class StageAllocator:
    def __init__(self, chip: ChipSpec = TOFINO_1) -> None:
        self.chip = chip

    def fit(self, spec: PipelineSpec) -> FitResult:
        """Greedy placement, with replays when a Register's later access
        site needs the shared (stage-local) Register in a later stage than
        the greedy choice — the anchor is then pinned further down and the
        placement re-run, the same back-and-forth bf-p4c performs."""
        hints: dict[str, int] = {}
        order = self._topo_order(spec)
        max_replays = 4 * len(spec.tables) + 8 * self.chip.stages
        for _ in range(max_replays):
            try:
                return self._fit_once(spec, order, hints)
            except _ColocationConflict as conflict:
                prev = hints.get(conflict.anchor, 0)
                if conflict.required_stage <= prev:
                    raise FitError(
                        f"'{spec.name}': colocation of '{conflict.anchor}' "
                        "cannot be satisfied"
                    )
                hints[conflict.anchor] = conflict.required_stage
        raise FitError(f"'{spec.name}': colocation replay limit exceeded")

    def _fit_once(
        self, spec: PipelineSpec, order: list[LogicalTable], hints: dict[str, int]
    ) -> FitResult:
        chip = self.chip
        stage_of: dict[str, int] = {}
        stages: list[StageUsage] = []
        stage_dep: dict[int, DependencyKind] = {}

        def ensure_stage(i: int) -> StageUsage:
            while len(stages) <= i:
                stages.append(StageUsage())
            return stages[i]

        for t in order:
            # Earliest legal stage from dependencies.  MATCH and ACTION
            # dependencies force a strictly later stage; CONTROL allows the
            # same stage — RMT gateways predicate tables within the stage
            # they live in, using values computed in earlier stages.
            earliest = 0
            entry_kind: Optional[DependencyKind] = None
            for dep in t.depends:
                if dep.producer not in stage_of:
                    continue  # dependency on something the base program owns
                if dep.kind == DependencyKind.CONTROL:
                    wanted = stage_of[dep.producer]
                else:
                    wanted = stage_of[dep.producer] + 1
                if wanted > earliest:
                    earliest = wanted
                    entry_kind = dep.kind if dep.kind != DependencyKind.CONTROL else None
                elif wanted == earliest and dep.kind == DependencyKind.MATCH:
                    entry_kind = dep.kind
            earliest = max(earliest, hints.get(t.name, 0))
            # Stage-local state: later access sites of one Register must
            # share the stage of the first site.
            pinned: Optional[int] = None
            if t.colocate is not None and chip.stage_local_state:
                anchor = stage_of.get(t.colocate)
                if anchor is None:
                    raise FitError(
                        f"'{spec.name}': '{t.name}' colocates with unplaced "
                        f"table '{t.colocate}'"
                    )
                if earliest > anchor:
                    if earliest >= chip.stages:
                        raise FitError(
                            f"'{spec.name}': register access '{t.name}' needs "
                            f"stage >= {earliest}; stateful memory is "
                            "stage-local (§V-D)",
                            t.origin,
                        )
                    raise _ColocationConflict(t.colocate, earliest)
                pinned = anchor

            placed = False
            s = earliest if pinned is None else pinned
            last = chip.stages if pinned is None else pinned + 1
            while s < last:
                usage = ensure_stage(s)
                if usage.fits(t, chip):
                    usage.place(t, chip)
                    stage_of[t.name] = s
                    if entry_kind is not None and s == earliest:
                        prev = stage_dep.get(s)
                        if prev != DependencyKind.MATCH:
                            stage_dep[s] = entry_kind
                    placed = True
                    break
                s += 1
            if not placed:
                if pinned is not None and pinned + 1 < chip.stages:
                    # The anchor's stage has no room for this access site;
                    # move the whole Register one stage down and replay.
                    raise _ColocationConflict(t.colocate, pinned + 1)  # type: ignore[arg-type]
                raise FitError(
                    f"'{spec.name}': table '{t.name}' does not fit any of the "
                    f"{chip.stages} stages (needs stage >= {earliest}; "
                    "try recompiling with different flags, §VI-B)",
                    t.origin,
                )
        return FitResult(spec, chip, stage_of, stages, stage_dep)

    def _topo_order(self, spec: PipelineSpec) -> list[LogicalTable]:
        """Critical-path list scheduling order.

        Tables are released in dependency order; among ready tables the one
        with the tallest downstream chain goes first, so tables feeding
        long tails (e.g. the AGG completion counter, whose result drives
        the multicast decision) are placed before wide independent fan-outs
        (the 32 aggregation registers).
        """
        by_name = {t.name: t for t in spec.tables}

        # Detect cycles and compute downstream heights.
        consumers: dict[str, list[str]] = {t.name: [] for t in spec.tables}
        indegree: dict[str, int] = {t.name: 0 for t in spec.tables}
        for t in spec.tables:
            wired: set[str] = set()
            for dep in t.depends:
                if dep.producer in by_name and dep.producer not in wired:
                    consumers[dep.producer].append(t.name)
                    indegree[t.name] += 1
                    wired.add(dep.producer)
            if t.colocate is not None and t.colocate in by_name and t.colocate not in wired:
                consumers[t.colocate].append(t.name)
                indegree[t.name] += 1

        height: dict[str, int] = {}

        def compute_height(name: str, stack: tuple[str, ...] = ()) -> int:
            if name in height:
                return height[name]
            if name in stack:
                raise FitError(
                    f"'{spec.name}': cyclic table dependency "
                    f"{' -> '.join(stack + (name,))}"
                )
            h = 1 + max(
                (compute_height(c, stack + (name,)) for c in consumers[name]),
                default=0,
            )
            height[name] = h
            return h

        for t in spec.tables:
            compute_height(t.name)

        # Kahn's algorithm with (height desc, declaration order) priority.
        decl_index = {t.name: i for i, t in enumerate(spec.tables)}
        import heapq

        ready = [
            (-height[t.name], decl_index[t.name], t.name)
            for t in spec.tables
            if indegree[t.name] == 0
        ]
        heapq.heapify(ready)
        order: list[LogicalTable] = []
        while ready:
            _, _, name = heapq.heappop(ready)
            order.append(by_name[name])
            for c in consumers[name]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    heapq.heappush(ready, (-height[c], decl_index[c], c))
        if len(order) != len(spec.tables):  # pragma: no cover - cycle caught above
            raise FitError(f"'{spec.name}': dependency graph is not a DAG")
        return order
