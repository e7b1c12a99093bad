"""Pre-fitter resource estimation (NCL007).

Predicts, from IR shape alone, whether a program will blow the chip's
stage / SALU / SRAM budgets — *before* the expensive Tofino fitter runs.
The model is intentionally coarse and errs on the permissive side: it
only warns for overflows the fitter is essentially guaranteed to hit
(a data-dependency chain of register accesses longer than the pipeline,
more distinct register objects than SALUs, more state than SRAM).

Two signals drive the stage estimate:

* **SALU site count** — each distinct register object a kernel touches
  needs its own stateful ALU, and a stage has ``salus_per_stage`` of
  them (§VI-C).
* **Dependency-chain depth** — register accesses whose inputs depend on
  an earlier access's result must land in strictly later stages
  (stage-local state, §II); the longest such chain lower-bounds the
  stage count no matter how cleverly the fitter packs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import DiagnosticEngine
from repro.ir.dominators import reverse_postorder
from repro.ir.instructions import Constant, GlobalAccess
from repro.ir.module import Function, Module
from repro.tofino.chip import ChipSpec, TOFINO_1


def _site_key(inst: GlobalAccess) -> Tuple[int, Optional[int]]:
    """Register-object key of an access: the global plus the leading
    constant index (the memory-partitioning pass splits arrays indexed by
    a constant leading subscript into that many independent objects)."""
    first = None
    if inst.indices and isinstance(inst.indices[0], Constant):
        first = inst.indices[0].value
    return (id(inst.gv), first)


def kernel_salu_sites(fn: Function) -> Set[Tuple[int, Optional[int]]]:
    """Distinct register objects (post-partitioning estimate) the kernel
    touches with SALU-implemented accesses."""
    sites: Set[Tuple[int, Optional[int]]] = set()
    for inst in fn.instructions():
        if isinstance(inst, GlobalAccess) and not inst.gv.space.is_lookup:
            sites.add(_site_key(inst))
    return sites


def kernel_chain_depth(fn: Function) -> int:
    """Longest data-dependency chain of distinct register objects.

    Depth counts register *accesses* along a def-use chain: an access
    whose operands (transitively) depend on another access's result must
    be placed in a strictly later stage.  Dependencies are also tracked
    through local slots and message fields (the estimate runs on raw,
    pre-mem2reg IR where values round-trip through memory).
    """
    from repro.ir.instructions import Load, LoadMsg, Store, StoreMsg

    depth: Dict[int, int] = {}
    # Memory cells keyed per base object, then per constant element index
    # (None = any/dynamic index).  Distinct elements of an unrolled array
    # are independent; merging them would fabricate chains.
    slot_cells: Dict[int, Dict[Optional[tuple], int]] = {}
    field_cells: Dict[str, Dict[Optional[tuple], int]] = {}

    def elem_key(indices) -> Optional[tuple]:
        vals = []
        for idx in indices:
            if not isinstance(idx, Constant):
                return None
            vals.append(idx.value)
        return tuple(vals)

    def cell_load(cells: Dict[Optional[tuple], int], key: Optional[tuple]) -> int:
        if key is None:
            return max(cells.values(), default=0)
        return max(cells.get(key, 0), cells.get(None, 0))

    def value_depth(v) -> int:
        return depth.get(id(v), 0)

    best = 0
    for bb in reverse_postorder(fn):
        for inst in bb.instructions:
            d = 0
            for op in inst.operands:
                d = max(d, value_depth(op))
            if isinstance(inst, Load):
                cells = slot_cells.get(id(inst.slot), {})
                d = max(d, cell_load(cells, elem_key(inst.indices)))
            elif isinstance(inst, LoadMsg):
                cells = field_cells.get(inst.field, {})
                idx = () if inst.index is None else (inst.index,)
                d = max(d, cell_load(cells, elem_key(idx)))
            if isinstance(inst, GlobalAccess) and not inst.gv.space.is_lookup:
                d += 1
            if isinstance(inst, Store):
                cells = slot_cells.setdefault(id(inst.slot), {})
                key = elem_key(inst.indices)
                cells[key] = max(cells.get(key, 0), d)
            elif isinstance(inst, StoreMsg):
                cells = field_cells.setdefault(inst.field, {})
                idx = () if inst.index is None else (inst.index,)
                key = elem_key(idx)
                cells[key] = max(cells.get(key, 0), d)
            depth[id(inst)] = d
            best = max(best, d)
    return best


def estimate_devices(module: Module) -> List[Optional[int]]:
    """Device ids the module places anything on (None = location-less)."""
    devices: Set[int] = set()
    for fn in module.functions.values():
        devices.update(fn.locations)
    for gv in module.globals.values():
        devices.update(gv.locations)
    return sorted(devices) if devices else [None]


def lint_resources(
    module: Module,
    engine: DiagnosticEngine,
    chip: ChipSpec = TOFINO_1,
) -> None:
    """NCL007: per-device stage/SALU/SRAM overflow prediction."""
    for device in estimate_devices(module):
        kernels = [
            fn
            for fn in module.kernels()
            if device is None or fn.placed_at(device)
        ]
        device_tag = f" on device {device}" if device is not None else ""

        total_sites = 0
        for fn in kernels:
            sites = kernel_salu_sites(fn)
            total_sites += len(sites)
            chain = kernel_chain_depth(fn)
            # SALU packing lower bound: sites spread across the pipeline.
            stage_floor = max(
                -(-len(sites) // chip.salus_per_stage) if sites else 0,
                chain,
            )
            if stage_floor > chip.stages:
                engine.emit(
                    "NCL007",
                    f"kernel '{fn.name}' needs at least {stage_floor} "
                    f"pipeline stages{device_tag} ({len(sites)} register "
                    f"objects, dependency chain of {chain}); "
                    f"{chip.name} has {chip.stages}",
                    fn.loc,
                )

        if total_sites > chip.total_salus:
            names = ", ".join(f"'{fn.name}'" for fn in kernels)
            engine.emit(
                "NCL007",
                f"kernels {names} together use an estimated {total_sites} "
                f"stateful ALUs{device_tag}; {chip.name} has "
                f"{chip.total_salus}",
                kernels[0].loc if kernels else None,
            )

        sram_blocks = 0
        worst_gv = None
        for gv in module.globals.values():
            if device is not None and not gv.placed_at(device):
                continue
            if gv.space.is_lookup:
                continue
            blocks = chip.sram_blocks_for(gv.bits)
            sram_blocks += blocks
            if worst_gv is None or blocks > chip.sram_blocks_for(worst_gv.bits):
                worst_gv = gv
        if sram_blocks > chip.total_sram_blocks:
            engine.emit(
                "NCL007",
                f"register memory needs an estimated {sram_blocks} SRAM "
                f"blocks{device_tag}; {chip.name} has "
                f"{chip.total_sram_blocks}",
                worst_gv.loc if worst_gv is not None else None,
            )
