"""Shared backend plumbing: codegen preparation and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.module import Function, Module
from repro.passes.phielim import eliminate_phis
from repro.passes.structurize import StructuredNode, structurize
from repro.tofino.report import ResourceReport
from repro.tofino.tables import PipelineSpec


def prepare_module_for_codegen(
    module: Module, device_id: Optional[int] = None
) -> dict[str, StructuredNode]:
    """φ-elimination + structurization for every kernel at ``device_id``.

    Returns kernel name -> structured tree (the form both code generators
    and the resource lowering consume).
    """
    trees: dict[str, StructuredNode] = {}
    for fn in module.kernels():
        if device_id is not None and not fn.placed_at(device_id):
            continue
        eliminate_phis(fn)
        trees[fn.name] = structurize(fn)
    return trees


@dataclass
class CodegenResult:
    """Everything one backend invocation produces."""

    target: str
    device_id: Optional[int]
    module: Module
    kernels: list[Function]
    trees: dict[str, StructuredNode]
    p4_source: str
    spec: PipelineSpec
    report: Optional[ResourceReport] = None
    kernel_stats: dict[str, object] = field(default_factory=dict)
