"""P4 code generation backends (§VI-B "Code generation").

Two targets, the paper's two extremes: ``tna`` (Intel Tofino Native
Architecture, a constrained 12-stage ASIC) and ``v1model`` (the software
switch, where any valid P4 runs).  Both build the same P4 program tree
(:mod:`repro.backends.p4tree`), print it and read its resources from it
(:func:`repro.p4.resources.p4_to_pipeline_spec`); they differ in the chip
the fitter places it on and in the text: v1model's has its externs
(``register`` read and write, ``hash()``, ``random()``) and package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.backends.p4tree import DEPARSER, INGRESS, PARSER, build_program
from repro.ir.instructions import Alloca
from repro.ir.module import Function, Module
from repro.p4.printer import print_p4
from repro.p4.resources import p4_local_bits, p4_to_pipeline_spec
from repro.passes.phielim import eliminate_phis
from repro.passes.structurize import StructuredNode, structurize
from repro.tofino.chip import TOFINO_1, V1MODEL, ChipSpec
from repro.tofino.report import ResourceReport, build_report
from repro.tofino.tables import PipelineSpec


def prepare_module_for_codegen(
    module: Module, device_id: Optional[int] = None
) -> dict[str, StructuredNode]:
    """φ-elimination + structurization for every kernel at ``device_id``:
    kernel name -> structured tree (the form the P4 tree builder reads)."""
    trees: dict[str, StructuredNode] = {}
    for fn in module.kernels():
        if device_id is None or fn.placed_at(device_id):
            eliminate_phis(fn)
            trees[fn.name] = structurize(fn)
    return trees


class KernelBits(NamedTuple):
    """One kernel's local memory (Table VI), in bits."""

    ir_alloca_bits: int  # local slots in the final IR
    p4_local_bits: int  # control locals of the P4 program (PHV)
    header_bits: int  # the argument header


@dataclass
class CodegenResult:
    """Everything one backend invocation produces.  The P4 program tree is
    printed, read and (under validation) run while it is built; what stays
    is its text (``parse_p4`` turns a ``tna`` text back into that tree)
    and what was read from it."""

    target: str
    device_id: Optional[int]
    module: Module
    kernels: list[Function]
    p4_source: str
    spec: PipelineSpec
    #: Table VI's local memory of each kernel, read from the tree
    kernel_stats: dict[str, KernelBits]
    report: Optional[ResourceReport] = None

    def local_fields(self) -> list[int]:
        """The PHV local fields: each kernel's control locals."""
        return [bits.p4_local_bits for bits in self.kernel_stats.values()]


class TnaBackend:
    """Builds the P4 program for one device, prints it and reads its
    resources from it.

    ``fit=False`` skips the fitter (useful when only the P4 text is
    wanted); otherwise :class:`repro.tofino.allocator.FitError` propagates
    when the program does not fit — the paper's trial-and-error contract.
    A ``validator`` (:class:`repro.analysis.tvalid.PassValidator`) runs
    its ``p4exec`` step on the program of each kernel.
    """

    target = "tna"
    include = "tna.p4"
    package = f"Pipeline({PARSER}(), {INGRESS}(), {DEPARSER}()) pipe;\nSwitch(pipe) main;"

    def __init__(self, chip: ChipSpec = TOFINO_1) -> None:
        self.chip = chip

    def compile(
        self,
        module: Module,
        device_id: Optional[int] = None,
        *,
        fit: bool = True,
        include_base_program: bool = True,
        program_name: str = "netcl",
        validator=None,
    ) -> CodegenResult:
        trees = prepare_module_for_codegen(module, device_id)
        kernels = [fn for fn in module.kernels() if fn.name in trees]
        tree = build_program(trees, device_id, kernels, base_program=include_base_program)
        program = tree.program
        for fn in kernels if validator is not None else ():
            validator.check_p4(tree, fn)
        p4 = (
            f"// NetCL generated P4 ({self.target}), device {device_id}\n"
            f"#include <core.p4>\n#include <{self.include}>\n\n"
            f"{print_p4(program, v1model=self.target == 'v1model')}\n{self.package}\n"
        )
        stats = {
            fn.name: KernelBits(
                sum(i.elem.width * i.shape.num_elements
                    for i in fn.instructions() if isinstance(i, Alloca)),
                p4_local_bits(program, INGRESS, names=tree.kernel_locals[fn.name]),
                program.headers[f"{fn.name}_args_t"].bit_width,
            )
            for fn in kernels
        }
        spec = p4_to_pipeline_spec(program, name=program_name, ingress=INGRESS)
        result = CodegenResult(self.target, device_id, module, kernels, p4, spec, stats)
        if fit:
            result.report = build_report(spec, self.chip, local_fields=result.local_fields())
        return result


class V1ModelBackend(TnaBackend):
    """The v1model (software switch) backend: it executes any valid P4, so
    the fitter runs against the effectively unconstrained
    :data:`~repro.tofino.chip.V1MODEL` "chip" — reaching the end of the
    common pipeline stage already guarantees compilability (§VI-B)."""

    target = "v1model"
    include = "v1model.p4"
    package = f"V1Switch({PARSER}(), {INGRESS}(), {DEPARSER}()) main;"

    def __init__(self, chip: ChipSpec = V1MODEL) -> None:
        super().__init__(chip)


__all__ = ["CodegenResult", "KernelBits", "TnaBackend", "V1ModelBackend", "prepare_module_for_codegen"]
