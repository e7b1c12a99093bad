"""P4 code generation (§VI-B "Code generation").

Two targets, the paper's two extremes: ``tna`` (Intel Tofino Native
Architecture, a constrained 12-stage ASIC) and ``v1model`` (the software
switch, where any valid P4 runs).  A target is one row of
:data:`TARGETS`: the chip the fitter places the program on, its
``#include`` and its package line.  :func:`generate_p4` builds the one P4
program tree (:mod:`repro.backends.p4tree`), prints it and reads its
resources from it (:func:`repro.p4.resources.p4_to_pipeline_spec`); the
v1model text prints the same tree with v1model's externs (``register``
read and write, ``hash()``, ``random()``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.backends.p4tree import DEPARSER, INGRESS, PARSER, build_program
from repro.ir.instructions import Alloca
from repro.ir.module import Module
from repro.p4 import ast
from repro.p4.printer import print_p4
from repro.p4.resources import p4_local_bits, p4_to_pipeline_spec
from repro.passes.phielim import eliminate_phis
from repro.passes.structurize import structurize
from repro.tofino.chip import TOFINO_1, V1MODEL, ChipSpec
from repro.tofino.tables import PipelineSpec


class Target(NamedTuple):
    """What code generation and the fitter read of a target."""

    chip: ChipSpec
    include: str
    package: str


TARGETS = {
    "tna": Target(
        TOFINO_1, "tna.p4", f"Pipeline({PARSER}(), {INGRESS}(), {DEPARSER}()) pipe;\nSwitch(pipe) main;"
    ),
    # The software switch executes any valid P4, so its "chip" is
    # effectively unconstrained: reaching the end of the common pipeline
    # stage already guarantees compilability (§VI-B).
    "v1model": Target(V1MODEL, "v1model.p4", f"V1Switch({PARSER}(), {INGRESS}(), {DEPARSER}()) main;"),
}


class KernelBits(NamedTuple):
    """One kernel's local memory (Table VI), in bits."""

    ir_alloca_bits: int  # local slots in the final IR
    p4_local_bits: int  # control locals of the P4 program (PHV)
    header_bits: int  # the argument header


def generate_p4(
    module: Module, device_id: Optional[int], target: str, program_name: str, validator
) -> tuple[ast.Program, str, PipelineSpec, dict[str, KernelBits]]:
    """The P4 program of the kernels ``module`` places at ``device_id``
    (every kernel when it is None), after φ-elimination and
    structurization: its tree, its text for ``target``, the
    :class:`PipelineSpec` the fitter reads and Table VI's local memory of
    each kernel.  A ``validator``
    (:class:`repro.analysis.tvalid.PassValidator`) runs its ``p4exec``
    step on the program of each kernel."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r} (expected 'tna' or 'v1model')")
    row = TARGETS[target]
    kernels = [fn for fn in module.kernels() if device_id is None or fn.placed_at(device_id)]
    trees = {}
    for fn in kernels:
        eliminate_phis(fn)
        trees[fn.name] = structurize(fn)
    tree = build_program(trees, device_id, kernels)
    program = tree.program
    for fn in kernels if validator is not None else ():
        validator.check_p4(tree, fn)
    text = (
        f"// NetCL generated P4 ({target}), device {device_id}\n"
        f"#include <core.p4>\n#include <{row.include}>\n\n"
        f"{print_p4(program, v1model=target == 'v1model')}\n{row.package}\n"
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
    return program, text, p4_to_pipeline_spec(program, name=program_name, ingress=INGRESS), stats


__all__ = ["KernelBits", "TARGETS", "Target", "generate_p4"]
