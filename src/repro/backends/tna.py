"""The TNA (Intel Tofino Native Architecture) backend."""

from __future__ import annotations

from typing import Optional

from repro.backends.base import empty_program_spec
from repro.backends.common import CodegenResult, prepare_module_for_codegen
from repro.backends.lower import lower_to_pipeline_spec
from repro.backends.p4text import P4Emitter
from repro.ir.module import Module
from repro.tofino.chip import ChipSpec, TOFINO_1
from repro.tofino.report import build_report
from repro.tofino.tables import DependencyKind


class TnaBackend:
    """Generates TNA P4 + a fitted pipeline for one device.

    ``fit=False`` skips the fitter (useful when only the P4 text is
    wanted); otherwise :class:`repro.tofino.allocator.FitError` propagates
    when the program does not fit — the paper's trial-and-error contract.
    """

    target = "tna"
    dialect = "tna"
    after_dispatch = True

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
    ) -> CodegenResult:
        trees = prepare_module_for_codegen(module, device_id)
        kernels = [
            fn
            for fn in module.kernels()
            if device_id is None or fn.placed_at(device_id)
        ]
        spec, stats = lower_to_pipeline_spec(module, trees, device_id, name=program_name)
        if include_base_program:
            spec.merge(empty_program_spec())
            if self.after_dispatch:  # kernel tables run after the runtime dispatch
                for t in spec.tables:
                    if t.origin and t.origin not in ("base", "runtime", "netcl-runtime"):
                        if not t.depends:
                            t.add_dep("ncl_dispatch", DependencyKind.CONTROL)
        emitter = P4Emitter(self.dialect)
        p4 = emitter.emit_program(module, trees, device_id, kernels)
        report = None
        if fit:
            local_fields = [s.p4_local_bits for s in stats.values()]
            report = build_report(spec, self.chip, local_fields=local_fields)
        return CodegenResult(
            target=self.target,
            device_id=device_id,
            module=module,
            kernels=kernels,
            trees=trees,
            p4_source=p4,
            spec=spec,
            report=report,
            kernel_stats=dict(stats),
        )
