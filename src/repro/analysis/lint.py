"""Lint entry points: raw-IR lints plus deep (pipeline-backed) checks.

Two tiers:

* :func:`run_lints` — *pure* analyses over a freshly-lowered module
  (never mutates it).  This is what the driver's opt-in analysis phase
  and the fuzz harness use.
* :func:`lint_source` — the full ``ncc lint`` behaviour: frontend the
  source, run the pure lints, then push a *separate* lowering of the
  same source through the real optimization pipeline per placed device
  so post-partitioning checks (Tofino memory constraints, NCL102-104)
  report with their proper locations.  Memory checking cannot run on
  raw IR: the partitioning pass first splits constant-indexed arrays
  into independent register objects, and pre-partition IR would
  false-positive on every count-min-sketch-style kernel.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import DiagnosticEngine
from repro.analysis.estimate import estimate_devices, lint_resources
from repro.analysis.lints import run_module_lints
from repro.ir.module import Module
from repro.lang.errors import CompileError
from repro.lang.lower import lower_to_ir
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.tofino.chip import ChipSpec, TOFINO_1


def run_lints(
    module: Module,
    engine: DiagnosticEngine,
    chip: ChipSpec = TOFINO_1,
) -> DiagnosticEngine:
    """Run every read-only lint over ``module``.  Never mutates the IR."""
    from repro.passes.dagcheck import check_dag

    run_module_lints(module, engine)
    for fn in module.functions.values():
        if fn.blocks:
            check_dag(fn, engine=engine)
    lint_resources(module, engine, chip)
    return engine


def lint_source(
    source: str,
    *,
    engine: Optional[DiagnosticEngine] = None,
    device_id: Optional[int] = None,
    target: str = "tna",
    chip: Optional[ChipSpec] = None,
    defines: Optional[dict[str, int]] = None,
    program_name: str = "netcl",
    deep: bool = True,
) -> DiagnosticEngine:
    """Lint NetCL source text; returns the (possibly caller-provided)
    engine holding every diagnostic found."""
    from repro.passes.manager import PassOptions, run_default_pipeline
    from repro.passes.memcheck import MemoryCheckError

    engine = engine or DiagnosticEngine()
    chip = chip or TOFINO_1

    try:
        program = parse_source(source, defines)
        sema = analyze(program)
        module = lower_to_ir(sema, name=program_name)
    except CompileError as e:
        for d in e.diagnostics:
            if not d.code:
                d.code = "NCL100"
        engine.extend(e.diagnostics)
        return engine

    run_lints(module, engine, chip)
    if engine.errors or not deep:
        # A broken CFG would make the pipeline itself raise; stop here.
        return engine

    devices = (
        [device_id] if device_id is not None else estimate_devices(module)
    )
    # Location-less kernels compile for every device; report each of their
    # violations once, not once per device.
    seen = {(d.code, d.line, d.col, d.message) for d in engine.diagnostics}

    def extend_unique(diags) -> None:
        for d in diags:
            key = (d.code, d.line, d.col, d.message)
            if key in seen:
                continue
            seen.add(key)
            engine.extend([d])

    for dev in devices:
        # A fresh lowering per device: the pipeline mutates its module.
        module2 = lower_to_ir(analyze(parse_source(source, defines)), name=program_name)
        try:
            run_default_pipeline(module2, PassOptions(target=target), dev)
        except MemoryCheckError as e:
            extend_unique(getattr(e, "diagnostics", []) or [])
        except CompileError as e:
            for d in e.diagnostics:
                if not d.code:
                    d.code = "NCL100"
            extend_unique(e.diagnostics)
    return engine
