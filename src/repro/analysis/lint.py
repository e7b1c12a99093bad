"""Lint entry points: raw-IR lints plus the compile of every placed device.

Two tiers:

* :func:`run_lints` — *pure* analyses over a freshly-lowered module
  (never mutates it).  This is what the driver's opt-in analysis phase
  and the fuzz harness use.
* :func:`lint_source` — the full ``ncc lint`` behaviour: compile the
  source with :func:`~repro.core.driver.compile_netcl` for each placed
  device, with the analysis phase on, and turn what stops a compile into
  diagnostics.  Tofino memory constraints (NCL102-104) are checked after
  the partitioning pass has split constant-indexed arrays into
  independent register objects, and NCL007 is the fitter's verdict, so a
  clean lint means the program compiles and fits.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import DiagnosticEngine
from repro.analysis.lints import run_module_lints
from repro.ir.module import Module
from repro.lang.errors import CompileError


def run_lints(module: Module, engine: DiagnosticEngine) -> DiagnosticEngine:
    """Run every read-only lint over ``module``.  Never mutates the IR."""
    from repro.passes.dagcheck import check_dag

    run_module_lints(module, engine)
    for fn in module.functions.values():
        if fn.blocks:
            check_dag(fn, engine=engine)
    return engine


def lint_source(
    source: str,
    *,
    engine: Optional[DiagnosticEngine] = None,
    device_id: Optional[int] = None,
    target: str = "tna",
    defines: Optional[dict[str, int]] = None,
    program_name: str = "netcl",
) -> DiagnosticEngine:
    """Lint NetCL source text; returns the (possibly caller-provided)
    engine holding every diagnostic found."""
    from repro.core.driver import compile_netcl, lower_source, placed_devices
    from repro.passes.memcheck import MemoryCheckError
    from repro.tofino.allocator import FitError
    from repro.tofino.phv import PhvError

    engine = engine or DiagnosticEngine()
    try:
        module = lower_source(source, defines, program_name)
    except CompileError as e:
        engine.extend(_compile_error(e))
        return engine

    # Location-less kernels compile for every device, and every compile
    # lints the whole module: report each finding once.
    seen: set[tuple] = set()
    devices = [device_id] if device_id is not None else placed_devices(module)
    for dev in devices:
        found = DiagnosticEngine()
        try:
            compile_netcl(
                source,
                dev,
                target=target,
                defines=defines,
                program_name=program_name,
                diagnostics=found,
            )
        except MemoryCheckError as e:
            found.extend(e.diagnostics)
        except CompileError as e:
            found.extend(_compile_error(e))
        except FitError as e:
            kernel = module.functions.get(e.origin)
            found.emit(
                "NCL007", f"the fitter rejects the program: {e}", kernel.loc if kernel else None
            )
        except PhvError as e:
            found.emit("NCL007", f"the fitter rejects the program: {e}")
        for d in found.diagnostics:
            key = (d.code, d.line, d.col, d.message)
            if key not in seen:
                seen.add(key)
                engine.extend([d])
        if found.errors:
            break
    return engine


def _compile_error(e: CompileError) -> list:
    for d in e.diagnostics:
        if not d.code:
            d.code = "NCL100"
    return e.diagnostics
