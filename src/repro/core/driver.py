"""Compiler driver: source in, compiled program out (§III workflow, step 1).

The timing split mirrors Table IV: ``ncc_seconds`` covers everything our
compiler does (frontend, middle-end, code generation), while
``fitter_seconds`` covers the stand-in for Intel's bf-p4c (stage fitting,
PHV allocation, latency extraction), which in the paper dominates at over
98% of total compile time.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticEngine
    from repro.analysis.tvalid import TranslationValidationError

from repro.backends import TARGETS, KernelBits, generate_p4
from repro.ir.module import Function, Module
from repro.ir.verifier import verify_module
from repro.lang.lower import lower_to_ir
from repro.lang.parser import parse_source
from repro.lang.sema import analyze
from repro.passes.manager import PassManager, PassOptions
from repro.telemetry.profile import NULL_PROFILER, Profiler
from repro.tofino.report import ResourceReport, build_report
from repro.tofino.tables import PipelineSpec


@dataclass
class CompileTimings:
    frontend_seconds: float = 0.0
    passes_seconds: float = 0.0
    codegen_seconds: float = 0.0
    fitter_seconds: float = 0.0

    @property
    def ncc_seconds(self) -> float:
        return self.frontend_seconds + self.passes_seconds + self.codegen_seconds

    @property
    def total_seconds(self) -> float:
        return self.ncc_seconds + self.fitter_seconds


@dataclass
class CompiledProgram:
    """The result of compiling one NetCL program for one device.

    Frozen from the moment :func:`compile_netcl` returns it: identical
    compiles share its ``module``, ``spec`` and ``report`` by reference
    (see the compile cache below), so devices, planners and tools only
    read it.  The P4 program tree is not
    kept: ``p4_source`` is its text (``parse_p4`` gives a ``tna`` text's
    tree back), ``spec`` and ``kernel_stats`` what was read from it.
    """

    source: str
    device_id: Optional[int]
    target: str
    module: Module
    p4_source: str
    #: what the fitter reads, read from the P4 tree
    spec: PipelineSpec
    #: Table VI's local memory of each kernel compiled, read from the tree
    kernel_stats: dict[str, KernelBits]
    #: the fitter's report; None when compiled with ``fit=False``
    report: Optional[ResourceReport]
    timings: CompileTimings
    options: PassOptions
    #: the telemetry profiler this compile reported into (``ncc --profile``);
    #: the shared disabled instance unless the caller passed one.
    profile: Profiler = NULL_PROFILER
    #: the diagnostics engine of the opt-in analysis phase (``ncc --lint``);
    #: None unless the caller passed ``compile_netcl(..., diagnostics=)``.
    diagnostics: Optional["DiagnosticEngine"] = None
    #: the translation validator's report (``PassValidator.report()``);
    #: None unless ``options.verify_passes`` was set.
    validation: Optional[dict] = None
    #: served from the compile cache: ``timings`` are all zero (what this
    #: call cost) and ``profile`` holds a single ``cache`` span.
    cache_hit: bool = False

    def kernels(self) -> list[Function]:
        """The kernels compiled for this device, in module order."""
        return [fn for fn in self.module.kernels() if fn.name in self.kernel_stats]


class CompileCacheInfo(NamedTuple):
    hits: int
    misses: int
    evictions: int
    size: int


class _CompileCache:
    """LRU of compiled programs keyed by everything the output depends on.

    In-process only, no knob.  The capacity is a measured constant: an
    entry is 100-220 KB, 32 of them are invisible in ``compile_all``'s
    peak RSS (every source there is unique), 64 cost +4.7%, and the
    largest shipped fabric presents 5 distinct programs.  ``P4_PROGRAMS``
    holds parsed handwritten P4 in one too: a run presents a few texts.
    """

    CAPACITY = 32

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, object] = OrderedDict()
        self.clear()

    def clear(self) -> None:
        self.entries.clear()
        self.hits = self.misses = self.evictions = 0

    def get(self, key: tuple) -> Optional[object]:
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
            self.entries.move_to_end(key)
        return entry

    def put(self, key: tuple, compiled: object) -> None:
        self.entries[key] = compiled
        if len(self.entries) > self.CAPACITY:
            self.entries.popitem(last=False)
            self.evictions += 1


_CACHE = _CompileCache()
#: handwritten P4 programs parsed and fitted by :func:`repro.apps.p4_backend`,
#: keyed by (name, source text); emptied with the compile cache
P4_PROGRAMS = _CompileCache()


def compile_cache_info() -> CompileCacheInfo:
    """Counters of the compile cache since the last clear (telemetry)."""
    return CompileCacheInfo(_CACHE.hits, _CACHE.misses, _CACHE.evictions, len(_CACHE.entries))


def compile_cache_clear() -> None:
    """Forget every cached program and zero the counters (tests, cold
    compile-time measurements)."""
    _CACHE.clear()
    P4_PROGRAMS.clear()


def lower_source(
    source: str, defines: Optional[dict[str, int]] = None, program_name: str = "netcl"
) -> Module:
    """The frontend: parse, analyse and lower NetCL source text to
    verified IR.  Raises :class:`repro.lang.errors.CompileError`."""
    module = lower_to_ir(analyze(parse_source(source, defines)), name=program_name)
    verify_module(module)
    return module


def placed_devices(module: Module) -> list[Optional[int]]:
    """Device ids ``module`` places a kernel or a global on, sorted;
    ``[None]`` (compile everything for one device) when it places nothing."""
    devices: set[int] = set()
    for fn in module.functions.values():
        devices.update(fn.locations)
    for gv in module.globals.values():
        devices.update(gv.locations)
    return sorted(devices) if devices else [None]


def verify_source(
    source: str,
    device_id: Optional[int] = None,
    *,
    target: str = "tna",
    defines: Optional[dict[str, int]] = None,
    program_name: str = "netcl",
) -> tuple[list[dict], Optional["TranslationValidationError"]]:
    """Translation-validate ``source`` on ``device_id`` or, by default,
    on every placed device (``ncc verify``).

    Returns one entry per device compiled -- ``status`` ``ok`` with the
    validator's report, ``compile-error`` with the ``error`` text, or
    ``miscompile`` with the counterexample, which ends the list -- and the
    miscompile's exception, or None.  Raises
    :class:`repro.lang.errors.CompileError` when the source does not lower.
    """
    from repro.analysis.tvalid import TranslationValidationError
    from repro.lang.errors import CompileError
    from repro.passes.memcheck import MemoryCheckError

    module = lower_source(source, defines, program_name)
    devices = [device_id] if device_id is not None else placed_devices(module)
    entries: list[dict] = []
    for dev in devices:
        try:
            compiled = compile_netcl(
                source,
                dev,
                target=target,
                options=PassOptions(verify_passes=True),
                defines=defines,
                fit=False,
                program_name=program_name,
            )
        except TranslationValidationError as exc:
            entries.append({"device": dev, "status": "miscompile", **exc.to_json_dict()})
            return entries, exc
        except (CompileError, MemoryCheckError) as exc:
            entries.append({"device": dev, "status": "compile-error", "error": str(exc)})
        else:
            entries.append({"device": dev, "status": "ok", **compiled.validation})
    return entries, None


def compile_netcl(
    source: str,
    device_id: Optional[int] = None,
    *,
    target: str = "tna",
    options: Optional[PassOptions] = None,
    defines: Optional[dict[str, int]] = None,
    fit: bool = True,
    program_name: str = "netcl",
    profiler: Optional[Profiler] = None,
    diagnostics: Optional["DiagnosticEngine"] = None,
) -> CompiledProgram:
    """Compile NetCL source text for one device.

    A pure function of its arguments, memoised: a repeated call returns
    the first call's program (same ``module`` and ``spec`` objects,
    ``cache_hit`` set, zero ``timings``), which is why a
    :class:`CompiledProgram` is frozen once returned.  Calls that ask for
    side effects (a ``diagnostics`` engine, ``options.verify_passes``)
    always compile and stay out of the cache; an exception is never
    cached.

    Pass an enabled :class:`~repro.telemetry.Profiler` to record phase
    and per-pass spans (``ncc --profile``); by default profiling is the
    shared disabled instance and costs nothing beyond the phase timers.
    A cache hit records one ``cache`` phase span instead.

    Given a ``diagnostics`` engine, an opt-in static-analysis phase runs
    on the freshly-lowered IR (before the optimizer mutates it) and
    collects its warnings there; the engine is attached as
    ``CompiledProgram.diagnostics``.  Analysis never aborts the compile —
    check the engine's ``exit_code``.  With ``options.verify_passes`` the
    validator's report is attached as ``CompiledProgram.validation``.

    Raises :class:`repro.lang.errors.CompileError` on language violations,
    :class:`repro.passes.memcheck.MemoryCheckError` on Tofino memory
    constraint violations, and :class:`repro.tofino.allocator.FitError`
    (or :class:`repro.tofino.phv.PhvError`) when the program does not fit
    the pipeline; :class:`ValueError` for a target not in
    :data:`repro.backends.TARGETS`.
    """
    # A private copy: the caller's options object is neither written to
    # nor aliased by the key or the stored program.
    opts = dataclasses.replace(options or PassOptions(), target=target)
    prof = profiler or NULL_PROFILER

    key = None
    if diagnostics is None and not opts.verify_passes:
        t0 = time.perf_counter_ns()
        key = (
            source,
            device_id,
            dataclasses.astuple(opts),
            # the preprocessor substitutes str(value): True is not 1
            tuple(sorted((name, str(value)) for name, value in (defines or {}).items())),
            fit,
            program_name,
        )
        hit = _CACHE.get(key)
        if hit is not None:
            prof.record(
                "cache",
                category="phase",
                duration_ns=time.perf_counter_ns() - t0,
                meta={"program": program_name},
            )
            return dataclasses.replace(
                hit, timings=CompileTimings(), profile=prof, cache_hit=True
            )

    timings = CompileTimings()

    t0 = time.perf_counter()
    with prof.span("frontend", category="phase", program=program_name):
        module = lower_source(source, defines, program_name)
    timings.frontend_seconds = time.perf_counter() - t0

    if diagnostics is not None:
        from repro.analysis import run_lints

        with prof.span("analysis", category="phase", program=program_name):
            run_lints(module, diagnostics)

    t0 = time.perf_counter()
    with prof.span("passes", category="phase"):
        pm = PassManager(opts, profiler=prof)
        pm.run_pipeline(module, device_id)
    timings.passes_seconds = time.perf_counter() - t0

    # Code generation proper (structurize + the P4 tree, its text and
    # spec) is ncc work; fitting is the downstream P4 compiler's.
    t0 = time.perf_counter()
    with prof.span("codegen", category="phase", target=target):
        _, p4_source, spec, kernel_stats = generate_p4(
            module, device_id, target, program_name, pm.validator
        )
    timings.codegen_seconds = time.perf_counter() - t0

    report = None
    if fit:
        t0 = time.perf_counter()
        with prof.span("fitter", category="phase"):
            report = build_report(
                spec,
                TARGETS[target].chip,
                local_fields=[bits.p4_local_bits for bits in kernel_stats.values()],
            )
        timings.fitter_seconds = time.perf_counter() - t0

    compiled = CompiledProgram(
        source=source,
        device_id=device_id,
        target=target,
        module=module,
        p4_source=p4_source,
        spec=spec,
        kernel_stats=kernel_stats,
        report=report,
        timings=timings,
        options=opts,
        profile=prof,
        diagnostics=diagnostics,
        validation=pm.validator.report() if pm.validator is not None else None,
    )
    if key is not None:
        _CACHE.put(key, compiled)
    return compiled


def compile_netcl_file(
    path: str | Path, device_id: Optional[int] = None, **kwargs
) -> CompiledProgram:
    """Compile a ``.ncl`` source file (see :mod:`repro.apps` for the
    paper's applications)."""
    text = Path(path).read_text()
    kwargs.setdefault("program_name", Path(path).stem)
    return compile_netcl(text, device_id, **kwargs)
