"""Pass manager and the default NetCL pipeline (§VI-B).

The default pipeline is target-parameterized the way the paper describes:
the common stage produces a "P4-compilable CFG" (guaranteeing v1model
compilability), the Tofino stage adds memory optimizations, checks, and
scheduling transforms.  Several transforms are controlled by flags the
programmer can toggle to retry fitting (speculation, lookup duplication,
hash-engine bitcasts, intrinsic conversion, the distance threshold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.module import Function, Module
from repro.ir.verifier import verify_function
from repro.passes.dagcheck import check_dag
from repro.passes.dce import dead_code_elimination
from repro.passes.hoist import hoist_common_values, speculate
from repro.passes.ifconvert import if_convert
from repro.passes.intrinsics import convert_intrinsic_patterns
from repro.passes.memcheck import DEFAULT_DISTANCE_THRESHOLD, check_memory_constraints
from repro.passes.memopt import duplicate_lookups, partition_memory
from repro.passes.mem2reg import mem2reg
from repro.passes.phielim import eliminate_phis
from repro.passes.simplify import simplify_function
from repro.passes.sroa import scalarize_local_arrays
from repro.telemetry.profile import NULL_PROFILER, Profiler


def _function_size(fn: Function) -> int:
    return sum(len(b.instructions) for b in fn.blocks)


def _module_size(module: Module) -> int:
    return sum(_function_size(f) for f in module.functions.values())


@dataclass
class PassOptions:
    """Compiler flags (§VI-B: "we provide several compiler flags to control
    certain transformations")."""

    target: str = "tna"  # "tna" | "v1model"
    if_conversion: bool = True
    speculation: bool = True
    lookup_duplication: bool = True
    memory_partitioning: bool = True
    intrinsic_conversion: bool = True
    hash_bitcasts: bool = False
    distance_threshold: int = DEFAULT_DISTANCE_THRESHOLD
    #: translation validation: structurally verify every kernel and
    #: differentially execute it against its pre-pipeline behavior after
    #: each transforming pass (``ncc --verify-passes``).
    verify_passes: bool = False

    @property
    def is_tofino(self) -> bool:
        return self.target == "tna"


#: passes that only *check* IR (never rewrite it); translation validation
#: would re-execute the same behavior it just confirmed, so skip them.
PURE_CHECK_PASSES = frozenset({"dagcheck", "memcheck"})


class PassManager:
    """Runs function/module passes in order.

    When given an enabled :class:`Profiler`, every pass run is published
    as a ``category="pass"`` span (wall time, changes and the IR size
    around it), which is what ``ncc --profile`` renders; a disabled one
    costs no clock read and no IR walk.

    With ``options.verify_passes`` set, the structural verifier runs
    after every transforming pass, and a :class:`PassValidator`
    captures each kernel's behavior before the pipeline and differential
    execution re-checks it after every transforming pass; a divergence
    raises :class:`~repro.analysis.tvalid.TranslationValidationError`
    naming the pass and a counterexample input vector; a last step named
    ``pyexec`` holds the compiled kernel engine to the interpreter on the
    final IR.
    """

    def __init__(
        self,
        options: Optional[PassOptions] = None,
        *,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.options = options or PassOptions()
        self.profiler = profiler or NULL_PROFILER
        self.validator = None  # set per run_pipeline when verify_passes

    def _run(self, name: str, where: str, pass_fn: Callable, ir, size: Callable) -> None:
        """Run ``pass_fn(ir)``; an enabled profiler gets its span."""
        if not self.profiler.enabled:
            pass_fn(ir)
            return
        before = size(ir)
        t0 = time.perf_counter_ns()
        changes = pass_fn(ir) or 0
        self.profiler.record(
            name,
            category="pass",
            duration_ns=time.perf_counter_ns() - t0,
            meta={
                "function": where,
                "changes": changes,
                "instrs_before": before,
                "instrs_after": size(ir),
            },
        )

    def run_function_pass(
        self, name: str, fn: Function, pass_fn: Callable[[Function], Optional[int]]
    ) -> None:
        self._run(name, fn.name, pass_fn, fn, _function_size)
        if self.validator is not None and name not in PURE_CHECK_PASSES:
            verify_function(fn)
            self.validator.check(name, fn)

    def run_module_pass(
        self, name: str, module: Module, pass_fn: Callable[[Module], Optional[int]]
    ) -> None:
        self._run(name, "<module>", pass_fn, module, _module_size)
        if self.validator is not None:
            # A module pass may rewrite any kernel: re-check all of them.
            for fn in module.kernels():
                verify_function(fn)
            self.validator.check_all(name, module.kernels())

    # -- the default pipeline ------------------------------------------------
    def run_pipeline(self, module: Module, device_id: Optional[int] = None) -> None:
        """Run the full middle-end over every kernel placed at ``device_id``
        (all kernels when ``device_id`` is None), and record that device
        on the module (:meth:`Module.site`)."""
        opts = self.options
        module.compiled_for = device_id
        kernels = [
            f
            for f in module.kernels()
            if device_id is None or f.placed_at(device_id)
        ]

        if opts.verify_passes:
            from repro.analysis.tvalid import PassValidator

            self.validator = PassValidator(module, device_id=device_id)
            for fn in kernels:
                self.validator.prepare(fn)

        # Stage 1: P4-compilable CFG (common to all targets).
        for fn in kernels:
            self.run_function_pass("sroa", fn, scalarize_local_arrays)
            self.run_function_pass("mem2reg", fn, mem2reg)
            self.run_function_pass("simplify", fn, simplify_function)
            if opts.if_conversion:
                self.run_function_pass("if-convert", fn, if_convert)
                self.run_function_pass("simplify-postsel", fn, simplify_function)
            self.run_function_pass("dce", fn, dead_code_elimination)
            self.run_function_pass("simplify2", fn, simplify_function)
            self.run_function_pass("dagcheck", fn, check_dag)

        if opts.is_tofino:
            self._run_tofino_stage(module, kernels)

        if self.validator is not None:
            # "pyexec": the compiled engine (repro.ir.compiled) against the
            # interpreter on the IR devices will run, which is φ-free: code
            # generation eliminates φs, idempotently, so doing it here only
            # moves it earlier (and under validation like any other pass).
            for fn in kernels:
                self.run_function_pass("phi-elim", fn, eliminate_phis)
                self.validator.check_engine(fn)

    def _run_tofino_stage(self, module: Module, kernels: list[Function]) -> None:
        """Stage 2: Tofino specifics."""
        opts = self.options
        if opts.memory_partitioning:
            self.run_module_pass("partition-memory", module, partition_memory)
        if opts.lookup_duplication:
            self.run_module_pass("duplicate-lookups", module, duplicate_lookups)
        for fn in kernels:
            self.run_function_pass("hoist", fn, hoist_common_values)
            if opts.speculation:
                self.run_function_pass("speculate", fn, speculate)
            if opts.intrinsic_conversion:
                self.run_function_pass(
                    "intrinsics",
                    fn,
                    lambda f: convert_intrinsic_patterns(f, hash_bitcasts=opts.hash_bitcasts),
                )
            self.run_function_pass("dce2", fn, dead_code_elimination)
            self.run_function_pass(
                "memcheck",
                fn,
                lambda f: check_memory_constraints(f, distance_threshold=opts.distance_threshold),
            )
