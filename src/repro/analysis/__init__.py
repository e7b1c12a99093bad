"""Static analysis for NetCL programs (``ncc lint``).

The package layers three facilities on top of the IR:

* :mod:`repro.analysis.dataflow` — a reusable forward/backward worklist
  dataflow framework (gen/kill lattices over basic blocks).
* :mod:`repro.analysis.lints` — the lint suite: uninitialized reads,
  cross-kernel shared-state hazards, dead stores, width truncation and
  unreachable code.  Resource overflow (NCL007) is not estimated here:
  ``ncc lint`` compiles every placed device and reports the fitter's
  verdict.
* :mod:`repro.analysis.absint` — value-range/known-bits abstract
  interpretation over the IR (interval domain with wrap-around widths
  and branch-condition refinement); powers NCL005/NCL008-NCL010 and the
  boundary-value miner of the translation validator.
* :mod:`repro.analysis.tvalid` — translation validation: differential
  concrete execution of every kernel against its pre-pipeline behavior
  after each middle-end pass (``ncc verify`` / ``ncc --verify-passes``).
* :mod:`repro.analysis.diagnostics` — the :class:`DiagnosticEngine`
  that collects ``NCLxxx``-coded warnings instead of raising, with
  ``--Werror`` / ``-Wno-<code>`` handling and text/JSON renderers.

:func:`repro.analysis.lint.lint_source` is the one-call entry point used
by ``ncc lint``; :func:`repro.analysis.lint.run_lints` is the driver's
opt-in analysis phase.
"""

from repro.analysis.absint import Interval, RangeAnalysis
from repro.analysis.diagnostics import (
    CODES,
    SCHEMA_VERSION,
    DiagnosticEngine,
    Severity,
)
from repro.analysis.dataflow import (
    DataflowAnalysis,
    Direction,
    GenKillAnalysis,
)
from repro.analysis.lint import lint_source, run_lints
from repro.analysis.tvalid import (
    PassValidator,
    TranslationValidationError,
    generate_vectors,
)

__all__ = [
    "CODES",
    "SCHEMA_VERSION",
    "DiagnosticEngine",
    "Severity",
    "DataflowAnalysis",
    "Direction",
    "GenKillAnalysis",
    "Interval",
    "PassValidator",
    "RangeAnalysis",
    "TranslationValidationError",
    "generate_vectors",
    "lint_source",
    "run_lints",
]
