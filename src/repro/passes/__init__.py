"""NetCL middle-end passes (§VI-B of the paper).

The pipeline mirrors the paper's backend structure:

1. **P4-compilable CFG** (all targets): mem2reg (SSA construction),
   constant folding, peephole/instsimplify, DCE, CFG simplification, and
   the CFG-is-a-DAG check.  Reaching the end of this stage guarantees the
   program compiles for the v1model target.
2. **Tofino specifics**: memory partitioning, lookup duplication, the
   mutual-exclusion + branch-distance check, the cross-path access-order
   check, hoisting and aggressive speculation, and intrinsic pattern
   conversion.
3. **Code generation prep**: CFG structurization and φ-elimination.

Net-function inlining and full loop unrolling happen during AST lowering
(:mod:`repro.lang.lower`), so IR entering the pipeline is call-free and
loop-free by construction; the DAG check still guards it.
"""

from repro.passes.manager import PassManager, PassOptions
from repro.passes.mem2reg import mem2reg
from repro.passes.simplify import simplify_function, fold_constants, simplify_cfg
from repro.passes.dce import dead_code_elimination
from repro.passes.dagcheck import check_dag
from repro.passes.memopt import partition_memory, duplicate_lookups
from repro.passes.memcheck import check_memory_constraints, MemoryCheckError
from repro.passes.hoist import hoist_common_values, speculate
from repro.passes.intrinsics import convert_intrinsic_patterns
from repro.passes.structurize import structurize, StructuredNode, SeqNode, IfNode, LeafNode
from repro.passes.phielim import eliminate_phis
from repro.passes.sroa import scalarize_local_arrays

__all__ = [
    "PassManager",
    "PassOptions",
    "mem2reg",
    "simplify_function",
    "fold_constants",
    "simplify_cfg",
    "dead_code_elimination",
    "check_dag",
    "partition_memory",
    "duplicate_lookups",
    "check_memory_constraints",
    "MemoryCheckError",
    "hoist_common_values",
    "speculate",
    "convert_intrinsic_patterns",
    "structurize",
    "StructuredNode",
    "SeqNode",
    "IfNode",
    "LeafNode",
    "eliminate_phis",
    "scalarize_local_arrays",
]
