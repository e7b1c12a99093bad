"""Middle-end passes: mem2reg, folding, DCE, if-conversion, DAG check,
memory partitioning/duplication, hoisting, speculation, intrinsic
conversion, structurization, phi elimination."""

import pytest

from repro.ir import GlobalState, IRInterpreter, KernelMessage, verify_function
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    AtomicRMW,
    BinOp,
    Constant,
    ICmpPred,
    Phi,
    Select,
    Store,
)
from repro.lang import analyze, lower_to_ir, parse_source
from repro.lang.errors import CompileError
from repro.passes import (
    PassManager,
    PassOptions,
    check_dag,
    check_memory_constraints,
    MemoryCheckError,
    dead_code_elimination,
    duplicate_lookups,
    eliminate_phis,
    hoist_common_values,
    mem2reg,
    partition_memory,
    simplify_function,
    speculate,
    structurize,
)
from repro.passes.ifconvert import if_convert
from repro.passes.intrinsics import convert_intrinsic_patterns
from repro.passes.structurize import (
    IfNode,
    SeqNode,
    _structurize_regions,
)


def _lower(src):
    return lower_to_ir(analyze(parse_source(src)))


def _count(fn, klass):
    return sum(1 for i in fn.instructions() if isinstance(i, klass))


class TestMem2Reg:
    def test_scalars_promoted(self):
        mod = _lower("_kernel(1) void k(unsigned x, unsigned &r) { unsigned t = x + 1; r = t * 2; }")
        fn = mod.kernels()[0]
        promoted = mem2reg(fn)
        assert promoted >= 2  # t and the by-value copy of x
        scalars = [a for a in fn.instructions() if isinstance(a, Alloca) and a.is_scalar]
        assert not scalars
        verify_function(fn)

    def test_arrays_not_promoted(self):
        mod = _lower("_kernel(1) void k(unsigned x) { unsigned a[4]; a[0] = x; }")
        fn = mod.kernels()[0]
        mem2reg(fn)
        arrays = [a for a in fn.instructions() if isinstance(a, Alloca) and not a.is_scalar]
        assert len(arrays) == 1

    def test_phi_inserted_at_merge(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " unsigned t; if (x > 1) t = 1; else t = 2; r = t; }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        assert _count(fn, Phi) == 1
        verify_function(fn)

    def test_behavior_preserved(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " unsigned t = 0; if (x > 10) t = x; r = t + 1; }"
        )
        for x, expected in ((5, 1), (11, 12)):
            mod = _lower(src)
            fn = mod.kernels()[0]
            mem2reg(fn)
            verify_function(fn)
            msg = KernelMessage({"x": x, "r": 0})
            IRInterpreter(mod, GlobalState()).run_kernel(fn, msg)
            assert msg.fields["r"] == expected


class TestSimplify:
    def test_constant_folding(self):
        fn = _lower("_kernel(1) void k(unsigned &r) { r = 2 * 3 + 4; }").kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert _count(fn, BinOp) == 0

    def test_strength_reduction_mul_to_shift(self):
        fn = _lower("_kernel(1) void k(unsigned x, unsigned &r) { r = x * 8; }").kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        ops = [i.kind.value for i in fn.instructions() if isinstance(i, BinOp)]
        assert ops == ["shl"]

    def test_div_and_rem_by_power_of_two(self):
        fn = _lower(
            "_kernel(1) void k(unsigned x, unsigned &q, unsigned &r) { q = x / 16; r = x % 16; }"
        ).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        ops = sorted(i.kind.value for i in fn.instructions() if isinstance(i, BinOp))
        assert ops == ["and", "lshr"]

    def test_merging_a_block_renames_the_phi_edges_it_fed(self):
        fn = _lower(
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " unsigned t = x; if (x > 1) { if (1 < 2) t = t + 1; } r = t; }"
        ).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        verify_function(fn)  # every phi's incoming blocks are its predecessors
        assert _count(fn, Phi) == 1 and len(fn.blocks) == 3

    def test_constant_branch_folded(self):
        fn = _lower(
            "_kernel(1) void k(unsigned &r) { if (1 < 2) r = 1; else r = 2; }"
        ).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert len(fn.blocks) == 1

    def test_identity_simplifications(self):
        fn = _lower(
            "_kernel(1) void k(unsigned x, unsigned &r) { r = (x + 0) * 1 | 0; }"
        ).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert _count(fn, BinOp) == 0


class TestDCE:
    def test_dead_arithmetic_removed(self):
        fn = _lower(
            "_kernel(1) void k(unsigned x, unsigned &r) { unsigned dead = x * 7; r = x; }"
        ).kernels()[0]
        mem2reg(fn)
        dead_code_elimination(fn)
        assert _count(fn, BinOp) == 0

    def test_atomics_never_removed(self):
        fn = _lower(
            "_net_ unsigned c;\n_kernel(1) void k() { ncl::atomic_inc(&c); }"
        ).kernels()[0]
        mem2reg(fn)
        dead_code_elimination(fn)
        assert _count(fn, AtomicRMW) == 1

    def test_dead_local_array_store_removed(self):
        fn = _lower(
            "_kernel(1) void k(unsigned x) { unsigned a[4]; a[1] = x; }"
        ).kernels()[0]
        mem2reg(fn)
        dead_code_elimination(fn)
        assert _count(fn, Store) == 0 and _count(fn, Alloca) == 0


class TestIfConvert:
    def test_min_pattern_becomes_select(self):
        src = (
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {"
            " unsigned m = a; if (b < m) m = b; r = m; }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        n = if_convert(fn)
        assert n == 1 and _count(fn, Select) == 1
        verify_function(fn)

    def test_behavior_preserved(self):
        src = (
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {"
            " unsigned m = a; if (b < m) m = b; r = m; }"
        )
        for a, b in ((3, 9), (9, 3), (4, 4)):
            mod = _lower(src)
            fn = mod.kernels()[0]
            mem2reg(fn)
            simplify_function(fn)
            if_convert(fn)
            msg = KernelMessage({"a": a, "b": b, "r": 0})
            IRInterpreter(mod, GlobalState()).run_kernel(fn, msg)
            assert msg.fields["r"] == min(a, b)

    def test_side_effecting_arm_not_converted(self):
        src = (
            "_net_ unsigned c;\n"
            "_kernel(1) void k(unsigned x) { if (x > 1) { ncl::atomic_inc(&c); } }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert if_convert(fn) == 0


class TestDagCheck:
    def test_loop_free_passes(self, fig4_module):
        for fn in fig4_module.kernels():
            check_dag(fn)

    def test_cycle_detected(self):
        from repro.ir import IRBuilder
        from repro.ir.module import Function, FunctionKind

        fn = Function("loopy", FunctionKind.KERNEL, [], computation=1)
        b = IRBuilder(fn)
        entry = fn.new_block("entry")
        body = fn.new_block("body")
        b.position_at_end(entry)
        b.jmp(body)
        b.position_at_end(body)
        b.jmp(body)
        with pytest.raises(CompileError, match="not a DAG"):
            check_dag(fn)


class TestMemoryPasses:
    def test_partitioning_splits_constant_outer(self, fig4_module):
        mod = fig4_module
        for fn in mod.kernels():
            mem2reg(fn)
            simplify_function(fn)
        n = partition_memory(mod)
        assert n == 1
        assert "cms.part0" in mod.globals and "cms.part2" in mod.globals

    def test_partitioning_skips_dynamic_outer(self):
        src = (
            "_net_ unsigned m[4][8];\n"
            "_kernel(1) void k(unsigned i, unsigned j, unsigned &r) { r = m[i & 3][j & 7]; }"
        )
        mod = _lower(src)
        for fn in mod.kernels():
            mem2reg(fn)
            simplify_function(fn)
        assert partition_memory(mod) == 0

    def test_duplication_copies_static_lookup(self):
        src = (
            "_net_ _lookup_ unsigned t[] = {1, 2, 3};\n"
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {"
            " if (a > 0) r = ncl::lookup(t, a); else r = ncl::lookup(t, b); }"
        )
        mod = _lower(src)
        for fn in mod.kernels():
            mem2reg(fn)
            simplify_function(fn)
        assert duplicate_lookups(mod) == 2
        assert "t.dup0" in mod.globals and "t.dup1" in mod.globals

    def test_managed_lookup_not_duplicated(self):
        src = (
            "_managed_ _lookup_ ncl::kv<int,int> t[8];\n"
            "_kernel(1) void k(unsigned a, int &r) {"
            " if (a > 0) ncl::lookup(t, 1, r); else ncl::lookup(t, 2, r); }"
        )
        mod = _lower(src)
        for fn in mod.kernels():
            mem2reg(fn)
            simplify_function(fn)
        assert duplicate_lookups(mod) == 0


class TestMemoryChecks:
    def _prep(self, src):
        mod = _lower(src)
        fn = mod.kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        return fn

    def test_paper_mutually_exclusive_valid(self):
        # §V-D kernel 1: valid.
        fn = self._prep(
            "_net_ int m[42];\n"
            "_kernel(1) void b(int x, int &r) { r = (x > 10) ? m[0] : m[1]; }"
        )
        check_memory_constraints(fn)

    def test_paper_same_path_invalid(self):
        # §V-D kernel 2: invalid.
        fn = self._prep(
            "_net_ int m[42];\n"
            "_kernel(2) void a(int x, int &r) { r = m[0] + m[1]; }"
        )
        with pytest.raises(MemoryCheckError, match="more than once"):
            check_memory_constraints(fn)

    def test_reorderable_independent_accesses_valid(self):
        # §V-D example b: orders differ but accesses are independent.
        fn = self._prep(
            "_net_ int m1[42]; _net_ int m2[42];\n"
            "_kernel(2) void b(int x, int &r) {\n"
            "  if (x > 10) { r = m1[0] + m2[x & 31]; }\n"
            "  else        { r = m2[x & 31] + m1[0]; } }"
        )
        check_memory_constraints(fn)

    def test_dependent_reversed_accesses_invalid(self):
        # §V-D example a: cannot be reordered.
        fn = self._prep(
            "_net_ int m1[64]; _net_ int m2[64];\n"
            "_kernel(1) void a(int x, int &r) {\n"
            "  int t;\n"
            "  if (x > 10) { t = m1[0]; t = m2[t & 63]; }\n"
            "  else        { t = m2[0]; t = m1[t & 63]; }\n"
            "  r = t; }"
        )
        with pytest.raises(MemoryCheckError, match="reorder"):
            check_memory_constraints(fn)

    def test_distance_threshold(self):
        src = (
            "_net_ int m[4];\n"
            "_kernel(1) void k(int a, int b, int c, int d, int &r) {\n"
            "  if (a > 0) { r = m[0]; }\n"
            "  else if (b > 0) { if (c > 0) { if (d > 0) { if (a < b) { r = m[1]; } } } } }"
        )
        fn = self._prep(src)
        with pytest.raises(MemoryCheckError, match="branches apart"):
            check_memory_constraints(fn, distance_threshold=1)
        check_memory_constraints(fn, distance_threshold=10)


class TestHoistSpeculate:
    def test_common_value_dedup(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &a, unsigned &b) {"
            " if (x > 1) a = x * 3 + 1; else b = x * 3 + 1; }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        before = _count(fn, BinOp)
        hoist_common_values(fn)
        dead_code_elimination(fn)
        assert _count(fn, BinOp) < before
        verify_function(fn)

    def test_speculation_moves_pure_ops_to_entry(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " if (x > 1) { r = ncl::crc16(x); } }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        moved = speculate(fn)
        assert moved >= 1
        verify_function(fn)

    def test_division_never_speculated(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned y, unsigned &r) {"
            " if (y != 0) { r = x / y; } }"
        )
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        speculate(fn)
        divs_in_entry = [
            i for i in fn.entry.instructions if isinstance(i, BinOp) and i.kind.value == "udiv"
        ]
        assert not divs_in_entry


class TestIntrinsicConversion:
    def test_dynamic_ult_converted(self):
        src = "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) { r = a < b ? 1 : 0; }"
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        n = convert_intrinsic_patterns(fn)
        assert n >= 1
        # behavior preserved across the boundary cases
        for a, b in ((0, 0), (1, 2), (2, 1), (0xFFFFFFFF, 0), (0, 0xFFFFFFFF)):
            mod = _lower(src)
            f = mod.kernels()[0]
            mem2reg(f)
            simplify_function(f)
            convert_intrinsic_patterns(f)
            msg = KernelMessage({"a": a, "b": b, "r": 9})
            IRInterpreter(mod, GlobalState()).run_kernel(f, msg)
            assert msg.fields["r"] == (1 if a < b else 0), (a, b)

    def test_signed_compare_converted_correctly(self):
        src = "_kernel(1) void k(int a, int b, unsigned &r) { r = a < b ? 1 : 0; }"
        for a, b in ((0, 1), (1, 0), (0xFFFFFFFF, 1), (1, 0xFFFFFFFF)):
            mod = _lower(src)
            f = mod.kernels()[0]
            mem2reg(f)
            simplify_function(f)
            convert_intrinsic_patterns(f)
            sa = a - (1 << 32) if a >> 31 else a
            sb = b - (1 << 32) if b >> 31 else b
            msg = KernelMessage({"a": a, "b": b, "r": 9})
            IRInterpreter(mod, GlobalState()).run_kernel(f, msg)
            assert msg.fields["r"] == (1 if sa < sb else 0), (a, b)

    def test_constant_compares_untouched(self):
        src = "_kernel(1) void k(unsigned a, unsigned &r) { r = a < 7 ? 1 : 0; }"
        fn = _lower(src).kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        assert convert_intrinsic_patterns(fn) == 0


class TestStructurize:
    def _tree(self, src):
        mod = _lower(src)
        fn = mod.kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        eliminate_phis(fn)
        return _structurize_regions(fn)

    def test_straight_line(self):
        tree = self._tree("_kernel(1) void k(unsigned &r) { r = 1; }")
        assert isinstance(tree, SeqNode)

    def test_nested_ifs(self):
        tree = self._tree(
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " if (x > 1) { if (x > 2) r = 2; else r = 1; } }"
        )
        ifs = [i for i in tree.items if isinstance(i, IfNode)]
        assert len(ifs) == 1

    def test_early_return_arms(self):
        tree = self._tree(
            "_kernel(1) void k(unsigned x) {"
            " if (x == 1) return ncl::drop();"
            " if (x == 2) return ncl::reflect(); }"
        )
        assert isinstance(tree, SeqNode)

    def test_early_escape_to_outer_merge(self):
        # The AGG shape: a branch whose arms return while a sibling chain
        # falls through to an outer sink.
        tree = self._tree(
            "_kernel(1) void k(unsigned x, unsigned &r) {\n"
            "  if (x > 0) {\n"
            "    if (x == 1) return ncl::reflect();\n"
            "    if (x == 2) return ncl::multicast(4);\n"
            "  }\n"
            "  r = 7;\n"
            "  return ncl::drop(); }"
        )
        assert isinstance(tree, SeqNode)

    def test_fallback_predicates_for_unstructured(self):
        # Hand-build an unstructured CFG (arm jumps past a merge).
        from repro.ir import IRBuilder
        from repro.ir.instructions import Constant, ICmpPred
        from repro.ir.module import Argument, Function, FunctionKind
        from repro.ir.types import U32

        fn = Function("u", FunctionKind.KERNEL, [Argument("x", U32)], computation=1)
        b = IRBuilder(fn)
        entry = fn.new_block("entry")
        m1 = fn.new_block("m1")
        m2 = fn.new_block("m2")
        side = fn.new_block("side")
        b.position_at_end(entry)
        c = b.icmp(ICmpPred.EQ, fn.args[0], Constant(U32, 0))
        b.br(c, side, m1)
        b.position_at_end(side)
        c2 = b.icmp(ICmpPred.EQ, fn.args[0], Constant(U32, 1))
        b.br(c2, m1, m2)
        b.position_at_end(m1)
        b.jmp(m2)
        b.position_at_end(m2)
        b.ret_action(ActionKind.PASS)
        tree = structurize(fn)  # falls back, must not raise
        assert isinstance(tree, SeqNode)

    def test_mis_structured_tree_is_caught(self, monkeypatch):
        """A tree whose branch arms are swapped fails the check against
        the CFG, and the kernel falls back to predicates."""
        import importlib

        from repro.passes.structurize import PredDecls, StructurizeError

        structurize_mod = importlib.import_module("repro.passes.structurize")

        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " if (x > 1) r = 2; else r = 1; }"
        )

        def prepared():
            fn = _lower(src).kernels()[0]
            mem2reg(fn)
            simplify_function(fn)
            eliminate_phis(fn)
            return fn

        tree = _structurize_regions(prepared())
        assert any(isinstance(i, IfNode) for i in tree.items)

        class Flipped(IfNode):
            def __init__(self, cond, then, els, negate=False):
                super().__init__(cond, then, els, not negate)

        monkeypatch.setattr(structurize_mod, "IfNode", Flipped)
        with pytest.raises(StructurizeError, match="tree verification failed"):
            _structurize_regions(prepared())
        tree = structurize(prepared())
        assert isinstance(tree.items[0], PredDecls)


class TestPhiElim:
    def test_phis_replaced_by_slots(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " unsigned t; if (x > 1) t = 1; else t = 2; r = t; }"
        )
        mod = _lower(src)
        fn = mod.kernels()[0]
        mem2reg(fn)
        assert _count(fn, Phi) == 1
        n = eliminate_phis(fn)
        assert n == 1 and _count(fn, Phi) == 0
        verify_function(fn)
        msg = KernelMessage({"x": 5, "r": 0})
        IRInterpreter(mod, GlobalState()).run_kernel(fn, msg)
        assert msg.fields["r"] == 1


class TestFullPipeline:
    def test_fig4_behavior_after_all_passes(self, fig4_module):
        PassManager(PassOptions()).run_pipeline(fig4_module)
        fn = fig4_module.functions["query"]
        interp = IRInterpreter(fig4_module, GlobalState(), device_id=1)
        msg = KernelMessage({"op": 1, "k": 3, "v": 0, "hit": 0, "hot": 0})
        out = interp.run_kernel(fn, msg)
        assert out.kind == ActionKind.REFLECT and msg.fields["v"] == 42

    def test_pipeline_records_pass_stats(self, fig4_module):
        from repro.telemetry import Profiler

        prof = Profiler()
        PassManager(PassOptions(), profiler=prof).run_pipeline(fig4_module)
        names = {sp.name for sp in prof.passes()}
        assert {"mem2reg", "simplify", "dce", "memcheck"} <= names
        for sp in prof.passes():
            assert set(sp.meta) == {"function", "changes", "instrs_before", "instrs_after"}


class TestDagCheckDeep:
    """Regression: check_dag walks the CFG iteratively and survives graphs
    far deeper than Python's recursion limit (the old recursive DFS blew
    up with RecursionError on long unrolled kernels)."""

    def _chain(self, n, *, close_cycle=False):
        from repro.ir import IRBuilder
        from repro.ir.module import Function, FunctionKind

        fn = Function("deep", FunctionKind.KERNEL, [], computation=1)
        b = IRBuilder(fn)
        blocks = [fn.new_block(f"b{i}") for i in range(n)]
        for i in range(n - 1):
            b.position_at_end(blocks[i])
            b.jmp(blocks[i + 1])
        b.position_at_end(blocks[-1])
        if close_cycle:
            b.jmp(blocks[0])
        else:
            b.ret_action(ActionKind.PASS)
        return fn

    def test_deep_linear_chain_passes(self):
        import sys

        from repro.ir.dominators import reverse_postorder

        fn = self._chain(sys.getrecursionlimit() * 3)
        check_dag(fn)
        assert reverse_postorder(fn) == fn.blocks  # the shared orderings too

    def test_cycle_at_end_of_deep_chain_detected(self):
        import sys

        with pytest.raises(CompileError, match="not a DAG"):
            check_dag(
                self._chain(sys.getrecursionlimit() * 3, close_cycle=True)
            )

    def test_engine_mode_collects_instead_of_raising(self):
        from repro.analysis import DiagnosticEngine

        engine = DiagnosticEngine()
        check_dag(self._chain(8, close_cycle=True), engine=engine)
        assert [d.code for d in engine.diagnostics] == ["NCL101"]
        assert engine.errors


class TestMemcheckDiagnostics:
    """MemoryCheckError carries structured diagnostics anchored at the
    source location of the offending accesses (previously the locations
    were lost in a flat message string)."""

    def _prep(self, src):
        mod = _lower(src)
        fn = mod.kernels()[0]
        mem2reg(fn)
        simplify_function(fn)
        return fn

    SAME_PATH = (
        "_net_ int m[42];\n"
        "_kernel(2) void a(int x, int &r) {\n"
        "  r = m[0] + m[1]; }"
    )

    def test_diagnostics_carry_source_locations(self):
        fn = self._prep(self.SAME_PATH)
        with pytest.raises(MemoryCheckError) as exc:
            check_memory_constraints(fn)
        diags = exc.value.diagnostics
        assert diags, "expected at least one diagnostic"
        for d in diags:
            assert d.code == "NCL102"
            assert d.line == 3, f"diagnostic lost its location: {d}"
            assert d.col > 0

    def test_ordering_violation_located(self):
        fn = self._prep(
            "_net_ int m1[64]; _net_ int m2[64];\n"
            "_kernel(1) void a(int x, int &r) {\n"
            "  int t;\n"
            "  if (x > 10) { t = m1[0]; t = m2[t & 63]; }\n"
            "  else        { t = m2[0]; t = m1[t & 63]; }\n"
            "  r = t; }"
        )
        with pytest.raises(MemoryCheckError) as exc:
            check_memory_constraints(fn)
        assert any(
            d.code == "NCL104" and d.line in (4, 5) for d in exc.value.diagnostics
        )

    def test_engine_mode_collects_instead_of_raising(self):
        from repro.analysis import DiagnosticEngine

        fn = self._prep(self.SAME_PATH)
        engine = DiagnosticEngine()
        check_memory_constraints(fn, engine=engine)  # must not raise
        assert [d.code for d in engine.diagnostics] == ["NCL102"]
        assert engine.errors
