"""SROA: scalarization of constant-indexed local arrays."""


from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.ir.instructions import Alloca
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import mem2reg, scalarize_local_arrays, simplify_function


def _lower(src):
    return lower_to_ir(analyze(parse_source(src)))


def _arrays(fn):
    return [a for a in fn.instructions() if isinstance(a, Alloca) and not a.is_scalar]


class TestSroa:
    def test_constant_indexed_array_scalarized(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {\n"
            "  unsigned c[3];\n"
            "  for (auto i = 0; i < 3; ++i) c[i] = x + i;\n"
            "  r = c[0] + c[2]; }"
        )
        fn = _lower(src).kernels()[0]
        assert scalarize_local_arrays(fn) == 1
        assert not _arrays(fn)
        # after mem2reg nothing is left in memory at all
        mem2reg(fn)
        assert not any(isinstance(i, Alloca) for i in fn.instructions())

    def test_dynamic_index_blocks_scalarization(self):
        src = (
            "_kernel(1) void k(unsigned i, unsigned &r) {\n"
            "  unsigned c[4];\n"
            "  c[i & 3] = 7;\n"
            "  r = c[0]; }"
        )
        fn = _lower(src).kernels()[0]
        assert scalarize_local_arrays(fn) == 0
        assert len(_arrays(fn)) == 1

    def test_behavior_preserved(self):
        src = (
            "_kernel(1) void k(unsigned x, unsigned &r) {\n"
            "  unsigned c[4] = {1, 2, 3, 4};\n"
            "  c[2] = c[2] * x;\n"
            "  r = c[0] + c[1] + c[2] + c[3]; }"
        )
        for x in (0, 1, 10):
            mod = _lower(src)
            fn = mod.kernels()[0]
            scalarize_local_arrays(fn)
            mem2reg(fn)
            simplify_function(fn)
            msg = KernelMessage({"x": x, "r": 0})
            IRInterpreter(mod, GlobalState()).run_kernel(fn, msg)
            assert msg.fields["r"] == 1 + 2 + 3 * x + 4

    def test_fig4_min_chain_becomes_selects(self, fig4_module):
        """With SROA, Fig. 4's c[CMS_HASHES] min chain if-converts into
        selects (no gateway diamonds remain on the sketch path)."""
        from repro.passes import PassManager, PassOptions
        from repro.ir.instructions import Select

        PassManager(PassOptions()).run_pipeline(fig4_module)
        fn = fig4_module.functions["query"]
        assert any(isinstance(i, Select) for i in fn.instructions())

    def test_huge_arrays_left_alone(self):
        src = (
            "_kernel(1) void k(unsigned &r) {\n"
            "  unsigned big[300];\n"
            "  big[0] = 1;\n"
            "  r = big[0]; }"
        )
        fn = _lower(src).kernels()[0]
        assert scalarize_local_arrays(fn) == 0
