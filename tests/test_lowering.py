"""AST -> IR lowering: unrolling, inlining, actions, argument ABI."""

import pytest

from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.ir.instructions import ActionKind, Intrinsic
from repro.lang import analyze, lower_to_ir, parse_source
from repro.lang.errors import CompileError


def lower(src):
    return lower_to_ir(analyze(parse_source(src)))


def run(src, fields, device_id=0):
    mod = lower(src)
    fn = mod.kernels()[0]
    msg = KernelMessage(dict(fields))
    out = IRInterpreter(mod, GlobalState(), device_id=device_id).run_kernel(fn, msg)
    return out, msg, mod


class TestCompoundAssignment:
    def test_each_operator_applies_to_the_old_value(self):
        _, msg, _ = run(
            "_kernel(1) void k(unsigned x, unsigned &r) {"
            " r = 6; r += x; r <<= 2; r -= 1; r >>= 1; r ^= 3; r |= 32; r &= 60; }",
            {"x": 4, "r": 0},
        )
        assert msg.fields["r"] == ((((6 + 4) << 2) - 1 >> 1 ^ 3) | 32) & 60


class TestLoopUnrolling:
    def test_simple_unroll(self):
        out, msg, _ = run(
            "_kernel(1) void k(unsigned &s) { s = 0; for (auto i = 0; i < 5; ++i) s = s + i; }",
            {"s": 0},
        )
        assert msg.fields["s"] == 10

    def test_macro_bound_unroll(self):
        out, msg, _ = run(
            "#define N 4\n_kernel(1) void k(unsigned v[N]) { for (auto i = 0; i < N; ++i) v[i] = i * i; }",
            {"v": [0] * 4},
        )
        assert msg.fields["v"] == [0, 1, 4, 9]

    def test_nested_unroll_with_outer_var_in_bound(self):
        src = (
            "_kernel(1) void k(unsigned &s) { s = 0;\n"
            "  for (auto i = 0; i < 3; ++i)\n"
            "    for (auto j = 0; j < i + 1; ++j) s = s + 1; }"
        )
        out, msg, _ = run(src, {"s": 0})
        assert msg.fields["s"] == 1 + 2 + 3

    def test_step_and_downward_loops(self):
        out, msg, _ = run(
            "_kernel(1) void k(unsigned &s) { s = 0; for (auto i = 10; i > 0; i -= 3) s = s + i; }",
            {"s": 0},
        )
        assert msg.fields["s"] == 10 + 7 + 4 + 1

    def test_dynamic_bound_rejected(self):
        with pytest.raises(CompileError, match="fully-unrollable"):
            lower("_kernel(1) void k(unsigned n, unsigned &s) { for (auto i = 0; i < n; ++i) s = i; }")

    def test_unroll_limit(self):
        with pytest.raises(CompileError, match="unroll limit"):
            lower("_kernel(1) void k(unsigned &s) { for (auto i = 0; i < 100000; ++i) s = i; }")

    def test_assignment_to_induction_var_rejected(self):
        with pytest.raises(CompileError, match="unrolled loop variable"):
            lower("_kernel(1) void k() { for (auto i = 0; i < 4; ++i) i = 0; }")

    @pytest.mark.parametrize(
        "bound", ["4 + -1", "4 - 1", "-(-3)", "~-4", "(1 << 2 >> 1 | 1)", "6 / 2", "7 % 4", "!0 + 2"]
    )
    def test_constant_bound_with_any_operand_unrolls(self, bound):
        # every bound equals 3: a negative operand in one operator must not
        # stop the others from folding (4 << -1 has no value, 4 + -1 does)
        _, msg, _ = run(
            f"_kernel(1) void k(unsigned &s) {{ s = 0; for (auto i = 0; i < {bound}; ++i) s = s + 1; }}",
            {"s": 0},
        )
        assert msg.fields["s"] == 3

    def test_no_loop_instructions_remain(self):
        mod = lower(
            "_kernel(1) void k(unsigned v[4]) { for (auto i = 0; i < 4; ++i) v[i] = 1; }"
        )
        from repro.passes import check_dag

        check_dag(mod.kernels()[0])  # no back edges exist at all


class TestNetFunctionInlining:
    def test_value_and_reference_args(self):
        src = (
            "_net_ void helper(unsigned x, unsigned &out) { out = x * 2; }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { helper(a + 1, r); }"
        )
        out, msg, _ = run(src, {"a": 20, "r": 0})
        assert msg.fields["r"] == 42

    def test_return_value(self):
        src = (
            "_net_ unsigned sq(unsigned x) { return x * x; }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { r = sq(a) + sq(2); }"
        )
        out, msg, _ = run(src, {"a": 3, "r": 0})
        assert msg.fields["r"] == 13

    def test_early_returns_in_callee(self):
        src = (
            "_net_ unsigned clamp(unsigned x) {\n"
            "  if (x > 100) return 100;\n"
            "  if (x < 10) return 10;\n"
            "  return x; }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { r = clamp(a); }"
        )
        for a, expected in ((5, 10), (50, 50), (500, 100)):
            out, msg, _ = run(src, {"a": a, "r": 0})
            assert msg.fields["r"] == expected, a

    def test_array_argument_aliases_message(self):
        src = (
            "_net_ void dbl(unsigned *v) { for (auto i = 0; i < 3; ++i) v[i] = v[i] * 2; }\n"
            "_kernel(1) void k(unsigned _spec(3) *v) { dbl(v); }"
        )
        out, msg, _ = run(src, {"v": [1, 2, 3]})
        assert msg.fields["v"] == [2, 4, 6]

    def test_nested_inlining(self):
        src = (
            "_net_ unsigned inc(unsigned x) { return x + 1; }\n"
            "_net_ unsigned inc2(unsigned x) { return inc(inc(x)); }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { r = inc2(a); }"
        )
        out, msg, _ = run(src, {"a": 40, "r": 0})
        assert msg.fields["r"] == 42

    def test_action_return_inside_netfn_ends_kernel(self):
        src = (
            "_net_ void bail(unsigned x) { if (x == 0) return ncl::drop(); }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { bail(a); r = 1; }"
        )
        out, msg, _ = run(src, {"a": 0, "r": 0})
        assert out.kind == ActionKind.DROP and msg.fields["r"] == 0
        out2, msg2, _ = run(src, {"a": 5, "r": 0})
        assert out2.kind == ActionKind.PASS and msg2.fields["r"] == 1

    def test_no_call_instructions_remain(self):
        src = (
            "_net_ unsigned f(unsigned x) { return x; }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { r = f(a); }"
        )
        mod = lower(src)
        # net functions are inlined, never lowered on their own
        assert list(mod.functions) == ["k"]

    def test_callee_scope_isolated_from_caller(self):
        src = (
            "_net_ unsigned f(unsigned x) { unsigned t = x + 1; return t; }\n"
            "_kernel(1) void k(unsigned a, unsigned &r) { unsigned t = 100; r = f(a) + t; }"
        )
        out, msg, _ = run(src, {"a": 1, "r": 0})
        assert msg.fields["r"] == 102


class TestActions:
    def test_action_outside_return_rejected(self):
        with pytest.raises(CompileError, match="return statements"):
            lower("_kernel(1) void k() { ncl::drop(); }")

    def test_ternary_action_return(self):
        src = "_kernel(1) void k(unsigned a) { return a > 5 ? ncl::drop() : ncl::reflect(); }"
        out, _, _ = run(src, {"a": 9})
        assert out.kind == ActionKind.DROP
        out2, _, _ = run(src, {"a": 1})
        assert out2.kind == ActionKind.REFLECT

    def test_plain_return_is_pass(self):
        out, _, _ = run("_kernel(1) void k(unsigned a) { if (a) return; }", {"a": 1})
        assert out.kind == ActionKind.PASS

    def test_target_actions_take_expressions(self):
        src = "_kernel(1) void k(unsigned d) { return ncl::send_to_device(d + 1); }"
        out, _, _ = run(src, {"d": 6})
        assert out.kind == ActionKind.SEND_TO_DEVICE and out.target == 7

    def test_multicast_requires_argument(self):
        with pytest.raises(CompileError, match="exactly one argument"):
            lower("_kernel(1) void k() { return ncl::multicast(); }")


class TestArgumentAbi:
    def test_specifications_reported(self):
        mod = lower(
            "_kernel(4) void d(int x, int y[2], int _spec(3) *z) { }"
        )
        fn = mod.kernels()[0]
        assert [(a.spec, str(a.type)) for a in fn.args] == [(1, "i32"), (2, "i32"), (3, "i32")]

    def test_msg_builtin_fields(self):
        src = "_kernel(1) void k(unsigned &a, unsigned &b) { a = msg.src; b = msg.to; }"
        mod = lower(src)
        fn = mod.kernels()[0]
        msg = KernelMessage({"a": 0, "b": 0, "__src": 11, "__dst": 2, "__from": 3, "__to": 4})
        IRInterpreter(mod, GlobalState()).run_kernel(fn, msg)
        assert msg.fields["a"] == 11 and msg.fields["b"] == 4

    def test_device_id_spmd_branching(self):
        src = (
            "_kernel(1) void k(unsigned &r) {\n"
            "  if (device.id == 1) r = 100; else r = 200; }"
        )
        for dev, expected in ((1, 100), (7, 200)):
            out, msg, _ = run(src, {"r": 0}, device_id=dev)
            assert msg.fields["r"] == expected

    def test_local_array_initializer(self):
        src = (
            "_kernel(1) void k(unsigned &r) {\n"
            "  unsigned lut[4] = {10, 20, 30, 40};\n"
            "  r = lut[2]; }"
        )
        out, msg, _ = run(src, {"r": 0})
        assert msg.fields["r"] == 30

    def test_atomics_with_explicit_and_implicit_address(self):
        # Fig. 7 passes Agg[i][idx] without '&'; both forms are accepted.
        src = (
            "_net_ unsigned m[4];\n"
            "_kernel(1) void k(unsigned &a, unsigned &b) {\n"
            "  a = ncl::atomic_add_new(&m[0], 5);\n"
            "  b = ncl::atomic_add_new(m[1], 7); }"
        )
        out, msg, _ = run(src, {"a": 0, "b": 0})
        assert msg.fields["a"] == 5 and msg.fields["b"] == 7

    def test_atomic_on_local_rejected(self):
        with pytest.raises(CompileError, match="global device memory"):
            lower("_kernel(1) void k() { unsigned x; ncl::atomic_inc(&x); }")

    def test_lookup_on_register_memory_rejected(self):
        with pytest.raises(CompileError, match="not _lookup_"):
            lower("_net_ unsigned m[4];\n_kernel(1) void k(unsigned x) { ncl::lookup(m, x); }")

    def test_indexing_lookup_memory_rejected(self):
        with pytest.raises(CompileError, match="searched, not indexed"):
            lower(
                "_net_ _lookup_ unsigned t[] = {1,2};\n"
                "_kernel(1) void k(unsigned &r) { r = t[0]; }"
            )

    def test_set_lookup_three_arg_rejected(self):
        with pytest.raises(CompileError, match="no value"):
            lower(
                "_net_ _lookup_ unsigned t[] = {1,2};\n"
                "_kernel(1) void k(unsigned x, unsigned &v) { ncl::lookup(t, x, v); }"
            )

    def test_rand_requires_template_type(self):
        with pytest.raises(CompileError, match="template argument"):
            lower("_kernel(1) void k(unsigned &r) { r = ncl::rand(); }")
        mod = lower("_kernel(1) void k(unsigned &r) { r = ncl::rand<u8>(); }")
        intr = [i for i in mod.kernels()[0].instructions() if isinstance(i, Intrinsic)]
        assert intr and intr[0].type.width == 8
