"""Unit tests for the IR: types, instructions, builder, verifier,
dominators."""

import pytest

from repro.ir import (
    Action,
    ActionKind,
    ArrayShape,
    DominatorTree,
    Function,
    IRBuilder,
    IRVerifyError,
    IntType,
    U16,
    U32,
    U8,
    reverse_postorder,
    verify_function,
)
from repro.ir.instructions import (
    BinOp,
    BinOpKind,
    Constant,
    ICmpPred,
    Phi,
    Ret,
)
from repro.ir.module import Argument, FunctionKind, replace_uses


class TestIntType:
    def test_mask_and_range(self):
        assert U8.mask == 0xFF
        i8 = IntType(8, signed=True)
        assert i8.mask == 0xFF and i8.wrap(127) == 127 and i8.wrap(-128) == -128

    def test_wrap_unsigned(self):
        assert U8.wrap(256) == 0
        assert U8.wrap(-1) == 255

    def test_wrap_signed(self):
        i8 = IntType(8, signed=True)
        assert i8.wrap(128) == -128
        assert i8.wrap(255) == -1

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IntType(0)
        with pytest.raises(ValueError):
            IntType(65)

    def test_odd_widths_allowed(self):
        t33 = IntType(33)
        assert t33.mask == (1 << 33) - 1


class TestArrayShape:
    def test_num_elements(self):
        assert ArrayShape((3, 65536)).num_elements == 3 * 65536
        assert ArrayShape().num_elements == 1

    def test_drop_outer(self):
        assert ArrayShape((3, 4)).drop_outer() == ArrayShape((4,))

    def test_scalar_drop_rejected(self):
        with pytest.raises(ValueError):
            ArrayShape().drop_outer()

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            ArrayShape((0,))


def _simple_fn() -> tuple[Function, IRBuilder]:
    fn = Function("f", FunctionKind.KERNEL, [Argument("x", U32)], computation=1)
    b = IRBuilder(fn)
    b.position_at_end(fn.new_block("entry"))
    return fn, b


class TestBuilderAndVerifier:
    def test_diamond_verifies(self):
        fn, b = _simple_fn()
        x = fn.args[0]
        cmp = b.icmp(ICmpPred.UGT, x, Constant(U32, 10))
        then_ = b.new_block("then")
        else_ = b.new_block("else")
        merge = b.new_block("merge")
        b.br(cmp, then_, else_)
        b.position_at_end(then_)
        t = b.binop(BinOpKind.ADD, x, Constant(U32, 1))
        b.jmp(merge)
        b.position_at_end(else_)
        e = b.binop(BinOpKind.SUB, x, Constant(U32, 1))
        b.jmp(merge)
        b.position_at_end(merge)
        phi = merge.insert(0, Phi(U32))
        phi.add_incoming(t, then_)
        phi.add_incoming(e, else_)
        b.ret_action(ActionKind.PASS)
        verify_function(fn)

    def test_unterminated_block_rejected(self):
        fn, b = _simple_fn()
        b.binop(BinOpKind.ADD, fn.args[0], Constant(U32, 1))
        with pytest.raises(IRVerifyError, match="not terminated"):
            verify_function(fn)

    def test_type_mismatch_rejected(self):
        fn, b = _simple_fn()
        bad = BinOp(BinOpKind.ADD, fn.args[0], Constant(U8, 1))
        fn.entry.append(bad)
        fn.entry.append(Ret(Action(ActionKind.DROP)))
        with pytest.raises(IRVerifyError, match="type mismatch"):
            verify_function(fn)

    def test_use_before_def_rejected(self):
        fn, b = _simple_fn()
        add1 = BinOp(BinOpKind.ADD, fn.args[0], fn.args[0])
        add2 = BinOp(BinOpKind.ADD, add1, add1)
        fn.entry.append(add2)  # add2 placed before add1
        fn.entry.append(add1)
        fn.entry.append(Ret(Action(ActionKind.DROP)))
        with pytest.raises(IRVerifyError, match="before definition"):
            verify_function(fn)

    def test_non_dominating_use_rejected(self):
        fn, b = _simple_fn()
        x = fn.args[0]
        cmp = b.icmp(ICmpPred.EQ, x, Constant(U32, 0))
        then_ = b.new_block("then")
        merge = b.new_block("merge")
        b.br(cmp, then_, merge)
        b.position_at_end(then_)
        t = b.binop(BinOpKind.ADD, x, Constant(U32, 1))
        b.jmp(merge)
        b.position_at_end(merge)
        b.binop(BinOpKind.ADD, t, Constant(U32, 1))  # t does not dominate merge
        b.ret_action(ActionKind.PASS)
        with pytest.raises(IRVerifyError, match="non-dominating"):
            verify_function(fn)

    def test_a_stale_phi_is_named_with_its_incoming_pairs(self):
        fn, b = _simple_fn()
        merge = b.new_block("merge")
        b.jmp(merge)
        b.position_at_end(merge)
        phi = merge.insert(0, Phi(U32, "p"))
        phi.add_incoming(fn.args[0], fn.entry)
        b.ret_action(ActionKind.PASS)
        verify_function(fn)
        phi.parent = fn.entry
        with pytest.raises(IRVerifyError, match=r"%p = phi \[%x, entry\] has stale parent"):
            verify_function(fn)

    def test_replace_uses_rewrites_local_and_message_indices(self):
        fn, b = _simple_fn()
        x = fn.args[0]
        load = b.load(b.alloca(U32, ArrayShape((4,))), [x])
        msg = b.load_msg("y", U32, x)
        b.ret_action(ActionKind.PASS)
        one, two = Constant(U32, 1), Constant(U32, 2)
        # a replacement that is itself replaced is followed to its end
        replace_uses(fn, {x: one, one: two})
        assert load.indices == [two] and msg.index is two

    def test_action_requires_target(self):
        with pytest.raises(ValueError):
            Action(ActionKind.SEND_TO_HOST)
        with pytest.raises(ValueError):
            Action(ActionKind.DROP, Constant(U16, 1))

    def test_coerce_widths(self):
        fn, b = _simple_fn()
        x = fn.args[0]
        narrowed = b.coerce(x, U8)
        widened = b.coerce(narrowed, U32)
        same = b.coerce(x, U32)
        assert narrowed.type == U8 and widened.type == U32 and same is x
        b.ret_action(ActionKind.PASS)
        verify_function(fn)


class TestDominators:
    def _diamond(self):
        fn, b = _simple_fn()
        x = fn.args[0]
        cmp = b.icmp(ICmpPred.EQ, x, Constant(U32, 0))
        then_ = b.new_block("then")
        else_ = b.new_block("else")
        merge = b.new_block("merge")
        b.br(cmp, then_, else_)
        for arm in (then_, else_):
            b.position_at_end(arm)
            b.jmp(merge)
        b.position_at_end(merge)
        b.ret_action(ActionKind.PASS)
        return fn, then_, else_, merge

    def test_rpo_starts_at_entry(self):
        fn, *_ = self._diamond()
        order = reverse_postorder(fn)
        assert order[0] is fn.entry and len(order) == 4

    def test_idom_of_merge_is_branch(self):
        fn, then_, else_, merge = self._diamond()
        dt = DominatorTree(fn)
        assert dt.immediate_dominator(merge) is fn.entry
        assert dt.immediate_dominator(then_) is fn.entry

    def test_dominates(self):
        fn, then_, else_, merge = self._diamond()
        dt = DominatorTree(fn)
        assert dt.dominates(fn.entry, merge)
        assert not dt.dominates(then_, merge)
        assert dt.dominates(merge, merge)

    def test_nearest_common_dominator(self):
        fn, then_, else_, merge = self._diamond()
        dt = DominatorTree(fn)
        assert dt.nearest_common_dominator([then_, else_]) is fn.entry

    def test_dominance_frontier_of_arms_is_merge(self):
        fn, then_, else_, merge = self._diamond()
        dt = DominatorTree(fn)
        df = dt.dominance_frontiers()
        assert df[id(then_)] == {id(merge)}
        assert df[id(else_)] == {id(merge)}
        assert df[id(fn.entry)] == set()
