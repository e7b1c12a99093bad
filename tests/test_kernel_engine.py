"""The compiled kernel engine against its oracle, the IR interpreter.

Every test runs one kernel on :class:`IRInterpreter` and on
:class:`KernelEngine` over separate, equally prepared device states and
requires the same forwarding outcome, message fields, trap (type and
text) and memory snapshot after every message — and that the engine
really ran generated code (``interpreted == 0``) unless the test is
about the interpreter fallback.
"""

from __future__ import annotations

import copy
import random
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import compile_app
from repro.collective.tree import ROOT_DEVICE, compile_role, leaf_device
from repro.core import compile_netcl
from repro.ir import GlobalState, IRBuilder, IRInterpreter, KernelMessage
from repro.ir.compiled import KernelEngine, generate
from repro.ir.instructions import (
    ActionKind,
    AtomicOp,
    BinOpKind,
    CastKind,
    Constant,
    ICmpPred,
    Phi,
    Select,
)
from repro.ir.interp import InterpError
from repro.ir.module import (
    Argument,
    Function,
    FunctionKind,
    GlobalVar,
    LookupEntry,
    LookupKind,
    MemSpace,
    Module,
)
from repro.ir.types import ArrayShape, IntType, U8, U16, U32
from repro.rpc.cluster import EDGE_DEVICE, SG_DEVICE, compile_rpc_role, tor_device
from repro.runtime.device import NetCLDevice
from repro.runtime.message import NO_DEVICE, KernelSpec, Message, NetCLPacket, unpack_packet

DEVICE = 1


def make_kernel(args, *, globals_=(), name="k"):
    """(module, function, builder positioned in a fresh entry block)."""
    module = Module("t")
    for gv in globals_:
        module.add_global(gv)
    fn = module.add_function(Function(name, FunctionKind.KERNEL, args, computation=1))
    b = IRBuilder(fn)
    b.position_at_end(fn.new_block("entry"))
    return module, fn, b


def run_on(cls, module, fn, messages, *, setup=None, device_id=DEVICE):
    state = GlobalState()
    ex = cls(module, state, device_id=device_id, rng=random.Random(5))
    if setup is not None:
        setup(state)
    log = []
    for fields in messages:
        msg = KernelMessage(copy.deepcopy(fields))
        try:
            out = ex.run_kernel(fn, msg)
            log.append((out.kind, out.target))
        except (InterpError, KeyError) as exc:
            log.append((type(exc).__name__, str(exc)))
        log.append((msg.fields, state.snapshot()))
    return log, ex


def differential(module, fn, messages, *, setup=None, device_id=DEVICE, compiled=True):
    """Run on both executors, require equality, return the common log."""
    ref, _ = run_on(IRInterpreter, module, fn, messages, setup=setup, device_id=device_id)
    got, engine = run_on(KernelEngine, module, fn, messages, setup=setup, device_id=device_id)
    assert got == ref
    if compiled:
        assert engine.kernel_code(fn) is not None
        assert engine.interpreted == 0
    return ref


widths = st.one_of(
    st.integers(1, 64), st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
)
int_types = st.builds(IntType, widths, st.booleans())


def near(ty: IntType):
    """Types whose width is ``ty``'s or one off: where a folded mask is
    most easily wrong."""
    return st.builds(
        IntType,
        st.sampled_from([w for w in (ty.width - 1, ty.width, ty.width + 1) if 1 <= w <= 64]),
        st.booleans(),
    )


#: raw message values: in range, at the edges, too wide and negative
raw_ints = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.sampled_from([0, 1, 2, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64, -1]),
    st.integers(0, 70).map(lambda n: (1 << n) - 1),
    st.integers(0, 70).map(lambda n: 1 << n),
)


def operand_forms(ty, args, values):
    """The same operand three ways: a by-value argument used directly
    (raw, unmasked), a message load (masked) and a constant."""
    return st.tuples(
        *[
            st.sampled_from(
                [arg, ("load", arg.name), Constant(ty, value)]
            )
            for arg, value in zip(args, values)
        ]
    )


def materialize(b, ty, form):
    if isinstance(form, tuple):
        return b.load_msg(form[1], ty)
    return form


class TestArithmeticAgainstTheInterpreter:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), int_types, st.sampled_from(list(BinOpKind)), raw_ints, raw_ints)
    def test_binop(self, data, ty, kind, a, b_val):
        args = [Argument("a", ty), Argument("b", ty), Argument("r", ty, byref=True)]
        module, fn, b = make_kernel(args)
        forms = data.draw(operand_forms(ty, args[:2], (a, b_val)))
        x, y = (materialize(b, ty, f) for f in forms)
        b.store_msg("r", b.binop(kind, x, y))
        b.ret_action(ActionKind.PASS)
        differential(module, fn, [{"a": a, "b": b_val, "r": 0}])

    @settings(max_examples=150, deadline=None)
    @given(st.data(), int_types, st.sampled_from(list(ICmpPred)), raw_ints, raw_ints)
    def test_icmp(self, data, ty, pred, a, b_val):
        args = [Argument("a", ty), Argument("b", ty), Argument("r", U8, byref=True)]
        module, fn, b = make_kernel(args)
        forms = data.draw(operand_forms(ty, args[:2], (a, b_val)))
        x, y = (materialize(b, ty, f) for f in forms)
        b.store_msg("r", b.icmp(pred, x, y))
        b.ret_action(ActionKind.PASS)
        # also at the point where the two sides meet
        differential(
            module, fn, [{"a": a, "b": b_val, "r": 0}, {"a": a, "b": a, "r": 0}]
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data(), int_types, st.sampled_from(list(CastKind)), raw_ints)
    def test_cast(self, data, src, kind, a):
        dst = data.draw(st.one_of(int_types, near(src)))
        args = [Argument("a", src), Argument("r", dst, byref=True), Argument("w", U8, byref=True)]
        module, fn, b = make_kernel(args)
        (form,) = data.draw(operand_forms(src, args[:1], (a,)))
        cast = b.cast(kind, materialize(b, src, form), dst)
        b.store_msg("r", cast)
        # the cast value itself, unmasked, is the forwarding target
        b.ret_action(ActionKind.SEND_TO_HOST, cast)
        differential(module, fn, [{"a": a, "r": 0, "w": 0}])

    @settings(max_examples=100, deadline=None)
    @given(st.data(), int_types, raw_ints, raw_ints, raw_ints)
    def test_select(self, data, ty, c, t, f):
        args = [Argument("c", ty), Argument("t", ty), Argument("f", ty)]
        module, fn, b = make_kernel(args)
        forms = data.draw(operand_forms(ty, args, (c, t, f)))
        cv, tv, fv = (materialize(b, ty, x) for x in forms)
        b.ret_action(ActionKind.SEND_TO_DEVICE, b.block.append(Select(cv, tv, fv)))
        differential(module, fn, [{"c": c, "t": t, "f": f}, {"c": 0, "t": t, "f": f}])


    @pytest.mark.parametrize("w", [1, 7, 8, 12, 31, 32, 63])
    def test_masks_where_widths_differ_by_one(self, w):
        wide, narrow = IntType(w + 1), IntType(w)
        gv = GlobalVar("m", narrow, ArrayShape((2,)))
        args = [
            Argument("a", wide, byref=True),
            Argument("r", narrow, byref=True),
            Argument("q", wide, byref=True),
        ]
        module, fn, b = make_kernel(args, globals_=[gv])
        a = b.load_msg("a", wide)  # known to fit w + 1 bits, not w
        t = b.cast(CastKind.TRUNC, a, narrow)
        b.store_msg("r", t)
        b.store_global(gv, a, [Constant(U32, 0)])
        new = b.atomic(AtomicOp.ADD, gv, [Constant(U32, 1)], a, return_new=True)
        b.store_msg("q", b.binop(BinOpKind.SADDU, b.cast(CastKind.BITCAST, a, narrow), new))
        b.ret_action(ActionKind.SEND_TO_HOST, b.icmp(ICmpPred.EQ, t, Constant(narrow, narrow.mask)))
        log = differential(module, fn, [{"a": wide.mask, "r": 0, "q": 0}, {"a": 1 << w, "r": 0, "q": 0}])
        assert log[1][0]["r"] == narrow.mask and log[3][0]["r"] == 0
        assert log[1][1]["registers"]["m"] == [narrow.mask, narrow.mask]


class TestAtomicsAgainstGlobalState:
    @settings(max_examples=250, deadline=None)
    @given(
        st.data(),
        st.builds(IntType, widths),
        st.sampled_from(list(AtomicOp)),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["none", "arg", "zero", "one"]),
        raw_ints,
        raw_ints,
        raw_ints,
    )
    def test_every_atomic_form(
        self, data, ty, op, return_new, saturating, cond_form, seed_value, operand, compare
    ):
        # a compare that equals the cell only once it is masked, and one that does
        compare = data.draw(
            st.sampled_from([compare, seed_value, (seed_value & ty.mask) | (1 << ty.width)])
        )
        gv = GlobalVar("m", ty, ArrayShape((4,)))
        args = [
            Argument("i", U8),
            Argument("x", ty),
            Argument("c", ty),
            Argument("p", U8),
            Argument("r", ty, byref=True),
        ]
        module, fn, b = make_kernel(args, globals_=[gv])
        (x_form, c_form) = data.draw(operand_forms(ty, args[1:3], (operand, compare)))
        cond = {
            "none": None,
            "arg": args[3],
            "zero": Constant(U8, 0),
            "one": Constant(U8, 1),
        }[cond_form]
        result = b.atomic(
            op,
            gv,
            [args[0]],
            None if op == AtomicOp.READ else materialize(b, ty, x_form),
            cond=cond,
            compare=materialize(b, ty, c_form) if op == AtomicOp.CAS else None,
            return_new=return_new,
            saturating=saturating,
        )
        b.store_msg("r", result)
        b.ret_action(ActionKind.PASS)

        def setup(state):
            state.write(gv, [1], seed_value)

        base = {"x": operand, "c": compare, "r": 0}
        differential(
            module,
            fn,
            [
                {**base, "i": 1, "p": 1},
                {**base, "i": 1, "p": 0},
                {**base, "i": 1, "p": 2},
                {**base, "i": 0, "p": 1},
                {**base, "i": 4, "p": 1},  # out of range: the trap, unchanged memory
            ],
            setup=setup,
        )

    def test_missing_operands_trap_like_the_interpreter(self):
        gv = GlobalVar("m", U32, ArrayShape((4,)))
        for op, kwargs, text in (
            (AtomicOp.ADD, {}, "atomic add requires an operand"),
            (AtomicOp.CAS, {}, "CAS requires a compare operand"),
        ):
            module, fn, b = make_kernel([Argument("i", U8)], globals_=[gv])
            b.atomic(op, gv, [fn.args[0]], None, **kwargs)
            b.ret_action(ActionKind.PASS)
            log = differential(module, fn, [{"i": 9}, {"i": 1}])
            assert log[0] == ("InterpError", "m: index 9 out of range [0,4)")
            assert log[2] == ("InterpError", text)


class TestTraps:
    """Same error text, same memory at the moment of the trap."""

    def test_global_index_out_of_range(self):
        gv = GlobalVar("grid", U16, ArrayShape((3, 5)))
        args = [Argument("i", U32), Argument("j", U32), Argument("v", U16)]
        module, fn, b = make_kernel(args, globals_=[gv])
        b.store_global(gv, args[2], [Constant(U32, 2), Constant(U32, 4)])  # lands first
        b.store_global(gv, args[2], [args[0], args[1]])
        b.load_global(gv, [args[1], Constant(U32, 7)])  # constant index, checked at generation
        b.ret_action(ActionKind.DROP)
        log = differential(
            module,
            fn,
            [
                {"i": 1, "j": 1, "v": 7},
                {"i": 3, "j": 0, "v": 8},
                {"i": 0, "j": 5, "v": 9},
                {"i": -1, "j": 0, "v": 10},
            ],
        )
        assert log[0] == ("InterpError", "grid: index 7 out of range [0,5)")
        assert log[2] == ("InterpError", "grid: index 3 out of range [0,3)")
        assert log[4] == ("InterpError", "grid: index 5 out of range [0,5)")
        assert log[6] == ("InterpError", "grid: index -1 out of range [0,3)")
        # the store before the trap is in memory
        assert log[7][1]["registers"]["grid"][14] == 10

    def test_local_array_index_out_of_range(self):
        args = [Argument("i", U32), Argument("r", U32, byref=True)]
        module, fn, b = make_kernel(args)
        slot = b.alloca(U8, ArrayShape((2, 3)), name="tmp")
        b.store(slot, Constant(U32, 0x1FF), [Constant(U32, 1), args[0]])
        b.store_msg("r", b.load(slot, [Constant(U32, 1), args[0]]))
        b.ret_action(ActionKind.PASS)
        log = differential(module, fn, [{"i": 2, "r": 0}, {"i": 3, "r": 0}])
        assert log[1][0]["r"] == 0xFF
        assert log[2] == ("InterpError", "local tmp: index 3 out of [0,3)")

    def test_message_array_index_out_of_range(self):
        args = [
            Argument("i", U32),
            Argument("v", U16, byref=True, spec=4, is_array=True),
        ]
        module, fn, b = make_kernel(args)
        b.store_msg("v", Constant(U16, 0xBEEF), Constant(U32, 0))
        b.store_msg("v", b.load_msg("v", U16, args[0]), Constant(U32, 1))
        b.load_msg("v", U16, Constant(U32, 4))
        b.ret_action(ActionKind.PASS)
        log = differential(
            module, fn, [{"i": 3, "v": [1, 2, 3, 4]}, {"i": 4, "v": [1, 2, 3, 4]}]
        )
        assert log[0] == ("InterpError", "field v: index 4 out of range")
        assert log[1][0]["v"] == [0xBEEF, 4, 3, 4]
        assert log[3][0]["v"] == [0xBEEF, 2, 3, 4]

    @pytest.mark.parametrize(
        "kind,text",
        [
            (BinOpKind.UDIV, "division by zero"),
            (BinOpKind.SDIV, "division by zero"),
            (BinOpKind.UREM, "remainder by zero"),
            (BinOpKind.SREM, "remainder by zero"),
        ],
    )
    def test_division_by_zero(self, kind, text):
        gv = GlobalVar("m", U32, ArrayShape((2,)))
        ty = IntType(16, signed=True)
        args = [Argument("a", ty), Argument("b", ty), Argument("r", ty, byref=True)]
        module, fn, b = make_kernel(args, globals_=[gv])
        b.atomic(AtomicOp.ADD, gv, [Constant(U32, 1)], Constant(U32, 3))
        b.store_msg("r", b.binop(kind, args[0], args[1]))
        b.ret_action(ActionKind.PASS)
        log = differential(
            module, fn, [{"a": -7, "b": 2, "r": 0}, {"a": 5, "b": 1 << 16, "r": 0}]
        )
        assert log[2] == ("InterpError", text)
        assert log[3][1]["registers"]["m"] == [0, 6]

    def test_traceback_shows_the_generated_line(self):
        gv = GlobalVar("m", U32, ArrayShape((2,)))
        module, fn, b = make_kernel([Argument("i", U32)], globals_=[gv], name="oob")
        b.load_global(gv, [fn.args[0]])
        b.ret_action(ActionKind.PASS)
        engine = KernelEngine(module, GlobalState(), device_id=DEVICE)
        with pytest.raises(InterpError) as ei:
            engine.run_kernel(fn, KernelMessage({"i": 2}))
        text = "".join(traceback.format_exception(ei.value))
        assert 'File "<kernel oob>"' in text
        assert "raise E('m: index %d out of range [0,2)' % a0)" in text


class TestControlPlaneAfterBinding:
    def test_table_and_register_updates_reach_the_next_packet(self):
        table = GlobalVar(
            "routes",
            U32,
            ArrayShape((8,)),
            MemSpace.MANAGED_LOOKUP,
            lookup_kind=LookupKind.KV,
            key_type=U32,
            value_type=U16,
            entries=[LookupEntry(5, 5, 50)],
        )
        knob = GlobalVar("knob", U16, ArrayShape((2,)), MemSpace.MANAGED)
        args = [
            Argument("key", U32),
            Argument("hit", U8, byref=True),
            Argument("val", U16, byref=True),
            Argument("cfg", U16, byref=True),
        ]
        module, fn, b = make_kernel(args, globals_=[table, knob])
        b.store_msg("hit", b.lookup(table, args[0]))
        b.store_msg("val", b.lookup_val(table, args[0], Constant(U16, 0xFFFF)))
        b.store_msg("cfg", b.load_global(knob, [Constant(U32, 1)]))
        b.ret_action(ActionKind.REFLECT)

        def probe(ex, key):
            msg = KernelMessage({"key": key, "hit": 9, "val": 9, "cfg": 9})
            ex.run_kernel(fn, msg)
            return msg.fields["hit"], msg.fields["val"], msg.fields["cfg"]

        seen = []
        for cls in (IRInterpreter, KernelEngine):
            state = GlobalState()
            ex = cls(module, state, device_id=DEVICE)
            steps = [probe(ex, 5), probe(ex, 6)]  # binds here
            state.cp_table_insert("routes", 6, value=60)
            state.cp_register_write("knob", 0x1234, 1)
            steps.append(probe(ex, 6))
            state.cp_table_modify("routes", 6, 61)
            steps.append(probe(ex, 6))
            state.cp_table_remove("routes", 5)
            steps.append(probe(ex, 5))
            seen.append(steps)
            if cls is KernelEngine:
                assert ex.interpreted == 0
        assert seen[0] == seen[1] == [
            (1, 50, 0),
            (0, 0xFFFF, 0),
            (1, 60, 0x1234),
            (1, 61, 0x1234),
            (0, 0xFFFF, 0x1234),
        ]


RAND_SRC = """
_net_ unsigned hits[4];
_kernel(1) void roll(unsigned &r, unsigned &n) {
  r = ncl::rand<unsigned>();
  n = ncl::atomic_add_new(&hits[0], 1);
}
"""


class TestDeviceLifecycle:
    def _packet(self, spec):
        return NetCLPacket(
            src=1, dst=2, from_=NO_DEVICE, to=DEVICE, comp=1, act=0,
            data=bytes(spec.plan.data_bytes),
        )

    def test_reset_rebinds_to_zeroed_state_and_a_restarted_rng(self):
        cp = compile_netcl(RAND_SRC, DEVICE)
        dev = NetCLDevice(DEVICE, cp.module, cp.kernels(), seed=11)
        fn = dev.kernels[1]
        spec = KernelSpec.from_kernel(fn)

        def roll():
            return dev.process(self._packet(spec)).packet.data

        first = [roll() for _ in range(3)]
        code = dev.interp.kernel_code(fn)
        dev.reset_state()
        assert dev.interp.kernel_code(fn) is code  # kept, not regenerated
        assert dev.state.snapshot()["registers"]["hits"] == [0, 0, 0, 0]
        assert [roll() for _ in range(3)] == first
        assert dev.interp.interpreted == 0

        # ... and that stream is the interpreter's, from the same seed
        oracle = IRInterpreter(
            cp.module, GlobalState(), device_id=DEVICE, rng=random.Random(11)
        )
        for i, data in enumerate(first):
            msg = KernelMessage({"r": 0, "n": 0})
            oracle.run_kernel(fn, msg)
            assert data == msg.fields["r"].to_bytes(4, "big") + (i + 1).to_bytes(4, "big")


SKETCH_SRC = """
_net_ unsigned rows[3][16];
_lookup_ ncl::kv<unsigned, unsigned> tbl[4] = {{1, 10}, {2, 20}};
_kernel(1) void sketch(unsigned a, unsigned b, unsigned &r0, unsigned &r1, unsigned &r2) {
  r0 = ncl::atomic_add_new(&rows[0][a & 15], 1);
  r1 = ncl::atomic_add_new(&rows[1][b & 15], 2);
  r2 = ncl::atomic_add_new(&rows[2][(a ^ b) & 15], 3);
  unsigned x = 0;
  unsigned y = 0;
  if (ncl::lookup(tbl, a, x)) { r0 = r0 + x; }
  if (ncl::lookup(tbl, b, y)) { r1 = r1 + y; }
}
"""


class TestMemoryOptimizedGlobals:
    def test_partitions_and_duplicates_share_base_storage(self):
        cp = compile_netcl(SKETCH_SRC, DEVICE, target="tna")
        fn = cp.kernels()[0]
        names = {inst.gv.name for inst in fn.instructions() if hasattr(inst, "gv")}
        assert {"rows.part0", "rows.part1", "rows.part2"} <= names
        assert any(n.startswith("tbl.dup") for n in names)
        rng = random.Random(3)
        messages = [
            {"a": rng.randrange(4), "b": rng.randrange(1 << 32), "r0": 0, "r1": 0, "r2": 0}
            for _ in range(40)
        ]
        log = differential(cp.module, fn, messages)
        registers = log[-1][1]["registers"]
        assert set(registers) == {"rows"} and sum(registers["rows"]) == 40 * 6


class TestFallbackToTheInterpreter:
    def test_global_placed_elsewhere_is_declared_at_first_access(self):
        away = GlobalVar("away", U32, ArrayShape((4,)), locations=frozenset({2}))
        here = GlobalVar("here", U32, ArrayShape((4,)))
        args = [Argument("go", U8), Argument("r", U32, byref=True)]
        module, fn, b = make_kernel(args, globals_=[away, here])
        touch = fn.new_block("touch")
        done = fn.new_block("done")
        b.atomic(AtomicOp.ADD, here, [Constant(U32, 0)], Constant(U32, 1))
        b.br(args[0], touch, done)
        b.position_at_end(touch)
        b.store_msg("r", b.atomic(AtomicOp.ADD, away, [Constant(U32, 3)], Constant(U32, 7), return_new=True))
        b.jmp(done)
        b.position_at_end(done)
        b.ret_action(ActionKind.PASS)
        log = differential(
            module, fn, [{"go": 0, "r": 0}, {"go": 1, "r": 0}, {"go": 1, "r": 0}],
            compiled=False,
        )
        assert set(log[1][1]["registers"]) == {"here"}  # not yet touched
        assert log[3][1]["registers"] == {"away": [0, 0, 0, 7], "here": [2, 0, 0, 0]}
        assert log[5][0]["r"] == 14

    def test_phi_call_and_cycles_are_not_translated_but_still_run(self):
        ty = U32
        args = [Argument("c", ty), Argument("r", ty, byref=True)]
        module, fn, b = make_kernel(args)
        left, right, join = fn.new_block("l"), fn.new_block("r"), fn.new_block("j")
        b.br(args[0], left, right)
        b.position_at_end(left)
        b.jmp(join)
        b.position_at_end(right)
        b.jmp(join)
        b.position_at_end(join)
        phi = join.insert(0, Phi(ty))
        phi.add_incoming(Constant(ty, 11), left)
        phi.add_incoming(Constant(ty, 22), right)
        b.store_msg("r", phi)
        b.ret_action(ActionKind.PASS)
        assert generate(fn) is None
        log = differential(module, fn, [{"c": 1, "r": 0}, {"c": 0, "r": 0}], compiled=False)
        assert [log[1][0]["r"], log[3][0]["r"]] == [11, 22]

        module, fn, b = make_kernel([Argument("c", ty)])
        loop = fn.new_block("loop")
        b.jmp(loop)
        b.position_at_end(loop)
        b.br(fn.args[0], loop, fn.entry)
        assert generate(fn) is None

    def test_a_device_runs_an_untranslated_kernel_on_the_interpreter(self):
        args = [Argument("c", U32), Argument("r", U32, byref=True), Argument("s", U16, byref=True)]
        module, fn, b = make_kernel(args)
        left, right, join = fn.new_block("l"), fn.new_block("r"), fn.new_block("j")
        b.br(args[0], left, right)
        b.position_at_end(left)
        b.jmp(join)
        b.position_at_end(right)
        b.jmp(join)
        b.position_at_end(join)
        phi = join.insert(0, Phi(U32))
        phi.add_incoming(Constant(U32, 11), left)
        phi.add_incoming(Constant(U32, 22), right)
        b.store_msg("r", phi)
        b.store_msg("s", b.load_msg("__src", U16))
        b.ret_action(ActionKind.PASS)
        dev = NetCLDevice(1, module, [fn])
        spec = dev.specs[1]
        packet = NetCLPacket.from_message(Message(src=5, dst=2, comp=1, to=1), spec, [1, 0, 0])
        decision = dev.process(packet)
        assert unpack_packet(decision.packet, spec) == [1, 11, 5]
        assert dev.interp.interpreted == 1

    def test_unexpected_message_shape_gets_the_interpreters_answer(self):
        args = [
            Argument("v", U16, byref=True, spec=4, is_array=True),
            Argument("s", U16, byref=True),
        ]
        module, fn, b = make_kernel(args)
        b.store_msg("s", b.load_msg("v", U16, Constant(U32, 0)))
        b.ret_action(ActionKind.PASS)
        log = differential(
            module,
            fn,
            [
                {"v": [7, 8, 9, 10], "s": 0},  # as specified: generated code
                {"v": [7, 8], "s": 0},  # shorter list, still in range
                {"v": 7, "s": 0},  # a scalar where an array is specified
                {"v": [7, 8, 9, 10], "s": [1]},  # an array where a scalar is
                {"s": 0},  # field missing altogether
            ],
            compiled=False,
        )
        assert log[1][0]["s"] == log[3][0]["s"] == log[5][0]["s"] == 7
        assert log[6][0] == "InterpError"
        assert log[8] == ("KeyError", "'v'")
        _, engine = run_on(KernelEngine, module, fn, [{"v": [1, 2, 3, 4], "s": 0}])
        assert engine.interpreted == 0


def shipped_programs():
    """Table IV's programs on both targets and the collective / RPC switch
    roles as their cluster builders compile them."""
    for app, dev in (("agg", 1), ("cache", 1), ("paxos", 1), ("paxos", 2), ("paxos", 5), ("calc", 1)):
        for target in ("tna", "v1model"):
            yield pytest.param(
                lambda a=app, d=dev, t=target: compile_app(a, d, target=t),
                id=f"{app}@{dev}/{target}",
            )
    yield pytest.param(
        lambda: compile_role(ROOT_DEVICE, num_racks=4, workers_per_rack=2), id="collective-root"
    )
    yield pytest.param(
        lambda: compile_role(leaf_device(0), rack=0, num_racks=4, workers_per_rack=2),
        id="collective-leaf",
    )
    for role, dev in (("edge", EDGE_DEVICE), ("sg", SG_DEVICE), ("tor", tor_device(0))):
        yield pytest.param(
            lambda r=role, d=dev: compile_rpc_role(d, r, fanout=16), id=f"rpc-{role}"
        )


@pytest.mark.parametrize("build", shipped_programs())
def test_no_shipped_kernel_falls_back_on_a_device(build):
    cp = build()
    dev = NetCLDevice(cp.device_id, cp.module, cp.kernels())
    assert dev.kernels
    rng = random.Random(1)
    for comp, fn in dev.kernels.items():
        assert dev.interp.kernel_code(fn) is not None, fn.name
        spec = dev.specs[comp]
        for data in (bytes(spec.plan.data_bytes), rng.randbytes(spec.plan.data_bytes)):
            packet = NetCLPacket(
                src=1, dst=2, from_=NO_DEVICE, to=cp.device_id, comp=comp, act=0, data=data
            )
            try:
                dev.process(packet)
            except InterpError:
                pass  # a random index may trap; generated code raised it
    assert dev.interp.interpreted == 0
