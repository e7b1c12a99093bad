"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro import hashing
from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.ir.instructions import AtomicOp
from repro.ir.module import GlobalVar, MemSpace
from repro.ir.types import ArrayShape, IntType, U16, U8
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import PassManager, PassOptions
from repro.runtime.message import HEADER_SIZE, FieldSpec, KernelSpec, Message, pack, unpack
from repro.tofino.phv import PhvAllocator, PhvError

widths = st.sampled_from([1, 8, 16, 32, 64])
small_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)


class TestIntTypeProperties:
    @given(widths, st.booleans(), small_ints)
    def test_wrap_is_idempotent_and_in_range(self, w, signed, v):
        ty = IntType(w, signed)
        wrapped = ty.wrap(v)
        lo, hi = (-(1 << (w - 1)), (1 << (w - 1)) - 1) if signed else (0, (1 << w) - 1)
        assert lo <= wrapped <= hi
        assert ty.wrap(wrapped) == wrapped

    @given(widths, small_ints)
    def test_wrap_is_congruent_mod_2w(self, w, v):
        ty = IntType(w)
        assert (ty.wrap(v) - v) % (1 << w) == 0


class TestHashProperties:
    keys = st.integers(min_value=0, max_value=(1 << 64) - 1)

    @given(keys)
    def test_hashes_deterministic_and_in_range(self, k):
        for name, fn in hashing.HASH_FUNCTIONS.items():
            a, b = fn(k, 64), fn(k, 64)
            assert a == b
            out_bits = {"crc16": 16, "crc32": 32, "crc64": 64, "xor16": 16, "identity": 64}[name]
            assert 0 <= a < (1 << out_bits)

    @given(keys, st.integers(min_value=1, max_value=32))
    def test_truncate_bounds(self, k, bits):
        assert 0 <= hashing.truncate(hashing.crc32(k, 64), bits) < (1 << bits)

    @given(st.lists(keys, min_size=2, max_size=50, unique=True))
    def test_crc32_rarely_collides_on_small_sets(self, ks):
        digests = {hashing.crc32(k, 64) for k in ks}
        assert len(digests) >= len(ks) - 1  # allow a freak collision


class TestCodecProperties:
    @st.composite
    def spec_and_values(draw):
        n = draw(st.integers(min_value=1, max_value=6))
        fields = []
        values = []
        for i in range(n):
            w = draw(st.sampled_from([8, 16, 32, 64]))
            count = draw(st.integers(min_value=1, max_value=8))
            fields.append(FieldSpec(f"f{i}", w, count))
            if count == 1:
                values.append(draw(st.integers(min_value=0, max_value=(1 << w) - 1)))
            else:
                values.append(
                    draw(
                        st.lists(
                            st.integers(min_value=0, max_value=(1 << w) - 1),
                            min_size=count,
                            max_size=count,
                        )
                    )
                )
        return KernelSpec(1, tuple(fields)), values

    @given(spec_and_values())
    def test_pack_unpack_roundtrip(self, sv):
        spec, values = sv
        msg = Message(src=3, dst=4, comp=1, to=2)
        raw = pack(msg, spec, values)
        assert len(raw) == HEADER_SIZE + spec.plan.data_bytes
        back, out = unpack(raw, spec)
        assert out == values
        assert (back.src, back.dst, back.to) == (3, 4, 2)


class TestAtomicProperties:
    @given(
        st.sampled_from([AtomicOp.ADD, AtomicOp.SUB, AtomicOp.AND, AtomicOp.OR, AtomicOp.XOR]),
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.booleans(),
    )
    def test_old_new_consistency(self, op, init, operand, return_new):
        gv = GlobalVar("m", U16, ArrayShape((1,)), MemSpace.NET)
        state = GlobalState()
        state.declare(gv)
        state.write(gv, [0], init)
        result = state.atomic(gv, [0], op, operand, return_new=return_new)
        final = state.read(gv, [0])
        expected_new = {
            AtomicOp.ADD: (init + operand) & 0xFFFF,
            AtomicOp.SUB: (init - operand) & 0xFFFF,
            AtomicOp.AND: init & operand,
            AtomicOp.OR: init | operand,
            AtomicOp.XOR: init ^ operand,
        }[op]
        assert final == expected_new
        assert result == (expected_new if return_new else init)

    @given(st.integers(min_value=0, max_value=0xFF), st.integers(min_value=0, max_value=0xFF))
    def test_guarded_off_never_writes(self, init, operand):
        gv = GlobalVar("m", U8, ArrayShape((1,)), MemSpace.NET)
        state = GlobalState()
        state.declare(gv)
        state.write(gv, [0], init)
        out = state.atomic(gv, [0], AtomicOp.ADD, operand, cond=0, return_new=True)
        assert out == init and state.read(gv, [0]) == init


class TestCompilerSemanticsProperty:
    """The optimization pipeline must preserve kernel behavior."""

    SRC = (
        "_net_ unsigned acc[8];\n"
        "_kernel(1) void k(unsigned a, unsigned b, unsigned &r, unsigned &s) {\n"
        "  unsigned m = a;\n"
        "  if (b < m) m = b;\n"
        "  if (a > 100) { r = ncl::atomic_add_new(&acc[a & 7], m); }\n"
        "  else { r = m * 3 + (a ^ b); }\n"
        "  s = (a < b) ? a - b : b - a;\n"
        "}"
    )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_optimized_matches_reference(self, a, b):
        # Reference: unoptimized lowering.
        ref_mod = lower_to_ir(analyze(parse_source(self.SRC)))
        ref_msg = KernelMessage({"a": a, "b": b, "r": 0, "s": 0})
        IRInterpreter(ref_mod, GlobalState()).run_kernel(ref_mod.kernels()[0], ref_msg)

        opt_mod = lower_to_ir(analyze(parse_source(self.SRC)))
        PassManager(PassOptions()).run_pipeline(opt_mod)
        opt_msg = KernelMessage({"a": a, "b": b, "r": 0, "s": 0})
        IRInterpreter(opt_mod, GlobalState()).run_kernel(opt_mod.kernels()[0], opt_msg)

        assert ref_msg.fields == opt_msg.fields


class TestPhvProperties:
    @given(st.lists(st.integers(min_value=1, max_value=64), max_size=40))
    def test_allocation_covers_demand(self, fields):
        try:
            rep = PhvAllocator().allocate(fields, [], [])
        except PhvError:
            return
        assert rep.used_bits >= sum(fields)
        assert 0.0 <= rep.occupancy <= 1.0
