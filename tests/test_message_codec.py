"""The compiled codec plan against a reference codec.

``_ref_pack`` / ``_ref_unpack`` are the per-element loops
``repro.runtime.message`` ran before the plan existed, kept here
unoptimised as the oracle: whatever :class:`CodecPlan` does with
``struct``, the bytes and the values must be theirs.  The same goes for
``repro.rpc.idl``: its once-per-class layout must agree with resolving
every annotation on every call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_netcl
from repro.rpc import idl
from repro.rpc.idl import u8, u16, u32, u64, vec
from repro.rpc.scenarios import scenario_schema
from repro.runtime import ForwardKind, NetCLDevice
from repro.runtime.message import (
    HEADER_SIZE,
    FieldSpec,
    KernelSpec,
    Message,
    NetCLPacket,
    pack,
    unpack,
    unpack_packet,
)

_HEADER = struct.Struct("!HHHHBBH")
MSG = Message(src=3, dst=4, comp=1, to=1)


# -- the oracle -------------------------------------------------------------------
def _ref_pack(msg: Message, spec: KernelSpec, values) -> bytes:
    fields_ = list(spec.fields)
    send_values = list(values)
    if fields_ and fields_[-1].tail and send_values[-1] is None:
        fields_.pop()
        send_values.pop()
    out = bytearray()
    for f, v in zip(fields_, send_values):
        nb = f.bytes_per_element
        mask = (1 << f.width_bits) - 1
        if v is None:
            out.extend(b"\x00" * (nb * f.count))
        elif isinstance(v, int):
            out.extend((v & mask).to_bytes(nb, "big"))
        else:
            for x in v:
                out.extend((int(x) & mask).to_bytes(nb, "big"))
    head = _HEADER.pack(msg.src, msg.dst, msg.from_, msg.to, msg.comp, msg.act, len(out))
    return head + bytes(out)


def _ref_unpack(data: bytes, spec: KernelSpec, out=None) -> list:
    dlen = _HEADER.unpack_from(data, 0)[6]
    values: list = []
    off = HEADER_SIZE
    for i, f in enumerate(spec.fields):
        nb = f.bytes_per_element
        skip = out is not None and (i >= len(out) or out[i] is None)
        if f.tail and off - HEADER_SIZE >= dlen:
            values.append(None if skip else (0 if f.count == 1 else [0] * f.count))
            continue
        if skip:
            values.append(None)
        elif f.count == 1:
            values.append(int.from_bytes(data[off : off + nb], "big"))
        else:
            cells = [data[off + j * nb : off + (j + 1) * nb] for j in range(f.count)]
            values.append([int.from_bytes(cell, "big") for cell in cells])
        off += nb * f.count
    return values


# -- random specs and values --------------------------------------------------------
@st.composite
def specs(draw) -> KernelSpec:
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 64), st.integers(1, 40)), min_size=1, max_size=6)
    )
    tail = draw(st.booleans())
    return KernelSpec(
        computation=draw(st.integers(0, 255)),
        fields=tuple(
            FieldSpec(f"f{i}", width, count, tail and i == len(shapes) - 1)
            for i, (width, count) in enumerate(shapes)
        ),
    )


#: negative, in-range and over-wide for every width up to 64
elements = st.integers(-(1 << 70), 1 << 70)


@st.composite
def spec_and_values(draw):
    """A spec plus ``(values, plain)``: what the caller passes — ints,
    lists, ``None``, numpy scalars and arrays — and the same as plain
    Python ints for the oracle."""
    spec = draw(specs())
    values, plain = [], []
    for f in spec.fields:
        kind = draw(st.sampled_from(["none", "python", "python", "numpy"]))
        if kind == "none":
            values.append(None)
            plain.append(None)
            continue
        xs = draw(st.lists(elements, min_size=f.count, max_size=f.count))
        if kind == "numpy":
            xs = [x % (1 << 64) - (1 << 63) for x in xs]  # what an int64 holds
            as_numpy = np.array(xs, dtype=np.int64)
            values.append(as_numpy[0] if f.count == 1 else as_numpy)
        else:
            values.append(xs[0] if f.count == 1 else xs)
        plain.append(xs[0] if f.count == 1 else xs)
    return spec, values, plain


def _masked(spec: KernelSpec, plain: list) -> list:
    out = []
    for f, v in zip(spec.fields, plain):
        mask = (1 << f.width_bits) - 1
        if v is None:
            out.append(0 if f.count == 1 else [0] * f.count)
        else:
            out.append(v & mask if f.count == 1 else [x & mask for x in v])
    return out


class TestPlanAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(spec_and_values())
    def test_bytes_are_the_oracles_and_round_trip_masks(self, case):
        spec, values, plain = case
        raw = pack(MSG, spec, values)
        assert raw == _ref_pack(MSG, spec, plain)
        msg, got = unpack(raw, spec)
        assert got == _masked(spec, plain) == _ref_unpack(raw, spec)
        assert (msg.src, msg.dst, msg.comp, msg.to) == (3, 4, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(spec_and_values(), st.data())
    def test_a_packet_decodes_like_its_wire_bytes(self, case, data):
        spec, values, _ = case
        raw = pack(MSG, spec, values)
        out = data.draw(
            st.none() | st.lists(st.sampled_from([None, 1]), max_size=len(spec.fields))
        )
        want = unpack(raw, spec, out)[1]
        assert want == _ref_unpack(raw, spec, out)
        assert unpack_packet(NetCLPacket.from_wire(raw), spec, out) == want
        built = NetCLPacket.from_message(MSG, spec, values)
        assert built == NetCLPacket.from_wire(raw)
        assert built.to_wire() == raw

    @given(specs())
    def test_equal_specs_share_one_plan(self, spec):
        twin = KernelSpec(spec.computation, tuple(spec.fields))
        assert twin is not spec and twin.plan is spec.plan
        assert spec.plan.data_bytes == sum(f.bytes_per_element * f.count for f in spec.fields)


# -- bugfixes ---------------------------------------------------------------------
U32_U32X4 = KernelSpec(1, (FieldSpec("a", 32), FieldSpec("v", 32, 4)))
TAILED = KernelSpec(2, (FieldSpec("k", 32), FieldSpec("v", 32, 4, tail=True)))


def _with_data(raw: bytes, data: bytes) -> bytes:
    return raw[: HEADER_SIZE - 2] + len(data).to_bytes(2, "big") + data


class TestShortDataSection:
    def test_host_side_names_computation_expected_and_actual(self):
        raw = pack(MSG, U32_U32X4, [5, [1, 2, 3, 4]])
        short = _with_data(raw, raw[HEADER_SIZE : HEADER_SIZE + 10])
        with pytest.raises(ValueError, match=r"computation 1.*10 bytes.*needs 20"):
            unpack(short, U32_U32X4)
        with pytest.raises(ValueError, match=r"computation 1.*10 bytes.*needs 20"):
            unpack_packet(NetCLPacket.from_wire(short), U32_U32X4)

    def test_only_the_whole_tail_may_be_missing(self):
        raw = pack(MSG, TAILED, [9, [1, 2, 3, 4]])
        data = raw[HEADER_SIZE:]
        assert unpack(_with_data(raw, data[:4]), TAILED)[1] == [9, [0, 0, 0, 0]]
        for cut in (0, 3, 5, 19):
            with pytest.raises(ValueError, match=r"needs 20 \(or 4 without the tail\)"):
                unpack(_with_data(raw, data[:cut]), TAILED)

    def test_device_drops_and_counts_without_computing(self):
        compiled = compile_netcl(
            "_net_ unsigned seen;\n"
            "_kernel(1) _at(1) void k(unsigned a, unsigned _spec(4) *v) {\n"
            "  seen = a; v[0] = a; return ncl::reflect(); }",
            1, program_name="strict",
        )
        device = NetCLDevice(1, compiled.module, compiled.kernels())
        spec = device.specs[1]
        good = NetCLPacket.from_message(MSG, spec, [5, [1, 2, 3, 4]])
        bad = good.copy()
        bad.data = good.data[:10]
        decision = device.process(bad)
        assert decision.kind == ForwardKind.DROP and decision.packet is None
        assert device.metrics.value("kernel.malformed") == 1
        assert device.packets_computed == 0
        assert device.process(good).kind == ForwardKind.TO_HOST
        assert device.packets_computed == 1 and device.metrics.value("kernel.malformed") == 1


class TestLongDataSection:
    def test_trailing_bytes_are_a_named_error_not_dropped(self):
        raw = pack(MSG, U32_U32X4, [5, [1, 2, 3, 4]])
        long = _with_data(raw, raw[HEADER_SIZE:] + b"\x00\x07")
        with pytest.raises(ValueError, match=r"computation 1.*22 bytes.*needs 20"):
            unpack(long, U32_U32X4)
        with pytest.raises(ValueError, match=r"computation 1.*22 bytes.*needs 20"):
            unpack_packet(NetCLPacket.from_wire(long), U32_U32X4)

    def test_a_tailed_layout_takes_only_its_two_lengths(self):
        raw = pack(MSG, TAILED, [9, [1, 2, 3, 4]])
        with pytest.raises(ValueError, match=r"21 bytes.*needs 20 \(or 4 without the tail\)"):
            unpack(_with_data(raw, raw[HEADER_SIZE:] + b"\x01"), TAILED)


class TestScalarsAndSequences:
    @pytest.mark.parametrize("five", [np.uint32(5), np.int64(5), np.uint8(5), True + 4])
    def test_any_integer_scalar_fills_a_count_one_field(self, five):
        assert pack(MSG, U32_U32X4, [five, [1, 2, 3, 4]]) == pack(MSG, U32_U32X4, [5, [1, 2, 3, 4]])

    def test_a_negative_numpy_element_takes_the_masked_path(self):
        # struct raises OverflowError, not struct.error, for a negative numpy integer
        wide = KernelSpec(1, (FieldSpec("q", 64, 2),))
        raw = pack(MSG, wide, [np.array([-1, -(1 << 63)], dtype=np.int64)])
        assert unpack(raw, wide)[1] == [[(1 << 64) - 1, 1 << 63]]

    def test_a_one_element_sequence_still_fills_a_count_one_field(self):
        assert pack(MSG, U32_U32X4, [[5], (1, 2, 3, 4)]) == pack(MSG, U32_U32X4, [5, [1, 2, 3, 4]])

    def test_a_scalar_for_an_array_field_names_the_field(self):
        with pytest.raises(ValueError, match="field v expects 4 elements"):
            pack(MSG, U32_U32X4, [5, 7])
        with pytest.raises(ValueError, match="field v expects 4 elements"):
            pack(MSG, U32_U32X4, [5, np.uint32(7)])

    def test_wrong_lengths_and_non_integers_name_the_field(self):
        with pytest.raises(ValueError, match="field v expects 4 elements, got 3"):
            pack(MSG, U32_U32X4, [5, [1, 2, 3]])
        with pytest.raises(ValueError, match="field a expects 1 elements, got 2"):
            pack(MSG, U32_U32X4, [[5, 6], [1, 2, 3, 4]])
        with pytest.raises(ValueError, match="field a: 5.0 is neither an integer nor a sequence"):
            pack(MSG, U32_U32X4, [5.0, [1, 2, 3, 4]])
        with pytest.raises(ValueError, match="expects 2 arguments, got 1"):
            pack(MSG, U32_U32X4, [5])

    def test_the_packet_constructor_keeps_the_header_range_checks(self):
        for bad in (Message(70_000, 4, 1, 1), Message(3, 4, 256, 1), Message(3, -1, 1, 1)):
            with pytest.raises(struct.error):
                pack(bad, U32_U32X4, [5, None])
            with pytest.raises(struct.error):
                NetCLPacket.from_message(bad, U32_U32X4, [5, None])


# -- shaped values take the generated packer ----------------------------------------
def _shipped_specs() -> list[KernelSpec]:
    """Every message layout a shipped program or host protocol uses."""
    from repro.apps import compile_app
    from repro.collective import ROOT_DEVICE, compile_role, leaf_device
    from repro.collective.baseline import RING_ACK_SPEC, RING_SPEC
    from repro.rpc.baseline import FANOUT_SPEC

    programs = [compile_app(name) for name in ("agg", "cache", "paxos", "rpc", "calc")]
    programs += [compile_role(ROOT_DEVICE), compile_role(leaf_device(0), rack=0)]
    found = {KernelSpec.from_kernel(k) for p in programs for k in p.kernels()}
    return sorted(found | {RING_SPEC, RING_ACK_SPEC, FANOUT_SPEC}, key=repr)


SHIPPED = _shipped_specs()


@st.composite
def shaped_values(draw, spec: KernelSpec) -> list:
    """Values as the host code passes them: an ``int`` per scalar, a
    ``list`` of its count per array, elements in range or not."""
    def element(f: FieldSpec) -> int:
        return draw(st.integers(0, (1 << f.width_bits) - 1) | elements)

    return [
        element(f) if f.count == 1 else [element(f) for _ in range(f.count)]
        for f in spec.fields
    ]


def _result(encode, values):
    try:
        return encode(values)
    except (ValueError, TypeError, struct.error) as exc:  # the checked path's, type and text
        return type(exc), str(exc)


U32X2_U32X2 = KernelSpec(3, (FieldSpec("a", 32, 2), FieldSpec("b", 32, 2)))
MASKED = KernelSpec(4, (FieldSpec("m", 12), FieldSpec("w", 12, 3)))


class TestShapedEncode:
    @pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: f"comp{s.computation}-{len(s.fields)}f")
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shipped_layouts_pack_as_the_checked_path(self, spec, data):
        values = data.draw(shaped_values(spec))
        plan = spec.plan
        assert plan.encode(values) == plan._checked(values)
        assert plan.encode(values) == _ref_pack(MSG, spec, values)[HEADER_SIZE:]

    @pytest.mark.parametrize(
        "spec, values",
        [
            (U32_U32X4, [np.uint32(5), [1, 2, 3, 4]]),
            (U32_U32X4, [5, np.array([1, 2, 3, 4], dtype=np.uint32)]),
            (U32_U32X4, [5, [np.int64(-1), 2, 3, np.uint8(4)]]),
            (U32_U32X4, [5, (1, 2, 3, 4)]),
            (U32_U32X4, [(5,), [1, 2, 3, 4]]),
            (U32_U32X4, [5, None]),
            (U32_U32X4, [None, [1, 2, 3, 4]]),
            (U32_U32X4, [-5, [1, -2, 1 << 40, 4]]),
            (U32_U32X4, [5, [1, 2, 3]]),
            (U32_U32X4, [5, [1, 2, 3, 4, 5]]),
            (U32_U32X4, [5, [1.0, 2, 3, 4]]),
            (U32_U32X4, [5.0, [1, 2, 3, 4]]),
            (U32_U32X4, [[5, 6], [1, 2, 3, 4]]),
            (U32_U32X4, [5, [1, 2, 3, None]]),
            (U32_U32X4, [5]),
            (U32_U32X4, [5, [1, 2, 3, 4], 6]),
            (U32_U32X4, (5, [1, 2, 3, 4])),
            (TAILED, [9, None]),
            (TAILED, [9, [1, 2, 3, 4]]),
            (TAILED, [None, None]),
            (U32X2_U32X2, [[1, 2, 3], [4]]),
            (U32X2_U32X2, [[1], [2, 3, 4]]),
            (U32X2_U32X2, [[1, 2], [3, 4]]),
            (MASKED, [0x1FFF, [-1, 0x1000, 7]]),
            (MASKED, [np.int64(-1), [1, 2, 3]]),
            (MASKED, [1.5, [1, 2, 3]]),
            (MASKED, [1, [1, 2.5, 3]]),
            (MASKED, [True, [True, False, 3]]),
        ],
    )
    def test_any_other_shape_is_the_checked_path(self, spec, values):
        assert _result(spec.plan.encode, values) == _result(spec.plan._checked, values)


# -- the RPC schema layout ----------------------------------------------------------
MY_CONSTANT = 3


@dataclass
class Stringly:
    """Annotations are strings here (``from __future__ import annotations``)
    and one needs this module's globals to resolve."""

    tag: u8 = 0
    port: u16 = 0
    word: u32 = 0
    wide: u64 = 0
    v: vec(MY_CONSTANT) = None


def _per_call_encode(obj) -> list[int]:
    words: list[int] = []
    for f in fields(obj):
        wt = idl._wire_type(f.type, type(obj))
        value = getattr(obj, f.name)
        if isinstance(wt, idl._Vector):
            value = list(value or [])
            words += [int(v) & 0xFFFFFFFF for v in value] + [0] * (wt.count - len(value))
        elif wt.bits == 64:
            words += [(int(value) & wt.mask) >> 32, int(value) & 0xFFFFFFFF]
        else:
            words.append(int(value) & wt.mask)
    return words


def _random_instance(cls, draw):
    kwargs = {}
    for f in fields(cls):
        wt = idl._wire_type(f.type, cls)
        if isinstance(wt, idl._Vector):
            words = st.lists(st.integers(0, 0xFFFFFFFF), min_size=wt.count, max_size=wt.count)
            kwargs[f.name] = draw(words)
        else:
            kwargs[f.name] = draw(st.integers(0, wt.mask))
    return cls(**kwargs)


SCHEMA_CLASSES = sorted(
    {cls for m in scenario_schema().methods for cls in (m.request, m.response)} | {Stringly},
    key=lambda cls: cls.__name__,
)


class TestIdlLayout:
    @pytest.mark.parametrize("cls", SCHEMA_CLASSES, ids=lambda cls: cls.__name__)
    @given(st.data())
    def test_round_trip_agrees_with_per_call_resolution(self, cls, data):
        obj = _random_instance(cls, data.draw)
        words = idl.encode(obj)
        assert words == _per_call_encode(obj)
        assert len(words) == idl.word_count(cls)
        assert idl.decode(cls, words) == obj

    def test_string_annotations_resolve_against_the_schemas_module(self):
        assert isinstance(Stringly.__dataclass_fields__["v"].type, str)
        assert idl.word_count(Stringly) == 1 + 1 + 1 + 2 + MY_CONSTANT
        assert idl.encode(Stringly(v=[7]))[-3:] == [7, 0, 0]

    def test_a_non_wire_annotation_is_a_type_error(self):
        @dataclass
        class Bad:
            x: int = 0

        with pytest.raises(TypeError, match="not a wire type|unresolvable"):
            idl.encode(Bad())
        with pytest.raises(TypeError, match="not a dataclass schema"):
            idl.word_count(int)
