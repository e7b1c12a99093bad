"""NetCL messages and the wire codec (Fig. 6 / Fig. 10 of the paper).

A NetCL-over-UDP packet is::

    ETH | IP | UDP | NetCL header | NetCL data (kernel arguments) | payload

The NetCL header carries the 4-tuple ``(src, dst, from, to)`` (host ids /
device ids), the computation id, the action byte the device runtime sets,
and the data length.  The data section's layout is the *kernel
specification*: per-argument element counts and types, embedded into host
code by the compiler (§V-A) — here exposed as :class:`KernelSpec`.

``pack``/``unpack`` accept ``None`` per argument to skip copying (the
paper's NULL-argument optimization for fields a side only reads or only
the device writes).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index
from typing import Optional, Sequence, Union

from repro.ir.module import Function
from repro.pygen import load

#: Forwarding action codes carried in the NetCL header's ``act`` byte.
ACT_CODES = {
    "pass": 0,
    "drop": 1,
    "send_to_host": 2,
    "send_to_device": 3,
    "multicast": 4,
    "repeat": 5,
    "reflect": 6,
    "reflect_long": 7,
}

_HEADER = struct.Struct("!HHHHBBH")  # src, dst, from, to, comp, act, len
HEADER_SIZE = _HEADER.size

#: ``from``/``to`` value meaning "no device".
NO_DEVICE = 0xFFFF

# -- reliability extension (repro.reliability) ----------------------------------
#
# A reliable NetCL packet carries a fixed-size *trailer* after the data
# section.  Because the header's ``len`` field delimits the data section,
# pre-reliability parsers skip the trailer transparently — the extension
# is backward- and forward-compatible on the wire.
#
#     NetCL header | NetCL data | magic(2) kind(1) seq(4) crc(4)
#
# ``kind`` packs the message kind in the low nibble and flag bits in the
# high nibble; ``crc`` is CRC-32 over the data section, letting the
# receiver detect in-network corruption and recover by retransmission.

_REL_TRAILER = struct.Struct("!HBII")  # magic, kind|flags, seq, crc
REL_TRAILER_SIZE = _REL_TRAILER.size
REL_MAGIC = 0x5EC1

REL_DATA = 0x1  #: a sequence-numbered kernel message
REL_ACK = 0x2  #: a device acknowledgment for one DATA sequence number

REL_FLAG_ACK_REQ = 0x10  #: sender requests a device-side ACK
REL_FLAG_REPLY = 0x20  #: host-generated reply echoing the request's seq


@dataclass(frozen=True)
class FieldSpec:
    """One kernel argument in the message layout.

    ``tail`` marks the §VIII *message tail* extension: the field is
    optional on the wire — a sender may omit it entirely (shorter packet)
    and the device appends it to the message.
    """

    name: str
    width_bits: int
    count: int = 1
    tail: bool = False

    @property
    def bytes_per_element(self) -> int:
        return max(1, (self.width_bits + 7) // 8)


@dataclass(frozen=True)
class KernelSpec:
    """The full specification of one computation's messages (§V-A)."""

    computation: int
    fields: tuple[FieldSpec, ...]

    @classmethod
    def from_kernel(cls, fn: Function) -> "KernelSpec":
        return cls(
            computation=fn.computation or 0,
            fields=tuple(
                FieldSpec(a.name, a.type.width, a.spec, getattr(a, "tail", False))
                for a in fn.args
            ),
        )

    @cached_property
    def plan(self) -> "CodecPlan":
        """The layout lowered once.  Specs equal by value share one plan;
        it is kept on the instance because hashing a spec for the lookup
        costs about as much as encoding a message with the plan."""
        return _plan_for(self)


@dataclass
class Message:
    """Host-side message descriptor: ``ncl::message m(src, dst, comp, to)``.

    ``src``/``dst`` are host ids; ``to`` is the device whose computation
    ``comp`` is explicitly requested (§IV: no implicit computation).
    """

    src: int
    dst: int
    comp: int
    to: int
    from_: int = NO_DEVICE
    act: int = ACT_CODES["pass"]
    spec: Optional[KernelSpec] = None


Values = Sequence[Optional[Union[int, Sequence[int]]]]


#: ``struct`` codes of the element sizes it can lay out; a field of 3, 5,
#: 6 or 7 bytes per element keeps its spec on the per-element loop.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class CodecPlan:
    """The data-section layout of one :class:`KernelSpec`, lowered once.

    Values of the plan's shape (the argument count, each array a ``list``
    of its count) go straight to the generated ``pack``.  Any other shape
    is checked: flattened to one element list and packed with a single
    :class:`struct.Struct` — raw first; only when ``struct`` rejects an
    element (negative, over-wide, not an ``int``) is the list re-packed
    as ``int(x) & mask``.  A spec with a width that does not fill its
    bytes always masks, and one with a 3/5/6/7-byte element runs the
    per-element loop.

    A device rewrites what it decoded and packs it back with :meth:`pack`,
    which trusts the shapes :meth:`decode` made.  On a ``struct`` layout
    both are generated once per plan: one ``unpack_from`` sliced into
    per-argument values, one ``pack`` call over them.
    """

    __slots__ = (
        "computation", "names", "data_bytes", "short",
        "_fields", "_arrays", "_masks", "_sizes", "_exact", "_struct", "_unpack", "_pack",
    )

    def __init__(self, spec: KernelSpec) -> None:
        self.computation = spec.computation
        self.names = tuple(f.name for f in spec.fields)
        fields, masks, sizes = [], [], []
        for f in spec.fields:
            # (name, count, first element, end element, zeros)
            fields.append((f.name, f.count, len(masks), len(masks) + f.count, (0,) * f.count))
            masks += [(1 << f.width_bits) - 1] * f.count
            sizes += [f.bytes_per_element] * f.count
        self._fields = tuple(fields)
        self._arrays = tuple((i, f[1]) for i, f in enumerate(fields) if f[1] != 1)
        self._masks = tuple(masks)
        self._sizes = tuple(sizes)
        self._exact = all(m == (1 << 8 * nb) - 1 for m, nb in zip(masks, sizes))
        self.data_bytes = sum(sizes)
        self._struct = None
        self._unpack, self._pack = self._unpack_each, self._checked
        if all(nb in _STRUCT_CODES for nb in sizes):
            fmt = (f"{count}{_STRUCT_CODES[sizes[a]]}" for _, count, a, _, _ in fields)
            self._struct = struct.Struct("!" + "".join(fmt))
            self._unpack, self._pack = self._generated()
        #: the plan without a trailing ``tail`` field (§VIII), if there is one
        self.short: Optional[CodecPlan] = None
        if spec.fields and spec.fields[-1].tail:
            head = tuple(FieldSpec(f.name, f.width_bits, f.count) for f in spec.fields[:-1])
            self.short = CodecPlan(KernelSpec(spec.computation, head))

    def _generated(self) -> tuple:
        """``(unpack, pack)`` for the ``struct`` layout; ``pack`` masks the
        fields whose width does not fill their bytes and hands values
        ``struct`` rejects to the checked encoder."""
        items, args = [], []
        for i, (_, count, a, b, _) in enumerate(self._fields):
            items.append(f"t[{a}]" if count == 1 else f"list(t[{a}:{b}])")
            mask = self._masks[a]
            if mask == (1 << 8 * self._sizes[a]) - 1:
                args.append(f"V[{i}]" if count == 1 else f"*V[{i}]")
            else:
                args.append(f"V[{i}] & {mask:#x}" if count == 1 else f"*[x & {mask:#x} for x in V[{i}]]")
        source = (
            "def _codec(S, ERR, ENCODE):\n"
            "    unpack_from, pack_ = S.unpack_from, S.pack\n"
            "    def unpack(D):\n"
            "        t = unpack_from(D)\n"
            f"        return [{', '.join(items)}]\n"
            "    def pack(V):\n"
            "        try:\n"
            f"            return pack_({', '.join(args)})\n"
            "        except ERR:\n"
            "            return ENCODE(V)\n"
            "    return unpack, pack\n"
        )
        codec = load(source, f"<codec {self.computation}>", "_codec")
        return codec(self._struct, (struct.error, OverflowError, TypeError), self._checked)

    def encode(self, values: Values) -> bytes:
        """The data section for ``values``; a trailing tail field whose
        value is ``None`` is omitted from it entirely."""
        if self._struct is not None and len(values) == len(self._fields):
            for i, count in self._arrays:
                v = values[i]
                if type(v) is not list or len(v) != count:
                    break
            else:
                return self._pack(values)
        return self._checked(values)

    def _checked(self, values: Values) -> bytes:
        if len(values) != len(self._fields):
            raise ValueError(
                f"computation {self.computation} expects {len(self._fields)} "
                f"arguments, got {len(values)}"
            )
        if self.short is not None and values[-1] is None:
            return self.short._checked(values[:-1])
        flat: list = []
        for (name, count, _, _, zeros), v in zip(self._fields, values):
            if v is None:
                flat.extend(zeros)
            elif type(v) is int and count == 1:
                flat.append(v)
            else:
                before = len(flat)
                try:
                    flat.extend(v)
                except TypeError:  # not iterable: a scalar of any integer type
                    try:
                        flat.append(index(v))
                    except TypeError:
                        raise ValueError(
                            f"field {name}: {v!r} is neither an integer nor a sequence"
                        ) from None
                if len(flat) - before != count:
                    raise ValueError(
                        f"field {name} expects {count} elements, got {len(flat) - before}"
                    )
        if self._struct is None:
            each = zip(flat, self._masks, self._sizes)
            return b"".join([(int(x) & m).to_bytes(nb, "big") for x, m, nb in each])
        if self._exact:
            try:
                return self._struct.pack(*flat)
            except (struct.error, OverflowError):  # the latter: a negative numpy int
                pass
        return self._struct.pack(*[int(x) & m for x, m in zip(flat, self._masks)])

    def pack(self, values: list) -> bytes:
        """:meth:`encode` for values shaped as :meth:`decode` returns them
        (a device packing back what its kernel rewrote), without the
        shape checks."""
        return self._pack(values)

    def decode(self, data: bytes, out: Optional[Values] = None) -> list:
        """The per-argument values of a data section, arrays as fresh
        lists.  ``out`` names the arguments to skip with ``None``, as in
        :func:`unpack`; an omitted tail field reads as zeros.  Any other
        length, shorter or longer, is a ``ValueError``: the section is not
        this computation's layout."""
        n = len(data)
        if n == self.data_bytes:
            values = self._unpack(data)
        elif self.short is not None and n == self.short.data_bytes:
            zeros = self._fields[-1][4]
            values = self.short.decode(data)
            values.append(0 if len(zeros) == 1 else list(zeros))
        else:
            short = f" (or {self.short.data_bytes} without the tail)" if self.short else ""
            raise ValueError(
                f"computation {self.computation}: data section is {n} bytes, "
                f"the layout needs {self.data_bytes}{short}"
            )
        if out is not None:
            for i in range(len(values)):
                if i >= len(out) or out[i] is None:
                    values[i] = None
        return values

    def _unpack_each(self, data: bytes) -> list:
        flat, off = [], 0
        for nb in self._sizes:
            flat.append(int.from_bytes(data[off : off + nb], "big"))
            off += nb
        return [flat[a] if count == 1 else list(flat[a:b]) for _, count, a, b, _ in self._fields]


#: one plan per spec *value*, however many equal specs the builders make
_plan_for = lru_cache(maxsize=None)(CodecPlan)


def pack(msg: Message, spec: KernelSpec, values: Values) -> bytes:
    """Serialize a message.  ``values[i]`` is the i-th kernel argument
    (int, list of ints, or None to send zeros without copying)."""
    data = spec.plan.encode(values)
    return _HEADER.pack(msg.src, msg.dst, msg.from_, msg.to, msg.comp, msg.act, len(data)) + data


def unpack(data: bytes, spec: KernelSpec, out: Optional[Values] = None) -> tuple[Message, list]:
    """Deserialize a NetCL packet.  Returns (message, values).

    ``out`` mirrors the paper's API: a list with ``None`` for arguments to
    skip.  Skipped arguments come back as ``None``.
    """
    if len(data) < HEADER_SIZE:
        raise ValueError(f"short NetCL packet: {len(data)} bytes")
    src, dst, from_, to, comp, act, dlen = _HEADER.unpack_from(data, 0)
    if len(data) - HEADER_SIZE < dlen:
        raise ValueError("truncated NetCL data section")
    values = spec.plan.decode(data[HEADER_SIZE : HEADER_SIZE + dlen], out)
    return Message(src, dst, comp, to, from_=from_, act=act, spec=spec), values


def unpack_packet(packet: "NetCLPacket", spec: KernelSpec, out: Optional[Values] = None) -> list:
    """:func:`unpack` for a packet that never left the process: the
    values of its data section (its header is the packet itself)."""
    return spec.plan.decode(packet.data, out)


@dataclass(slots=True)
class NetCLPacket:
    """An in-flight NetCL packet (header + raw data section).

    ``slots=True``: the simulator copies and touches packets on every hop,
    so attribute access and :meth:`copy` are hot; slots shave the per-
    instance dict and make field access a fixed-offset load.  Every copy
    is a fresh object and none is ever recycled: a host or device may keep
    any packet it was handed.
    """

    src: int
    dst: int
    from_: int
    to: int
    comp: int
    act: int
    data: bytes
    #: simulation bookkeeping (bytes on the wire incl. pseudo ETH/IP/UDP)
    extra_bytes: int = 42  # ETH(14) + IP(20) + UDP(8)
    #: simulation bookkeeping: multicast members a shared transit replica
    #: still covers — the next-hop switch re-expands it (hierarchical
    #: fan-out; never on the wire)
    mcast_members: Optional[tuple] = None
    #: reliability trailer (repro.reliability): kind, flags, seq, data CRC.
    rel_kind: Optional[int] = None
    rel_flags: int = 0
    rel_seq: int = 0
    rel_crc: int = 0

    @classmethod
    def from_message(cls, msg: Message, spec: KernelSpec, values: Values) -> "NetCLPacket":
        """``from_wire(pack(msg, spec, values))`` without the wire."""
        data = spec.plan.encode(values)
        return cls.build(msg.src, msg.dst, msg.from_, msg.to, msg.comp, msg.act, data)

    @classmethod
    def build(
        cls, src: int, dst: int, from_: int, to: int, comp: int, act: int, data: bytes
    ) -> "NetCLPacket":
        """A packet of these header fields, each checked against its width."""
        if (src | dst | from_ | to | len(data)) >> 16 or (comp | act) >> 8:
            # out of the header's range: let struct name the field
            _HEADER.pack(src, dst, from_, to, comp, act, len(data))
        return cls(src, dst, from_, to, comp, act, data)

    @classmethod
    def from_wire(cls, raw: bytes) -> "NetCLPacket":
        if len(raw) < HEADER_SIZE:
            raise ValueError(f"short NetCL packet: {len(raw)} bytes")
        src, dst, from_, to, comp, act, dlen = _HEADER.unpack_from(raw, 0)
        if len(raw) - HEADER_SIZE < dlen:
            raise ValueError("truncated NetCL data section")
        pkt = cls(src, dst, from_, to, comp, act, raw[HEADER_SIZE : HEADER_SIZE + dlen])
        trailer = raw[HEADER_SIZE + dlen :]
        if len(trailer) >= REL_TRAILER_SIZE:
            magic, kind_flags, seq, crc = _REL_TRAILER.unpack_from(trailer, 0)
            if magic == REL_MAGIC:
                pkt.rel_kind = kind_flags & 0x0F
                pkt.rel_flags = kind_flags & 0xF0
                pkt.rel_seq = seq
                pkt.rel_crc = crc
        return pkt

    def to_wire(self) -> bytes:
        raw = (
            _HEADER.pack(
                self.src, self.dst, self.from_, self.to, self.comp, self.act, len(self.data)
            )
            + self.data
        )
        if self.rel_kind is not None:
            raw += _REL_TRAILER.pack(
                REL_MAGIC, (self.rel_kind & 0x0F) | (self.rel_flags & 0xF0),
                self.rel_seq & 0xFFFFFFFF, self.rel_crc & 0xFFFFFFFF,
            )
        return raw

    # -- reliability helpers (repro.reliability) -------------------------------
    def stamp_reliability(self, kind: int, seq: int, flags: int = 0) -> "NetCLPacket":
        """Attach a reliability trailer; the CRC covers the data section."""
        self.rel_kind = kind
        self.rel_flags = flags
        self.rel_seq = seq
        self.rel_crc = zlib.crc32(self.data) & 0xFFFFFFFF
        return self

    def restamp_crc(self) -> None:
        """Refresh the CRC after the data section was rewritten (a device
        re-encoding kernel results into a forwarded reliable packet)."""
        self.rel_crc = zlib.crc32(self.data) & 0xFFFFFFFF

    @property
    def reliability_intact(self) -> bool:
        """Whether the data section still matches the trailer CRC."""
        if self.rel_kind is None:
            return True
        return (zlib.crc32(self.data) & 0xFFFFFFFF) == self.rel_crc

    @property
    def size_bytes(self) -> int:
        rel = REL_TRAILER_SIZE if self.rel_kind is not None else 0
        return self.extra_bytes + HEADER_SIZE + len(self.data) + rel

    def copy(self) -> "NetCLPacket":
        # Direct slot assignment: ~3x faster than re-running the dataclass
        # __init__, and copy() runs once per retransmission / multicast
        # replica / kernel output.
        out = NetCLPacket.__new__(NetCLPacket)
        out.src = self.src
        out.dst = self.dst
        out.from_ = self.from_
        out.to = self.to
        out.comp = self.comp
        out.act = self.act
        out.data = self.data
        out.extra_bytes = self.extra_bytes
        out.mcast_members = self.mcast_members
        out.rel_kind = self.rel_kind
        out.rel_flags = self.rel_flags
        out.rel_seq = self.rel_seq
        out.rel_crc = self.rel_crc
        return out
