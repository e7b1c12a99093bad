"""Dataclass-schema IDL: typed RPC messages on 32-bit kernel words.

An RPC method's request and response are plain dataclasses whose fields
are annotated with wire-type markers (:data:`u8` … :data:`u64`,
:func:`vec`).  :func:`encode` lowers an instance to the flat list of
32-bit words the switch kernels see (``u64`` splits into hi/lo words, a
``vec(n)`` is padded to its declared length); :func:`decode` is the
exact inverse.  Keeping the wire unit at one kernel word means a
response can be memoized verbatim in the ToR's ``MemoData`` registers
and a gather payload merged element-wise by the spine — the IDL is the
contract between the host library and ``apps/netcl/rpc.ncl``.

The module also owns the wire constants mirrored by the kernel source
(op codes, payload word counts) and the deterministic memoization key:
a CRC-based 64-bit digest of the encoded request, *not* Python's
``hash()``, so two processes (and two runs) derive the same key for the
same call.
"""

from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Optional

from repro.service.qos import TenantQoS

# -- wire constants mirrored in apps/netcl/rpc.ncl --------------------------------
OP_REQ = 1
OP_RSP = 2
OP_PARTIAL = 3

#: value words in a unary request/response (kernel ``RPC_WORDS``).
RPC_WORDS = 8
#: value words in a scatter-gather payload (kernel ``SG_WORDS``).
SG_WORDS = 8
#: method-id space at the edge (kernel ``NUM_METHODS``).
NUM_METHODS = 16
#: memoization lines per ToR (kernel ``MEMO_LINES``).
MEMO_LINES = 512


class _Scalar:
    """A fixed-width unsigned integer wire type."""

    def __init__(self, bits: int, name: str) -> None:
        self.bits = bits
        self.name = name
        self.words = 2 if bits == 64 else 1
        self.mask = (1 << bits) - 1


class _Vector:
    """A fixed-length vector of 32-bit words."""

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("vec length must be positive")
        self.count = count
        self.words = count


u8 = _Scalar(8, "u8")
u16 = _Scalar(16, "u16")
u32 = _Scalar(32, "u32")
u64 = _Scalar(64, "u64")


def vec(count: int) -> _Vector:
    """A field of ``count`` 32-bit words (padded with zeros on encode)."""
    return _Vector(count)


_EVAL_NS = {
    "u8": u8, "u16": u16, "u32": u32, "u64": u64, "vec": vec,
    "RPC_WORDS": RPC_WORDS, "SG_WORDS": SG_WORDS,
}


def _wire_type(annotation, owner):
    """Resolve a field annotation to its wire-type marker.

    Annotations may arrive as strings (``from __future__ import
    annotations`` in the schema's module), so string forms are evaluated
    against the marker namespace plus the globals of the module that
    defined the schema class ``owner`` (so ``vec(MY_CONSTANT)`` resolves).
    """
    if isinstance(annotation, (_Scalar, _Vector)):
        return annotation
    if isinstance(annotation, str):
        module = sys.modules.get(owner.__module__)
        ns = _EVAL_NS if module is None else {**vars(module), **_EVAL_NS}
        try:
            resolved = eval(annotation, {"__builtins__": {}}, ns)  # noqa: S307
        except Exception as exc:
            raise TypeError(f"unresolvable wire annotation {annotation!r}") from exc
        if isinstance(resolved, (_Scalar, _Vector)):
            return resolved
    raise TypeError(f"field annotation {annotation!r} is not a wire type")


@lru_cache(maxsize=None)
def _wire_layout(cls) -> tuple:
    """``(field name, wire type)`` per field of a schema dataclass,
    resolved once per class."""
    if not is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass schema")
    return tuple((f.name, _wire_type(f.type, cls)) for f in fields(cls))


def word_count(cls) -> int:
    """How many 32-bit words an instance of ``cls`` encodes to."""
    return sum(wt.words for _, wt in _wire_layout(cls))


def encode(obj) -> list[int]:
    """Lower a schema dataclass instance to its flat 32-bit words."""
    words: list[int] = []
    for name, wt in _wire_layout(type(obj)):
        value = getattr(obj, name)
        if isinstance(wt, _Vector):
            value = list(value or [])
            if len(value) > wt.count:
                raise ValueError(
                    f"{type(obj).__name__}.{name}: {len(value)} words "
                    f"exceed vec({wt.count})"
                )
            words.extend(int(v) & 0xFFFFFFFF for v in value)
            words.extend(0 for _ in range(wt.count - len(value)))
        elif wt.bits == 64:
            v = int(value) & wt.mask
            words.append(v >> 32)
            words.append(v & 0xFFFFFFFF)
        else:
            words.append(int(value) & wt.mask)
    return words


def decode(cls, words) -> object:
    """Rebuild a schema dataclass instance from its flat words."""
    values = []
    at = 0
    words = list(words)
    for name, wt in _wire_layout(cls):
        if at + wt.words > len(words):
            raise ValueError(
                f"{cls.__name__}: {len(words)} words too short at {name}"
            )
        if isinstance(wt, _Vector):
            values.append(list(words[at : at + wt.count]))
        elif wt.bits == 64:
            values.append((words[at] << 32) | words[at + 1])
        else:
            values.append(words[at] & wt.mask)
        at += wt.words
    return cls(*values)


def request_key(method_id: int, words) -> int:
    """Deterministic 64-bit memoization key for an encoded request.

    Two CRC32s over the packed words (the second salted with the method
    id) — stable across processes and runs, unlike Python's randomized
    ``hash()``.  Key collisions only cost a wrong memo line, and the
    version compare plus the server round-trip keep correctness.
    """
    data = struct.pack(f"!{len(words)}I", *(w & 0xFFFFFFFF for w in words))
    lo = zlib.crc32(data)
    hi = zlib.crc32(data, 0x9E3779B9 ^ (method_id & 0xFF))
    return ((hi << 32) | lo) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RpcMethod:
    """One method of an RPC service schema."""

    name: str
    method_id: int
    request: type
    response: type
    #: "unary" (client -> one server, memoizable) or "gather"
    #: (client -> FANOUT replicas, switch-merged reply).
    kind: str = "unary"
    #: unary only: replies are pure functions of the request, so the ToR
    #: may serve them from its memo cache.
    idempotent: bool = False
    #: gather only: the spine merge policy ("sum", "min", "max", "vote",
    #: "topk" — see repro.rpc.policies).
    policy: str = "sum"
    #: per-method edge admission budget (max_pps/burst); None = unlimited.
    qos: Optional[TenantQoS] = None


class RpcSchema:
    """A validated set of :class:`RpcMethod` definitions."""

    def __init__(self, methods) -> None:
        self.methods = list(methods)
        self.by_id: dict[int, RpcMethod] = {}
        self.by_name: dict[str, RpcMethod] = {}
        from repro.rpc.policies import POLICY_CODES

        for m in self.methods:
            if not 0 <= m.method_id < NUM_METHODS:
                raise ValueError(
                    f"{m.name}: method_id {m.method_id} outside [0, {NUM_METHODS})"
                )
            if m.method_id in self.by_id or m.name in self.by_name:
                raise ValueError(f"duplicate method {m.name}/{m.method_id}")
            if m.kind not in ("unary", "gather"):
                raise ValueError(f"{m.name}: unknown kind {m.kind!r}")
            limit = RPC_WORDS if m.kind == "unary" else SG_WORDS
            for which, cls in (("request", m.request), ("response", m.response)):
                n = word_count(cls)
                if n > limit:
                    raise ValueError(
                        f"{m.name}: {which} is {n} words, wire carries {limit}"
                    )
            if m.kind == "gather" and m.policy not in POLICY_CODES:
                raise ValueError(f"{m.name}: unknown policy {m.policy!r}")
            self.by_id[m.method_id] = m
            self.by_name[m.name] = m

    @property
    def gather_methods(self) -> list[RpcMethod]:
        return [m for m in self.methods if m.kind == "gather"]
