"""Modules, functions, arguments, and global device memory."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from repro.ir.blocks import BasicBlock
from repro.ir.instructions import Instruction, SourceLoc, Value
from repro.ir.types import ArrayShape, IntType


class MemSpace(str, Enum):
    """Memory class of a global declaration (§V-B of the paper)."""

    NET = "net"  # _net_: device-writable register memory
    MANAGED = "managed"  # _managed_: also host-writable via the control plane
    LOOKUP = "lookup"  # _lookup_: match-action table, searched not indexed
    MANAGED_LOOKUP = "managed_lookup"  # _managed_ _lookup_

    @property
    def is_lookup(self) -> bool:
        return self in (MemSpace.LOOKUP, MemSpace.MANAGED_LOOKUP)

    @property
    def is_managed(self) -> bool:
        return self in (MemSpace.MANAGED, MemSpace.MANAGED_LOOKUP)


class LookupKind(str, Enum):
    """Match discipline of ``_lookup_`` memory (Table I lookup types)."""

    SET = "set"  # scalar array: membership test, exact match
    KV = "kv"  # ncl::kv<K,V>: exact match, returns value
    RV = "rv"  # ncl::rv<R,V>: range match lo <= x <= hi, returns value


@dataclass
class LookupEntry:
    """One static initializer entry of a lookup array."""

    key_lo: int
    key_hi: int
    value: Optional[int] = None

    def matches(self, key: int) -> bool:
        return self.key_lo <= key <= self.key_hi


class GlobalVar(Value):
    """Statically-allocated global device memory.

    Capacity is fixed by the declaration for the lifetime of the program.
    Register-space globals are zero-initialized; lookup-space globals carry
    their initializer entries.
    """

    def __init__(
        self,
        name: str,
        elem: IntType,
        shape: ArrayShape = ArrayShape(),
        space: MemSpace = MemSpace.NET,
        locations: frozenset[int] = frozenset(),
        lookup_kind: Optional[LookupKind] = None,
        key_type: Optional[IntType] = None,
        value_type: Optional[IntType] = None,
        entries: Optional[list[LookupEntry]] = None,
        source_line: Optional[int] = None,
        col: int = 0,
    ) -> None:
        super().__init__(elem, name)
        self.name = name
        self.elem = elem
        self.shape = shape
        self.space = space
        self.locations = locations  # empty set = location-less (everywhere)
        self.lookup_kind = lookup_kind
        self.key_type = key_type
        self.value_type = value_type
        self.entries: list[LookupEntry] = entries or []
        self.source_line = source_line
        self.loc: Optional[SourceLoc] = (
            SourceLoc(source_line, col) if source_line is not None else None
        )

    @property
    def capacity(self) -> int:
        return self.shape.num_elements

    def placed_at(self, device_id: int) -> bool:
        """Whether this declaration is included when compiling ``device_id``."""
        return not self.locations or device_id in self.locations

    def __repr__(self) -> str:
        loc = f" _at({','.join(map(str, sorted(self.locations)))})" if self.locations else ""
        return f"@{self.name}: {self.space.value} {self.elem}{self.shape}{loc}"


class Argument(Value):
    """A kernel or net-function parameter.

    ``byref`` arguments alias NetCL message fields (updates visible to all
    receivers, §V-A); ``spec`` is the element count of the message field the
    argument occupies (the kernel *specification*).
    """

    def __init__(
        self,
        name: str,
        type_: IntType,
        *,
        byref: bool = False,
        spec: int = 1,
        is_array: bool = False,
        tail: bool = False,
    ) -> None:
        super().__init__(type_, name)
        self.byref = byref
        self.spec = spec
        self.is_array = is_array
        #: _tail_ argument: optional on the wire (§VIII extension)
        self.tail = tail

    def __repr__(self) -> str:
        ref = "&" if self.byref else ""
        arr = f"[{self.spec}]" if self.is_array else ""
        return f"{self.type}{ref} {self.name}{arr}"


class FunctionKind(str, Enum):
    KERNEL = "kernel"
    NETFN = "netfn"


class Function:
    """A kernel (``_kernel(c)``) or net function (``_net_``) in IR form."""

    def __init__(
        self,
        name: str,
        kind: FunctionKind,
        args: Sequence[Argument],
        *,
        computation: Optional[int] = None,
        locations: frozenset[int] = frozenset(),
        return_type: Optional[IntType] = None,
        source_line: Optional[int] = None,
        col: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.args = list(args)
        self.computation = computation
        self.locations = locations
        self.return_type = return_type
        self.blocks: list[BasicBlock] = []
        self.source_line = source_line
        self.loc: Optional[SourceLoc] = (
            SourceLoc(source_line, col) if source_line is not None else None
        )

    # -- block management ----------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def new_block(self, name: str = "") -> BasicBlock:
        if name:
            existing = {b.name for b in self.blocks}
            if name in existing:
                i = 1
                while f"{name}{i}" in existing:
                    i += 1
                name = f"{name}{i}"
        bb = BasicBlock(name, parent=self)
        self.blocks.append(bb)
        return bb

    def remove_block(self, bb: BasicBlock) -> None:
        self.blocks.remove(bb)
        bb.parent = None

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    @property
    def is_kernel(self) -> bool:
        return self.kind == FunctionKind.KERNEL

    def placed_at(self, device_id: int) -> bool:
        return not self.locations or device_id in self.locations

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        tag = f"_kernel({self.computation})" if self.is_kernel else "_net_"
        loc = f" _at({','.join(map(str, sorted(self.locations)))})" if self.locations else ""
        return f"{tag}{loc} {self.name}({args})"


def rewrite_operands(inst: Instruction, mapping: dict[Value, Value]) -> None:
    """Point each operand of ``inst`` that ``mapping`` replaces at its
    replacement, following a replacement that is itself replaced."""
    for op in inst.operands:
        new = mapping.get(op)
        if new is not None:
            while new in mapping:
                new = mapping[new]
            inst.replace_operand(op, new)


def replace_uses(fn: Function, mapping: dict[Value, Value]) -> None:
    """Rewrite every use in ``fn`` of a key of ``mapping`` in one sweep: a
    pass collects its replacements and applies them once."""
    if mapping:
        for inst in fn.instructions():
            rewrite_operands(inst, mapping)


class Module:
    """A compiled NetCL translation unit: globals plus functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.globals: dict[str, GlobalVar] = {}
        self.functions: dict[str, Function] = {}
        #: (function name, line, col) of source statements the frontend
        #: dropped as unreachable — consumed by the NCL006 lint.
        self.dropped_statements: list[tuple[str, int, int]] = []
        #: (kernel, step limit) -> its generated Python, or None when it
        #: stays on the interpreter.  Filled by
        #: :class:`repro.ir.compiled.KernelEngine` at a kernel's first
        #: dispatch and shared by every engine over this module; lives
        #: here so it dies with the program.
        self.kernel_code: dict[tuple[Function, int], object] = {}
        #: the device id the pass pipeline ran for (None: every device)
        self.compiled_for: Optional[int] = None

    def add_global(self, gv: GlobalVar) -> GlobalVar:
        if gv.name in self.globals:
            raise ValueError(f"duplicate global {gv.name}")
        self.globals[gv.name] = gv
        return gv

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def kernels(self) -> list[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def site(self, device_id: int) -> int:
        """The device whose ``_at`` placement a device ``device_id`` running
        this module takes its kernels and globals from: the one the module
        was compiled for, so a standby runs its primary's program, or
        ``device_id`` itself for a module compiled for every device."""
        return device_id if self.compiled_for is None else self.compiled_for

    def dump(self) -> str:
        """Human-readable listing of the whole module (for tests/debugging)."""
        lines: list[str] = [f"; module {self.name}"]
        for gv in self.globals.values():
            lines.append(repr(gv))
        for fn in self.functions.values():
            lines.append("")
            lines.append(repr(fn) + " {")
            for bb in fn.blocks:
                lines.append(f"{bb.name}:")
                for inst in bb.instructions:
                    lines.append(f"  {inst!r}")
            lines.append("}")
        return "\n".join(lines)
