"""IR values and instructions.

Every instruction exposes a uniform ``operands`` sequence so passes can
traverse and rewrite def-use edges generically; structured fields (the
global variable of a memory access, the predicate of a compare, ...) are
kept as named attributes alongside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.ir.types import BOOL, ArrayShape, IntType, VOID, VoidType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.blocks import BasicBlock
    from repro.ir.module import GlobalVar
_id_counter = itertools.count()


@dataclass(frozen=True)
class SourceLoc:
    """A source position (1-based line, 1-based column; 0 = unknown column).

    Threaded from the lexer through AST lowering onto every emitted
    instruction so diagnostics (``repro.analysis``) can point at the
    offending source construct.
    """

    line: int
    col: int = 0


class Value:
    """Base class of everything an instruction may use as an operand."""

    type: IntType | VoidType

    def __init__(self, type_: IntType | VoidType, name: str = "") -> None:
        self.type = type_
        self.name = name or f"v{next(_id_counter)}"

    def short(self) -> str:
        return f"%{self.name}"


class Constant(Value):
    """An integer literal, wrapped to its type's range at construction."""

    def __init__(self, type_: IntType, value: int) -> None:
        super().__init__(type_, f"const{next(_id_counter)}")
        self.value = type_.wrap(int(value))

    def short(self) -> str:
        return f"{self.value}:{self.type}"


class Undef(Value):
    """An undefined value (default-initialized local memory, §V-B)."""


class BinOpKind(str, Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    SDIV = "sdiv"
    UREM = "urem"
    SREM = "srem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    SADDU = "saddu"  # saturating unsigned add (ncl::sadd)
    SSUBU = "ssubu"  # saturating unsigned sub (ncl::ssub)

    @property
    def commutative(self) -> bool:
        return self in (
            BinOpKind.ADD,
            BinOpKind.MUL,
            BinOpKind.AND,
            BinOpKind.OR,
            BinOpKind.XOR,
            BinOpKind.SADDU,
        )


class ICmpPred(str, Enum):
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"

    @property
    def negated(self) -> "ICmpPred":
        table = {
            ICmpPred.EQ: ICmpPred.NE,
            ICmpPred.NE: ICmpPred.EQ,
            ICmpPred.ULT: ICmpPred.UGE,
            ICmpPred.ULE: ICmpPred.UGT,
            ICmpPred.UGT: ICmpPred.ULE,
            ICmpPred.UGE: ICmpPred.ULT,
            ICmpPred.SLT: ICmpPred.SGE,
            ICmpPred.SLE: ICmpPred.SGT,
            ICmpPred.SGT: ICmpPred.SLE,
            ICmpPred.SGE: ICmpPred.SLT,
        }
        return table[self]


class AtomicOp(str, Enum):
    """The RMW operation of an :class:`AtomicRMW` instruction.

    Combined with the ``conditional``/``return_new``/``saturating`` flags,
    this covers NetCL's full atomic API (``atomic_add``, ``atomic_sadd_new``,
    ``atomic_cond_add_new``, ``atomic_cas``, ...).  Each combination maps
    onto a single Tofino SALU microprogram (§V-D).
    """

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"
    MAX = "max"
    EXCH = "exch"  # unconditional swap
    CAS = "cas"  # compare-and-swap; ``compare`` operand used
    READ = "read"  # plain atomic load (no modification)
    WRITE = "write"  # plain atomic store


class ActionKind(str, Enum):
    """NetCL forwarding actions (Table II of the paper)."""

    PASS = "pass"  # continue to the message's destination
    DROP = "drop"  # exit the network immediately
    SEND_TO_HOST = "send_to_host"
    SEND_TO_DEVICE = "send_to_device"
    MULTICAST = "multicast"
    REPEAT = "repeat"  # execute the kernel again (recirculate)
    REFLECT = "reflect"  # back to the previous node (source or last device)
    REFLECT_LONG = "reflect_long"  # back to the source host

    @property
    def takes_target(self) -> bool:
        return self in (
            ActionKind.SEND_TO_HOST,
            ActionKind.SEND_TO_DEVICE,
            ActionKind.MULTICAST,
        )


class Action:
    """A fully-specified forwarding decision: kind plus optional target id."""

    __slots__ = ("kind", "target")

    def __init__(self, kind: ActionKind, target: Optional["Value"] = None) -> None:
        if kind.takes_target and target is None:
            raise ValueError(f"action {kind.value} requires a target operand")
        if not kind.takes_target and target is not None:
            raise ValueError(f"action {kind.value} takes no target operand")
        self.kind = kind
        self.target = target

    def __repr__(self) -> str:
        if self.target is not None:
            return f"{self.kind.value}({self.target.short()})"
        return f"{self.kind.value}()"


class Instruction(Value):
    """Base class for all IR instructions.

    Subclasses declare their value operands via ``operands``; rewriting an
    operand goes through :meth:`replace_operand` so that structured views
    (e.g. phi incoming lists) stay consistent.
    """

    parent: Optional["BasicBlock"]

    def __init__(self, type_: IntType | VoidType, name: str = "") -> None:
        super().__init__(type_, name)
        self.parent = None
        #: source span this instruction was lowered from (None for
        #: synthesized IR, e.g. pass-created instructions without an origin).
        self.loc: Optional[SourceLoc] = None

    # -- operand protocol ---------------------------------------------------
    @property
    def operands(self) -> tuple[Value, ...]:
        return ()

    @property
    def is_terminator(self) -> bool:
        return False

    #: True if the instruction writes memory or controls forwarding.
    has_side_effects = False


class BinOp(Instruction):
    def __init__(self, kind: BinOpKind, a: Value, b: Value, name: str = "") -> None:
        super().__init__(a.type, name)
        self.kind = kind
        self.a = a
        self.b = b

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.a, self.b)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.a is old:
            self.a = new
        if self.b is old:
            self.b = new

    def __repr__(self) -> str:
        return f"%{self.name} = {self.kind.value} {self.a.short()}, {self.b.short()}"


class ICmp(Instruction):
    def __init__(self, pred: ICmpPred, a: Value, b: Value, name: str = "") -> None:
        super().__init__(BOOL, name)
        self.pred = pred
        self.a = a
        self.b = b

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.a, self.b)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.a is old:
            self.a = new
        if self.b is old:
            self.b = new

    def __repr__(self) -> str:
        return f"%{self.name} = icmp {self.pred.value} {self.a.short()}, {self.b.short()}"


class Select(Instruction):
    def __init__(self, cond: Value, t: Value, f: Value, name: str = "") -> None:
        super().__init__(t.type, name)
        self.cond = cond
        self.t = t
        self.f = f

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.cond, self.t, self.f)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.cond is old:
            self.cond = new
        if self.t is old:
            self.t = new
        if self.f is old:
            self.f = new

    def __repr__(self) -> str:
        return (
            f"%{self.name} = select {self.cond.short()}, "
            f"{self.t.short()}, {self.f.short()}"
        )


class CastKind(str, Enum):
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    BITCAST = "bitcast"  # same-width signedness reinterpretation


class Cast(Instruction):
    def __init__(self, kind: CastKind, value: Value, to: IntType, name: str = "") -> None:
        super().__init__(to, name)
        self.kind = kind
        self.value = value
        #: True when the source wrote an explicit cast (e.g. ``(u8)x``);
        #: implicit truncations are lint candidates, explicit ones are not.
        self.explicit = False

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.value,)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new

    def __repr__(self) -> str:
        return f"%{self.name} = {self.kind.value} {self.value.short()} to {self.type}"


class Alloca(Instruction):
    """A thread-private local slot (scalar or small array).

    Scalars are promoted to SSA registers by mem2reg; arrays become P4
    header stacks indexed through index tables (Fig. 9 of the paper).
    """

    def __init__(self, elem: IntType, shape: ArrayShape = ArrayShape(), name: str = "") -> None:
        super().__init__(elem, name)
        self.elem = elem
        self.shape = shape

    @property
    def is_scalar(self) -> bool:
        return self.shape.rank == 0

    def __repr__(self) -> str:
        return f"%{self.name} = alloca {self.elem}{self.shape if self.shape.dims else ''}"


class Load(Instruction):
    """Read a local slot (optionally at a per-dimension index list)."""

    def __init__(self, slot: Alloca, indices: Sequence[Value] = (), name: str = "") -> None:
        super().__init__(slot.elem, name)
        self.slot = slot
        self.indices = list(indices)

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.slot, *self.indices)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.slot is old and isinstance(new, Alloca):
            self.slot = new
        self.indices = [new if i is old else i for i in self.indices]

    def __repr__(self) -> str:
        idx = "".join(f"[{i.short()}]" for i in self.indices)
        return f"%{self.name} = load %{self.slot.name}{idx}"


class Store(Instruction):
    """Write a local slot (optionally at a per-dimension index list)."""

    def __init__(self, slot: Alloca, value: Value, indices: Sequence[Value] = ()) -> None:
        super().__init__(VOID)
        self.slot = slot
        self.value = value
        self.indices = list(indices)

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.slot, self.value, *self.indices)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.slot is old and isinstance(new, Alloca):
            self.slot = new
        if self.value is old:
            self.value = new
        self.indices = [new if i is old else i for i in self.indices]

    has_side_effects = True

    def __repr__(self) -> str:
        idx = "".join(f"[{i.short()}]" for i in self.indices)
        return f"store %{self.slot.name}{idx}, {self.value.short()}"


class LoadMsg(Instruction):
    """Read a by-reference kernel argument (a NetCL message field)."""

    def __init__(self, field: str, elem: IntType, index: Optional[Value] = None, name: str = "") -> None:
        super().__init__(elem, name)
        self.field = field
        self.index = index

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.index,) if self.index is not None else ()

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.index is old:
            self.index = new

    def __repr__(self) -> str:
        idx = f"[{self.index.short()}]" if self.index is not None else ""
        return f"%{self.name} = loadmsg @{self.field}{idx}"


class StoreMsg(Instruction):
    """Write a by-reference kernel argument (visible to all receivers)."""

    def __init__(self, field: str, value: Value, index: Optional[Value] = None) -> None:
        super().__init__(VOID)
        self.field = field
        self.value = value
        self.index = index

    @property
    def operands(self) -> tuple[Value, ...]:
        ops: list[Value] = [self.value]
        if self.index is not None:
            ops.append(self.index)
        return tuple(ops)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new
        if self.index is old:
            self.index = new

    has_side_effects = True

    def __repr__(self) -> str:
        idx = f"[{self.index.short()}]" if self.index is not None else ""
        return f"storemsg @{self.field}{idx}, {self.value.short()}"


class GlobalAccess(Instruction):
    """Common base for instructions touching global device memory."""

    gv: "GlobalVar"
    indices: list[Value]

    def _fmt_indices(self) -> str:
        return "".join(f"[{i.short()}]" for i in self.indices)


class LoadGlobal(GlobalAccess):
    def __init__(self, gv: "GlobalVar", indices: Sequence[Value] = (), name: str = "") -> None:
        super().__init__(gv.elem, name)
        self.gv = gv
        self.indices = list(indices)

    @property
    def operands(self) -> tuple[Value, ...]:
        return tuple(self.indices)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.indices = [new if i is old else i for i in self.indices]

    def __repr__(self) -> str:
        return f"%{self.name} = gload @{self.gv.name}{self._fmt_indices()}"


class StoreGlobal(GlobalAccess):
    def __init__(self, gv: "GlobalVar", value: Value, indices: Sequence[Value] = ()) -> None:
        super().__init__(VOID)
        self.gv = gv
        self.value = value
        self.indices = list(indices)

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.value, *self.indices)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new
        self.indices = [new if i is old else i for i in self.indices]

    has_side_effects = True

    def __repr__(self) -> str:
        return f"gstore @{self.gv.name}{self._fmt_indices()}, {self.value.short()}"


class AtomicRMW(GlobalAccess):
    """Atomic read-modify-write on global memory.

    ``conditional`` gates the modification on a runtime predicate,
    ``return_new`` selects whether the new or old value is produced, and
    ``saturating`` selects clamped arithmetic.  The semantics of the
    conditional/new combination follow §V-E: a guarded-off operation
    returns the *old* memory value.
    """

    def __init__(
        self,
        op: AtomicOp,
        gv: "GlobalVar",
        indices: Sequence[Value],
        operand: Optional[Value] = None,
        *,
        cond: Optional[Value] = None,
        compare: Optional[Value] = None,
        return_new: bool = False,
        saturating: bool = False,
        name: str = "",
    ) -> None:
        super().__init__(gv.elem, name)
        self.op = op
        self.gv = gv
        self.indices = list(indices)
        self.operand = operand
        self.cond = cond
        self.compare = compare
        self.return_new = return_new
        self.saturating = saturating

    @property
    def operands(self) -> tuple[Value, ...]:
        ops: list[Value] = list(self.indices)
        for extra in (self.operand, self.cond, self.compare):
            if extra is not None:
                ops.append(extra)
        return tuple(ops)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.indices = [new if i is old else i for i in self.indices]
        if self.operand is old:
            self.operand = new
        if self.cond is old:
            self.cond = new
        if self.compare is old:
            self.compare = new

    has_side_effects = True

    def mnemonic(self) -> str:
        parts = ["atomic"]
        if self.cond is not None:
            parts.append("cond")
        if self.saturating:
            parts.append("s")
        parts.append(self.op.value)
        if self.return_new:
            parts.append("new")
        return "_".join(parts)

    def __repr__(self) -> str:
        extra = ""
        if self.operand is not None:
            extra += f", {self.operand.short()}"
        if self.compare is not None:
            extra += f", cmp={self.compare.short()}"
        if self.cond is not None:
            extra += f", if={self.cond.short()}"
        return (
            f"%{self.name} = {self.mnemonic()} @{self.gv.name}"
            f"{self._fmt_indices()}{extra}"
        )


class Lookup(GlobalAccess):
    """Hit/miss probe of ``_lookup_`` memory (a match-action table)."""

    def __init__(self, gv: "GlobalVar", key: Value, name: str = "") -> None:
        super().__init__(BOOL, name)
        self.gv = gv
        self.key = key
        self.indices = []

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.key,)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.key is old:
            self.key = new

    def __repr__(self) -> str:
        return f"%{self.name} = lookup @{self.gv.name}, {self.key.short()}"


class LookupVal(GlobalAccess):
    """Value side of a kv/rv lookup: matched value on hit, ``default`` on miss.

    Code generation pairs a :class:`LookupVal` with the :class:`Lookup` of the
    same table and key into a single MAT apply.
    """

    def __init__(self, gv: "GlobalVar", key: Value, default: Value, name: str = "") -> None:
        super().__init__(gv.value_type or gv.elem, name)
        self.gv = gv
        self.key = key
        self.default = default
        self.indices = []

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.key, self.default)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.key is old:
            self.key = new
        if self.default is old:
            self.default = new

    def __repr__(self) -> str:
        return (
            f"%{self.name} = lookupval @{self.gv.name}, {self.key.short()}, "
            f"miss={self.default.short()}"
        )


class Intrinsic(Instruction):
    """A target or NetCL builtin: hashes, byte swaps, RNG, device.id, ...

    The set of recognized intrinsic names lives in
    :mod:`repro.lang.builtins`; the interpreter and backends dispatch on
    ``callee``.
    """

    def __init__(self, callee: str, args: Sequence[Value], type_: IntType, name: str = "") -> None:
        super().__init__(type_, name)
        self.callee = callee
        self.args = list(args)

    @property
    def operands(self) -> tuple[Value, ...]:
        return tuple(self.args)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.args = [new if a is old else a for a in self.args]

    @property
    def has_side_effects(self) -> bool:
        # RNG draws advance generator state; everything else is pure.
        return self.callee == "ncl.rand"

    def __repr__(self) -> str:
        args = ", ".join(a.short() for a in self.args)
        return f"%{self.name} = call {self.callee}({args})"


class Phi(Instruction):
    """SSA phi node; eliminated before code generation (§VI-B)."""

    def __init__(self, type_: IntType, name: str = "") -> None:
        super().__init__(type_, name)
        self.incoming: list[tuple[Value, "BasicBlock"]] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        self.incoming.append((value, block))

    def incoming_for(self, block: "BasicBlock") -> Optional[Value]:
        for v, b in self.incoming:
            if b is block:
                return v
        return None

    @property
    def operands(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self.incoming)

    def replace_operand(self, old: Value, new: Value) -> None:
        self.incoming = [(new if v is old else v, b) for v, b in self.incoming]

    def replace_incoming_block(self, old: "BasicBlock", new: "BasicBlock") -> None:
        self.incoming = [(v, new if b is old else b) for v, b in self.incoming]

    def __repr__(self) -> str:
        inc = ", ".join(f"[{v.short()}, {b.name}]" for v, b in self.incoming)
        return f"%{self.name} = phi {inc}"


# -- terminators -------------------------------------------------------------


class Terminator(Instruction):
    @property
    def is_terminator(self) -> bool:
        return True

    has_side_effects = True

    def successors(self) -> tuple["BasicBlock", ...]:
        return ()


class Jmp(Terminator):
    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(VOID)
        self.target = target

    def successors(self) -> tuple["BasicBlock", ...]:
        return (self.target,)

    def __repr__(self) -> str:
        return f"jmp {self.target.name}"


class Br(Terminator):
    def __init__(self, cond: Value, then_: "BasicBlock", else_: "BasicBlock") -> None:
        super().__init__(VOID)
        self.cond = cond
        self.then_ = then_
        self.else_ = else_

    @property
    def operands(self) -> tuple[Value, ...]:
        return (self.cond,)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.cond is old:
            self.cond = new

    def successors(self) -> tuple["BasicBlock", ...]:
        return (self.then_, self.else_)

    def __repr__(self) -> str:
        return f"br {self.cond.short()}, {self.then_.name}, {self.else_.name}"


class Ret(Terminator):
    """Kernel exit carrying a forwarding :class:`Action`.

    A bare ``ret`` (``action`` None) is the implicit ``pass()`` (§V-A).
    Lowering inlines every ``_net_`` function, so no module keeps a
    ``ret`` with a ``value``.
    """

    def __init__(self, action: Optional[Action] = None, value: Optional[Value] = None) -> None:
        super().__init__(VOID)
        self.action = action
        self.value = value

    @property
    def operands(self) -> tuple[Value, ...]:
        ops: list[Value] = []
        if self.value is not None:
            ops.append(self.value)
        if self.action is not None and self.action.target is not None:
            ops.append(self.action.target)
        return tuple(ops)

    def replace_operand(self, old: Value, new: Value) -> None:
        if self.value is old:
            self.value = new
        if self.action is not None and self.action.target is old:
            self.action = Action(self.action.kind, new)

    def __repr__(self) -> str:
        if self.action is not None:
            return f"ret {self.action!r}"
        if self.value is not None:
            return f"ret {self.value.short()}"
        return "ret"
