"""Compiled kernel engine: what devices run.

:class:`~repro.ir.interp.IRInterpreter` is the reference semantics of a
kernel and walks the IR one instruction at a time.  After the pipeline a
kernel is a small loop-free DAG, so :class:`KernelEngine` lowers it once
to straight-line Python — a third backend beside ``tna`` and ``v1model``
— and runs that instead:

* the generated ``kernel(V, H)`` reads and writes the message as ``V``,
  the data section's values in argument order exactly as
  :meth:`~repro.runtime.message.CodecPlan.decode` returns them, and reads
  ``msg.src`` etc. as attributes of ``H``, the packet header;
* SSA values become Python locals; a width mask is emitted only where the
  operand is not already known to fit, and constants are folded into it;
* constant indices are bounds-checked here, dynamic ones by a generated
  ``if`` that raises the interpreter's own :class:`InterpError` message;
* blocks are emitted in topological order behind an ``if _b == n:``
  dispatch, so side effects happen in the interpreter's order;
* a target-less exit returns a shared outcome of
  :data:`~repro.ir.interp.PLAIN_OUTCOMES`;
* register arrays, the lookup method and the delegates below are bound
  per :class:`GlobalState` by calling the generated ``_bind`` factory;
* ``sdiv``/``udiv``/``rem``/shifts, intrinsics (hence the device ``rng``)
  and table lookup call :func:`~repro.ir.interp.binop`, the interpreter's
  ``_intrinsic`` and :meth:`GlobalState.lookup`, so those semantics exist
  once.

Every execution enters through the inherited
:meth:`IRInterpreter.run_kernel`; the engine overrides only ``_kernel``.
A device passes its decoded values and packet straight through; a
:class:`KernelMessage` (tests, translation validation) is viewed as both.
Whatever cannot be translated (a cycle, ``Phi``, a store to a
header field, malformed access shapes), cannot be bound (register memory
the state lays out otherwise) or arrives with a message not shaped as
the code reads it runs on the interpreter, exact in every corner.

Contract: a ``Function`` handed to an engine is frozen — its code is
generated once, on its first dispatch on any device, and kept on the
owning :class:`Module` (``Module.kernel_code``) for the module's
lifetime.  Every engine over that module — the racks of a fabric or the
tenants of a service that share one cached compile, a device after
``reset_state()`` — only *binds* that code to its own state and rng.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import predecessor_map
from repro.ir.instructions import (
    ActionKind,
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    BinOpKind,
    Br,
    Cast,
    CastKind,
    Constant,
    ICmp,
    ICmpPred,
    Instruction,
    Intrinsic,
    Jmp,
    Load,
    LoadGlobal,
    LoadMsg,
    Lookup,
    LookupVal,
    Ret,
    Select,
    Store,
    StoreGlobal,
    StoreMsg,
    Terminator,
    Undef,
    Value,
)
from repro.ir.interp import (
    HEADER_FIELDS,
    PLAIN_OUTCOMES,
    ActionOutcome,
    GlobalState,
    InterpError,
    IRInterpreter,
    KernelMessage,
    binop,
)
from repro.ir.module import Argument, Function, GlobalVar
from repro.ir.types import IntType
from repro.pygen import lit as _lit, load, storage_bits

#: binary operators that commute with truncation (``(a op b) & m`` equals
#: the interpreter's ``((a & m) op (b & m)) & m``); every other kind is
#: delegated to :func:`~repro.ir.interp.binop`.
_MODULAR_OPS = {
    BinOpKind.ADD: "+",
    BinOpKind.SUB: "-",
    BinOpKind.MUL: "*",
    BinOpKind.AND: "&",
    BinOpKind.OR: "|",
    BinOpKind.XOR: "^",
}

_UNSIGNED_PREDS = {
    ICmpPred.EQ: "==",
    ICmpPred.NE: "!=",
    ICmpPred.ULT: "<",
    ICmpPred.ULE: "<=",
    ICmpPred.UGT: ">",
    ICmpPred.UGE: ">=",
}

#: signed order is unsigned order with the sign bit flipped on both sides
_SIGNED_PREDS = {
    ICmpPred.SLT: "<",
    ICmpPred.SLE: "<=",
    ICmpPred.SGT: ">",
    ICmpPred.SGE: ">=",
}

#: a field a :class:`KernelMessage` lacks
_ABSENT = object()


class _Untranslatable(Exception):
    """The function stays on the interpreter (the reason is the message)."""


class _Op(NamedTuple):
    """An operand as Python text plus what is known about its value."""

    atom: str  #: a local name or an integer literal
    bits: Optional[int]  #: value is known to lie in [0, 2**bits); None = unknown
    const: Optional[int] = None  #: the value itself when it is a literal


@dataclass(frozen=True)
class KernelCode:
    """One kernel lowered to Python, not yet bound to any device state."""

    source: str
    #: the generated ``_bind(E, AO, BIN, INTR, LK, K, R)``
    factory: Callable
    #: IR objects the code refers to as ``K0..Kn`` (instructions it
    #: delegates, lookup globals, action kinds, shared outcomes)
    consts: tuple
    #: register globals the code indexes as ``R0..Rn``
    registers: tuple[GlobalVar, ...]
    #: what the code needs in ``V[i]``: None nothing, 0 a scalar, n a list
    shapes: tuple[Optional[int], ...]
    header: tuple[str, ...]  #: the ``__src`` ... fields it reads from ``H``
    #: whether the kernel's own codec plan decodes values of those shapes
    plan_shaped: bool


_mask_of = IRInterpreter._mask


def _topological(fn: Function) -> list[BasicBlock]:
    """Blocks reachable from the entry, predecessors first."""
    order: list[BasicBlock] = []
    done: dict[int, bool] = {id(fn.entry): False}
    stack = [(fn.entry, iter(fn.entry.successors()))]
    while stack:
        bb, succs = stack[-1]
        for succ in succs:
            finished = done.get(id(succ))
            if finished is False:
                raise _Untranslatable(f"cycle through block {succ.name}")
            if finished is None:
                done[id(succ)] = False
                stack.append((succ, iter(succ.successors())))
                break
        else:
            done[id(bb)] = True
            order.append(bb)
            stack.pop()
    order.reverse()
    return order


class _Generator:
    """Translates one kernel; :meth:`code` returns the result."""

    def __init__(self, fn: Function, max_steps: int) -> None:
        if not fn.is_kernel:
            raise _Untranslatable("not a kernel")
        self.fn = fn
        self.blocks = _topological(fn)
        if sum(len(b.instructions) for b in self.blocks) > max_steps:
            raise _Untranslatable("longer than the interpreter's step limit")
        self.number = {id(b): i for i, b in enumerate(self.blocks)}
        self.args = {a.name: a for a in fn.args}
        self.index = {a.name: i for i, a in enumerate(fn.args)}
        self.body: list[str] = []
        self.indent = "        "
        self.ops: dict[int, _Op] = {}  # every value defined on some path
        self.defined: set[int] = set()  # ... and on every path to here
        self.consts: list[object] = []
        self.registers: list[GlobalVar] = []
        self.slots: dict[int, tuple[str, Alloca]] = {}
        self.shapes: dict[int, int] = {}  # argument index -> 0 or its length
        self.header: set[str] = set()
        #: argument -> the local holding ``V[i]`` on entry: a by-value
        #: scalar's value, an array field's list
        self.entry: dict[str, str] = {}
        self.temps = 0
        #: (index, dimension) pairs already checked earlier in this block
        self.checked: set[tuple[str, int]] = set()

    # -- text ----------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.body.append(self.indent + line)

    def temp(self, prefix: str) -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    def const(self, obj: object) -> str:
        for i, seen in enumerate(self.consts):
            if seen is obj:
                return f"K{i}"
        self.consts.append(obj)
        return f"K{len(self.consts) - 1}"

    def trap(self, message: str) -> str:
        return f"raise E({message!r})"

    # -- operands ------------------------------------------------------------
    def op(self, v: Value) -> _Op:
        if isinstance(v, Constant):
            return _Op(_lit(v.value), v.value.bit_length() if v.value >= 0 else None, v.value)
        if isinstance(v, Undef):
            return _Op("0", 0, 0)
        if isinstance(v, Argument):
            # the value the message held when the kernel was entered
            if self.args.get(v.name) is not v or v.byref or v.is_array:
                raise _Untranslatable(f"use of unevaluated value {v.short()}")
            return _Op(self.entry.setdefault(v.name, f"a{len(self.entry)}"), None)
        if id(v) in self.defined:
            return self.ops[id(v)]
        raise _Untranslatable(f"use of unevaluated value {v.short()}")

    def masked(self, v: Value, width: int) -> _Op:
        """``_val(v) & mask(width)``, with the mask folded where possible."""
        o = self.op(v)
        mask = (1 << width) - 1
        if o.const is not None:
            c = o.const & mask
            return _Op(_lit(c), c.bit_length(), c)
        if o.bits is not None and o.bits <= width:
            return o
        return _Op(f"({o.atom} & {mask:#x})", width)

    def define(self, inst: Instruction, expr: str, bits: Optional[int]) -> str:
        name = self.temp("v")
        self.emit(f"{name} = {expr}")
        self.alias(inst, _Op(name, bits))
        return name

    def alias(self, inst: Instruction, o: _Op) -> None:
        self.ops[id(inst)] = o
        self.defined.add(id(inst))

    # -- the function --------------------------------------------------------
    def code(self) -> KernelCode:
        preds = predecessor_map(self.fn)
        #: per emitted block; topological order emits every reachable
        #: predecessor of a block before it
        defined_out: dict[int, set[int]] = {}
        for n, bb in enumerate(self.blocks):
            ins = [defined_out[id(p)] for p in preds[id(bb)] if id(p) in defined_out]
            self.defined = set.intersection(*ins) if ins else set()
            if n:
                self.emit(f"if _b == {n}:")
                self.indent += "    "
            self.block(bb)
            if n:
                self.indent = self.indent[:-4]
            defined_out[id(bb)] = self.defined

        prologue = self.prologue()
        lines = ["def _bind(E, AO, BIN, INTR, LK, K, R):"]
        for prefix, items in (("K", self.consts), ("R", self.registers)):
            if items:
                names = ", ".join(f"{prefix}{i}" for i in range(len(items)))
                lines.append(f"    {names}, = {prefix}")
        lines.append("    def kernel(V, H):")
        lines += ["        " + line for line in prologue]
        lines += self.body
        lines.append("    return kernel")
        source = "\n".join(lines) + "\n"
        # the interpreter reads every by-value scalar argument on entry
        shapes = [
            self.shapes.get(i, None if arg.byref or arg.is_array else 0)
            for i, arg in enumerate(self.fn.args)
        ]
        return KernelCode(
            source,
            load(source, f"<kernel {self.fn.name}>", "_bind"),
            tuple(self.consts),
            tuple(self.registers),
            tuple(shapes),
            tuple(sorted(self.header)),
            all(n is None or (n == 0) == (a.spec == 1) for n, a in zip(shapes, self.fn.args)),
        )

    def prologue(self) -> list[str]:
        """Array fields, by-value arguments and local slots."""
        lines = [f"{local} = V[{self.index[name]}]" for name, local in self.entry.items()]
        for local, slot in self.slots.values():
            zero = "0" if slot.is_scalar else f"[0] * {slot.shape.num_elements}"
            lines.append(f"{local} = {zero}")
        return lines

    def block(self, bb: BasicBlock) -> None:
        self.checked.clear()
        for inst in bb.instructions:
            if isinstance(inst, Terminator):
                self.terminator(inst)
                return
            self.instruction(inst)
        self.emit(self.trap(f"block {bb.name} fell through without terminator"))

    def terminator(self, inst: Terminator) -> None:
        if isinstance(inst, Jmp):
            self.emit(f"_b = {self.number[id(inst.target)]}")
        elif isinstance(inst, Br):
            then_, else_ = self.number[id(inst.then_)], self.number[id(inst.else_)]
            self.emit(f"_b = {then_} if {self.op(inst.cond).atom} else {else_}")
        elif isinstance(inst, Ret):
            action = inst.action
            if action is not None and action.target is not None:
                target = self.op(action.target).atom
                self.emit(f"return AO({self.const(action.kind)}, {target})")
            else:  # any exit without an action is the implicit pass() (§V-A)
                kind = action.kind if action is not None else ActionKind.PASS
                self.emit(f"return {self.const(PLAIN_OUTCOMES[kind])}")
        else:
            raise _Untranslatable(f"unhandled terminator {inst!r}")

    # -- one instruction -----------------------------------------------------
    def instruction(self, inst: Instruction) -> None:
        if isinstance(inst, BinOp):
            self.binop(inst)
        elif isinstance(inst, ICmp):
            self.icmp(inst)
        elif isinstance(inst, Select):
            c, t, f = self.op(inst.cond), self.op(inst.t), self.op(inst.f)
            bits = None if t.bits is None or f.bits is None else max(t.bits, f.bits)
            self.define(inst, f"{t.atom} if {c.atom} else {f.atom}", bits)
        elif isinstance(inst, Cast):
            self.cast(inst)
        elif isinstance(inst, Alloca):
            pass  # slots start at zero in the prologue
        elif isinstance(inst, Load):
            local, index = self.local_access(inst.slot, inst.indices)
            self.define(inst, local + index, inst.slot.elem.width)
        elif isinstance(inst, Store):
            value = self.masked(inst.value, inst.slot.elem.width)
            local, index = self.local_access(inst.slot, inst.indices)
            self.emit(f"{local}{index} = {value.atom}")
        elif isinstance(inst, LoadMsg):
            width = _mask_of(inst.type).bit_length()
            place = self.field_access(inst.field, inst.index)
            self.define(inst, f"{place} & {_mask_of(inst.type):#x}", width)
        elif isinstance(inst, StoreMsg):
            if inst.field not in self.args:
                raise _Untranslatable(f"store to header field {inst.field}")
            value = self.masked(inst.value, _mask_of(inst.value.type).bit_length())
            self.emit(f"{self.field_access(inst.field, inst.index)} = {value.atom}")
        elif isinstance(inst, LoadGlobal):
            reg, flat = self.global_access(inst.gv, inst.indices)
            self.define(inst, f"{reg}[{flat}]", storage_bits(inst.gv.elem.width))
        elif isinstance(inst, StoreGlobal):
            reg, flat = self.global_access(inst.gv, inst.indices)
            self.emit(f"{reg}[{flat}] = {self.masked(inst.value, inst.gv.elem.width).atom}")
        elif isinstance(inst, AtomicRMW):
            self.atomic(inst)
        elif isinstance(inst, Lookup):
            key = self.op(inst.key).atom
            self.define(inst, f"1 if LK({self.const(inst.gv)}, {key})[0] else 0", 1)
        elif isinstance(inst, LookupVal):
            key, miss = self.op(inst.key), self.op(inst.default)
            hit, value = self.temp("h"), self.temp("t")
            self.emit(f"{hit}, {value} = LK({self.const(inst.gv)}, {key.atom})")
            mask = _mask_of(inst.type)
            bits = None if miss.bits is None else max(miss.bits, mask.bit_length())
            self.define(
                inst,
                f"{value} & {mask:#x} if {hit} and {value} is not None else {miss.atom}",
                bits,
            )
        elif isinstance(inst, Intrinsic):
            args = "".join(f", {self.op(a).atom}" for a in inst.args)
            self.define(inst, f"INTR({self.const(inst)}{args})", None)
        else:  # Phi, anything new
            raise _Untranslatable(f"{type(inst).__name__} instruction")

    def binop(self, inst: BinOp) -> None:
        ty = inst.type
        if not isinstance(ty, IntType):
            raise _Untranslatable("binop on a non-integer type")
        w, mask = ty.width, ty.mask
        symbol = _MODULAR_OPS.get(inst.kind)
        if symbol is not None:
            a, b = self.op(inst.a), self.op(inst.b)
            fits = [o.bits is not None and o.bits <= w for o in (a, b)]
            expr = f"{a.atom} {symbol} {b.atom}"
            if symbol in "|^" and all(fits) or symbol == "&" and any(fits):
                self.define(inst, expr, w)
            else:
                self.define(inst, f"({expr}) & {mask:#x}", w)
        elif inst.kind == BinOpKind.SADDU:
            a, b = self.masked(inst.a, w), self.masked(inst.b, w)
            self.define(inst, f"min({a.atom} + {b.atom}, {mask:#x})", w)
        elif inst.kind == BinOpKind.SSUBU:
            a, b = self.masked(inst.a, w), self.masked(inst.b, w)
            self.define(inst, f"max({a.atom} - {b.atom}, 0)", w)
        else:
            a, b = self.op(inst.a), self.op(inst.b)
            self.define(inst, f"BIN({self.const(inst)}, {a.atom}, {b.atom})", w)

    def icmp(self, inst: ICmp) -> None:
        ty = inst.a.type
        if not isinstance(ty, IntType):
            raise _Untranslatable("icmp on a non-integer type")
        a, b = self.masked(inst.a, ty.width), self.masked(inst.b, ty.width)
        symbol = _UNSIGNED_PREDS.get(inst.pred)
        if symbol is None:
            symbol = _SIGNED_PREDS[inst.pred]
            sign = 1 << (ty.width - 1)
            a, b = (
                _Op(_lit(o.const ^ sign), None) if o.const is not None
                else _Op(f"({o.atom} ^ {sign:#x})", None)
                for o in (a, b)
            )
        self.define(inst, f"1 if {a.atom} {symbol} {b.atom} else 0", 1)

    def cast(self, inst: Cast) -> None:
        src, dst = inst.value.type, inst.type
        if not isinstance(src, IntType) or not isinstance(dst, IntType):
            raise _Untranslatable("cast on a non-integer type")
        if inst.kind == CastKind.SEXT:
            v = self.atomize(self.masked(inst.value, src.width).atom)
            expr = f"{v} | {dst.mask & ~src.mask:#x} if {v} >> {src.width - 1} else {v}"
            if dst.width < src.width:
                expr = f"({expr}) & {dst.mask:#x}"
            self.define(inst, expr, dst.width)
        else:  # ZEXT keeps the source bits; TRUNC and BITCAST the common ones
            width = src.width if inst.kind == CastKind.ZEXT else min(src.width, dst.width)
            o = self.masked(inst.value, width)
            self.alias(inst, o._replace(atom=self.atomize(o.atom)))

    # -- memory --------------------------------------------------------------
    def atomize(self, expr: str) -> str:
        """``expr`` as a name or literal (anything compound gets a temp)."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        name = self.temp("t")
        self.emit(f"{name} = {expr}")
        return name

    def index_checks(self, indices, dims, message: Callable[[int], str]) -> str:
        """Emit the interpreter's bounds checks; returns the flat index.

        ``message(dim)`` is the trap text with ``%d`` for the index.
        """
        if len(indices) != len(dims):
            raise _Untranslatable("index count differs from the array's rank")
        strides = [1]
        for dim in reversed(dims[1:]):
            strides.insert(0, strides[0] * dim)
        offset = 0
        terms: list[str] = []
        for iv, dim, stride in zip(indices, dims, strides):
            o = self.op(iv)
            if o.const is not None:
                if not 0 <= o.const < dim:
                    self.emit(self.trap(message(dim) % o.const))
                offset += o.const * stride
                continue
            unproven = o.bits is None or (1 << o.bits) > dim
            if unproven and (o.atom, dim) not in self.checked:
                self.checked.add((o.atom, dim))
                test = f"not 0 <= {o.atom} < {dim}" if o.bits is None else f"{o.atom} >= {dim}"
                self.emit(f"if {test}:")
                self.emit(f"    raise E({message(dim)!r} % {o.atom})")
            terms.append(o.atom if stride == 1 else f"{o.atom} * {stride}")
        if offset or not terms:
            terms.append(str(offset))
        return " + ".join(terms)

    def local_access(self, slot: Alloca, indices) -> tuple[str, str]:
        local, _ = self.slots.setdefault(id(slot), (f"s{len(self.slots)}", slot))
        if slot.is_scalar != (not indices):
            raise _Untranslatable("local slot accessed against its shape")
        if slot.is_scalar:
            return local, ""
        name = slot.name.replace("%", "%%")
        flat = self.index_checks(
            indices, slot.shape.dims, lambda dim: f"local {name}: index %d out of [0,{dim})"
        )
        return local, f"[{flat}]"

    def field_access(self, name: str, index: Optional[Value]) -> str:
        arg = self.args.get(name)
        if arg is None:
            if name not in HEADER_FIELDS or index is not None:
                raise _Untranslatable(f"field {name} is neither an argument nor a header field")
            self.header.add(name)
            return f"H.{HEADER_FIELDS[name]}"
        if arg.is_array != (index is not None):
            raise _Untranslatable(f"field {name} accessed against its shape")
        i = self.index[name]
        if index is None:
            self.shapes[i] = 0
            return f"V[{i}]"
        self.shapes[i] = arg.spec
        local = self.entry.setdefault(name, f"a{len(self.entry)}")
        text = f"field {name.replace('%', '%%')}: index %d out of range"
        flat = self.index_checks([index], (arg.spec,), lambda dim: text)
        return f"{local}[{flat}]"

    def global_access(self, gv: GlobalVar, indices) -> tuple[str, str]:
        """Bounds-check one register access; returns (array, flat index)."""
        for k, seen in enumerate(self.registers):
            if seen is gv:
                break
        else:
            k = len(self.registers)
            self.registers.append(gv)
        base = GlobalState._base_name(gv.name).replace("%", "%%")
        flat = self.index_checks(
            indices, gv.shape.dims, lambda dim: f"{base}: index %d out of range [0,{dim})"
        )
        fixed = getattr(gv, "fixed_outer", None)
        if fixed:  # KernelEngine._storage checks it against the outer dimension
            offset = fixed * gv.shape.num_elements
            flat = str(int(flat) + offset) if flat.isdigit() else f"{flat} + {offset}"
        return f"R{k}", flat

    def atomic(self, inst: AtomicRMW) -> None:
        reg, flat = self.global_access(inst.gv, inst.indices)
        flat = self.atomize(flat)
        w = inst.gv.elem.width
        mask = inst.gv.elem.mask
        op = inst.op
        old = self.define(inst, f"{reg}[{flat}]", storage_bits(inst.gv.elem.width))
        if op == AtomicOp.READ:
            return
        if op == AtomicOp.CAS:
            if inst.compare is None:
                self.emit(self.trap("CAS requires a compare operand"))
                return
            new = self.masked(inst.operand, w).atom if inst.operand is not None else "0"
            self.emit(f"if {old} == {self.masked(inst.compare, w).atom}:")
            self.emit(f"    {reg}[{flat}] = {new}")
            return
        if inst.operand is None:
            self.emit(self.trap(f"atomic {op.value} requires an operand"))
            return
        arg = self.masked(inst.operand, w).atom
        if op == AtomicOp.ADD:
            new = f"({old} + {arg}) & {mask:#x}"
            if inst.saturating:
                new = f"min({old} + {arg}, {mask:#x})"
        elif op == AtomicOp.SUB:
            new = f"({old} - {arg}) & {mask:#x}"
            if inst.saturating:
                new = f"max({old} - {arg}, 0)"
        elif op in (AtomicOp.EXCH, AtomicOp.WRITE):
            new = arg
        else:
            new = {
                AtomicOp.AND: f"{old} & {arg}",
                AtomicOp.OR: f"{old} | {arg}",
                AtomicOp.XOR: f"{old} ^ {arg}",
                AtomicOp.MIN: f"min({old}, {arg})",
                AtomicOp.MAX: f"max({old}, {arg})",
            }[op]
        if inst.cond is not None:
            self.emit(f"if {self.op(inst.cond).atom}:")
            self.indent += "    "
        if inst.return_new:
            self.emit(f"{old} = {new}")
            self.emit(f"{reg}[{flat}] = {old}")
        else:
            self.emit(f"{reg}[{flat}] = {new}")
        if inst.cond is not None:
            self.indent = self.indent[:-4]


def generate(fn: Function, max_steps: int = 200_000) -> Optional[KernelCode]:
    """Lower ``fn`` to Python, or None when it must stay on the interpreter."""
    try:
        return _Generator(fn, max_steps).code()
    except _Untranslatable:
        return None


class KernelEngine(IRInterpreter):
    """An :class:`IRInterpreter` whose kernels run as generated Python.

    Same constructor, same ``run_kernel``; ``interpreted``
    counts the kernel executions that took the interpreter instead.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: fn -> (bound kernel or None, whether a device's values fit it)
        self._bound: dict[Function, tuple[Optional[Callable], bool]] = {}
        self.interpreted = 0

    def kernel_code(self, fn: Function) -> Optional[KernelCode]:
        """The generated code of ``fn`` (None: it runs on the interpreter),
        generated at most once per module whatever the number of engines."""
        codes = self.module.kernel_code
        key = (fn, self.max_steps)  # the step limit decides translatability
        if key not in codes:
            codes[key] = generate(fn, self.max_steps)
        return codes[key]

    # -- binding -------------------------------------------------------------
    def _storage(self, gv: GlobalVar):
        """The state's array behind ``gv`` if it is laid out as the
        generated code assumes, else None."""
        state = self.state
        base = state._base_name(gv.name)
        meta = state._meta.get(base)
        if meta is None or meta.space.is_lookup or meta.name != base:
            return None
        if meta.elem.mask != gv.elem.mask:
            return None
        dims = meta.shape.dims
        fixed = getattr(gv, "fixed_outer", None)
        if fixed is None:
            ok = dims == gv.shape.dims
        else:
            ok = dims[1:] == gv.shape.dims and bool(dims) and 0 <= fixed < dims[0]
        return state._registers[base] if ok else None

    def _bind(self, fn: Function) -> tuple[Optional[Callable], bool]:
        code = self.kernel_code(fn)
        bound = None, False
        if code is not None:
            arrays = [self._storage(gv) for gv in code.registers]
            if all(a is not None for a in arrays):
                run = code.factory(
                    InterpError,
                    ActionOutcome,
                    self._delegated_binop,
                    self._delegated_intrinsic,
                    self.state.lookup,
                    code.consts,
                    arrays,
                )
                bound = run, code.plan_shaped
        self._bound[fn] = bound
        return bound

    def _delegated_binop(self, inst: BinOp, a: int, b: int) -> int:
        return binop(inst.kind, a, b, inst.type)

    def _delegated_intrinsic(self, inst: Intrinsic, *args: int) -> int:
        return self._intrinsic(inst, dict(zip(map(id, inst.args), args)))

    # -- execution -----------------------------------------------------------
    def _kernel(self, fn: Function, msg, header) -> ActionOutcome:
        try:
            run, plan_shaped = self._bound[fn]
        except KeyError:
            run, plan_shaped = self._bind(fn)
        if header is not None:
            if plan_shaped:
                return run(msg, header)
        elif run is not None:
            outcome = self._run_message(fn, run, msg)
            if outcome is not None:
                return outcome
        self.interpreted += 1
        return super()._kernel(fn, msg, header)

    def _run_message(self, fn: Function, run: Callable, msg: KernelMessage):
        """``run`` over a :class:`KernelMessage` viewed as values and a
        header, or None when a field the code reads is missing or not
        shaped as the code reads it."""
        fields, code = msg.fields, self.kernel_code(fn)
        values = [fields.get(arg.name, _ABSENT) for arg in fn.args]
        for v, n in zip(values, code.shapes):
            if n is not None and (v is _ABSENT or (type(v) is list) != bool(n) or n and len(v) != n):
                return None
        if any(isinstance(fields.get(name, []), list) for name in code.header):
            return None
        header = SimpleNamespace(**{HEADER_FIELDS[name]: fields[name] for name in code.header})
        try:
            return run(values, header)
        finally:  # stores before a trap stay visible, as on the interpreter
            fields.update((a.name, v) for a, v in zip(fn.args, values) if v is not _ABSENT)
