"""Behavioral IR interpreter — the execution engine of the device model.

:class:`IRInterpreter` is the reference semantics of a compiled NetCL
kernel: it interprets the (post-middle-end) IR against a
:class:`GlobalState` holding the device's register and table memory, as
bmv2 executes generated P4 behaviorally in the paper's evaluation.  The
device runtime (:mod:`repro.runtime.device`) runs the same kernels through
:class:`~repro.ir.compiled.KernelEngine`, which is checked against it.

The interpreter implements the device model of §IV: one logical thread per
message, processing uninterrupted; thread-private local memory; atomic
transactions on shared global memory; and kernel exit via a forwarding
action (Table II).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import hashing
from repro.ir.blocks import BasicBlock
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
    Phi,
    Ret,
    Select,
    Store,
    StoreGlobal,
    StoreMsg,
    Undef,
    Value,
)
from repro.ir.module import Function, GlobalVar, LookupEntry, Module
from repro.ir.types import IntType
from repro.pygen import register_file


class InterpError(Exception):
    """Runtime fault during kernel interpretation."""


class GlobalState:
    """All global device memory of one device: registers plus lookup tables.

    Register memory (``_net_`` / ``_managed_``) is zero-initialized
    ``array.array`` storage (:func:`repro.pygen.register_file`), flattened
    row-major.  Lookup memory is an ordered entry list;
    ``_managed_ _lookup_`` entries may be mutated through the control-plane
    methods, static ``_lookup_`` entries are frozen (P4 does not allow data
    plane MAT updates, §V-B).
    """

    def __init__(self) -> None:
        self._registers: dict[str, array] = {}
        self._meta: dict[str, GlobalVar] = {}
        self._tables: dict[str, list[LookupEntry]] = {}

    # -- declaration ---------------------------------------------------------
    def declare(self, gv: GlobalVar) -> None:
        base = self._base_name(gv.name)
        if base in self._meta:
            return
        self._meta[base] = gv
        if gv.space.is_lookup:
            self._tables[base] = [
                LookupEntry(e.key_lo, e.key_hi, e.value) for e in gv.entries
            ]
        else:
            self._registers[base] = register_file(gv.elem.width, gv.shape.num_elements or 1)

    @staticmethod
    def _base_name(name: str) -> str:
        # Memory partitioning / duplication passes rename accesses to
        # "name.partN" / "name.dupN"; all copies share the base storage so
        # behavior is unchanged (duplication of read-only tables, partitions
        # indexed disjointly).
        return name.split(".", 1)[0]

    def _meta_for(self, gv: GlobalVar) -> tuple[str, GlobalVar]:
        base = self._base_name(gv.name)
        if base not in self._meta:
            self.declare(
                GlobalVar(
                    base,
                    gv.elem,
                    gv.shape,
                    gv.space,
                    gv.locations,
                    gv.lookup_kind,
                    gv.key_type,
                    gv.value_type,
                    [LookupEntry(e.key_lo, e.key_hi, e.value) for e in gv.entries],
                )
            )
        return base, self._meta[base]

    @staticmethod
    def _effective_indices(gv: GlobalVar, indices: Sequence[int]) -> list[int]:
        """Map a (possibly partitioned) access back onto base storage."""
        fixed = getattr(gv, "fixed_outer", None)
        if fixed is not None:
            return [fixed, *indices]
        return list(indices)

    # -- register access -------------------------------------------------------
    def _flat_index(self, gv: GlobalVar, indices: Sequence[int]) -> int:
        dims = gv.shape.dims
        if len(indices) != len(dims):
            raise InterpError(
                f"{gv.name}: expected {len(dims)} indices, got {len(indices)}"
            )
        flat = 0
        for idx, dim in zip(indices, dims):
            if not 0 <= idx < dim:
                raise InterpError(f"{gv.name}: index {idx} out of range [0,{dim})")
            flat = flat * dim + idx
        return flat

    def read(self, gv: GlobalVar, indices: Sequence[int]) -> int:
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        return self._registers[base][flat]

    def write(self, gv: GlobalVar, indices: Sequence[int], value: int) -> None:
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        self._registers[base][flat] = value & meta.elem.mask

    def atomic(
        self,
        gv: GlobalVar,
        indices: Sequence[int],
        op: AtomicOp,
        operand: Optional[int],
        *,
        cond: Optional[int] = None,
        compare: Optional[int] = None,
        return_new: bool = False,
        saturating: bool = False,
    ) -> int:
        """Execute one SALU-style read-modify-write transaction.

        A guarded-off conditional operation leaves memory untouched and
        returns the *old* value (§V-E retransmission detection relies on
        this).
        """
        base, meta = self._meta_for(gv)
        flat = self._flat_index(meta, self._effective_indices(gv, indices))
        ty = meta.elem
        old = self._registers[base][flat]

        if op == AtomicOp.READ:
            return old

        if op == AtomicOp.CAS:
            if compare is None:
                raise InterpError("CAS requires a compare operand")
            if old == (compare & ty.mask):
                self._registers[base][flat] = (operand or 0) & ty.mask
            return old

        if operand is None and op != AtomicOp.READ:
            raise InterpError(f"atomic {op.value} requires an operand")
        arg = (operand or 0) & ty.mask

        if op == AtomicOp.ADD:
            raw = old + arg
            new = min(raw, ty.mask) if saturating else raw & ty.mask
        elif op == AtomicOp.SUB:
            raw = old - arg
            new = max(raw, 0) if saturating else raw & ty.mask
        elif op == AtomicOp.AND:
            new = old & arg
        elif op == AtomicOp.OR:
            new = old | arg
        elif op == AtomicOp.XOR:
            new = old ^ arg
        elif op == AtomicOp.MIN:
            new = min(old, arg)
        elif op == AtomicOp.MAX:
            new = max(old, arg)
        elif op in (AtomicOp.EXCH, AtomicOp.WRITE):
            new = arg
        else:  # pragma: no cover - enum exhaustive
            raise InterpError(f"unhandled atomic op {op}")

        performed = cond is None or cond != 0
        if performed:
            self._registers[base][flat] = new
        if not performed:
            return old
        return new if return_new else old

    # -- lookup access -------------------------------------------------------------
    def lookup(self, gv: GlobalVar, key: int) -> tuple[bool, Optional[int]]:
        base, _ = self._meta_for(gv)
        for entry in self._tables[base]:
            if entry.matches(key):
                return True, entry.value
        return False, None

    # -- whole-state capture ---------------------------------------------------
    def snapshot(self) -> dict:
        """Deep, comparable copy of all device memory.

        Registers become plain lists, lookup tables become entry tuples;
        two snapshots compare equal iff every observable memory cell
        matches.  Translation validation diffs these across passes.
        """
        return {
            "registers": {k: v.tolist() for k, v in sorted(self._registers.items())},
            "tables": {
                k: [(e.key_lo, e.key_hi, e.value) for e in v]
                for k, v in sorted(self._tables.items())
            },
        }

    def restore(self, snapshot: dict) -> None:
        """Put the registers back as ``snapshot`` holds them, in place (a
        ``KernelEngine`` keeps the arrays); a kernel writes no other memory."""
        for name, cells in snapshot["registers"].items():
            self._registers[name][:] = array(self._registers[name].typecode, cells)

    # -- control-plane surface (P4Runtime stand-in, §V-B managed memory) -----------
    def cp_register_read(self, name: str, index: int = 0) -> int:
        base = self._base_name(name)
        if base not in self._registers:
            raise InterpError(f"no register memory named {name}")
        return self._registers[base][index]

    def cp_register_write(self, name: str, value: int, index: int = 0) -> None:
        base = self._base_name(name)
        if base not in self._registers:
            raise InterpError(f"no register memory named {name}")
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host writes forbidden")
        self._registers[base][index] = value & meta.elem.mask

    def cp_table_insert(self, name: str, key_lo: int, key_hi: Optional[int] = None, value: Optional[int] = None) -> None:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host inserts forbidden")
        hi = key_lo if key_hi is None else key_hi
        if len(self._tables[base]) >= meta.capacity:
            raise InterpError(f"{name}: table full (capacity {meta.capacity})")
        self._tables[base].append(LookupEntry(key_lo, hi, value))

    def cp_table_modify(self, name: str, key: int, value: int) -> bool:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host modifies forbidden")
        for entry in self._tables[base]:
            if entry.matches(key):
                entry.value = value
                return True
        return False

    def cp_table_remove(self, name: str, key: int) -> bool:
        base = self._base_name(name)
        meta = self._meta[base]
        if not meta.space.is_managed:
            raise InterpError(f"{name} is not _managed_: host removes forbidden")
        for entry in list(self._tables[base]):
            if entry.matches(key):
                self._tables[base].remove(entry)
                return True
        return False


def binop(kind: BinOpKind, a: int, b: int, ty: IntType) -> int:
    """``a kind b`` over ``ty``-wide operands, wrapped to ``ty``; a
    division or remainder by zero is an :class:`InterpError`."""
    a, b = a & ty.mask, b & ty.mask
    if kind == BinOpKind.ADD:
        r = a + b
    elif kind == BinOpKind.SUB:
        r = a - b
    elif kind == BinOpKind.MUL:
        r = a * b
    elif kind == BinOpKind.UDIV:
        if b == 0:
            raise InterpError("division by zero")
        r = a // b
    elif kind == BinOpKind.SDIV:
        sa, sb = ty.wrap(a), ty.wrap(b)
        if sb == 0:
            raise InterpError("division by zero")
        q = abs(sa) // abs(sb)
        r = -q if (sa < 0) != (sb < 0) else q
    elif kind == BinOpKind.UREM:
        if b == 0:
            raise InterpError("remainder by zero")
        r = a % b
    elif kind == BinOpKind.SREM:
        sa, sb = ty.wrap(a), ty.wrap(b)
        if sb == 0:
            raise InterpError("remainder by zero")
        r = abs(sa) % abs(sb)
        if sa < 0:
            r = -r
    elif kind == BinOpKind.AND:
        r = a & b
    elif kind == BinOpKind.OR:
        r = a | b
    elif kind == BinOpKind.XOR:
        r = a ^ b
    elif kind == BinOpKind.SHL:
        r = a << (b % ty.width) if b < ty.width else 0
    elif kind == BinOpKind.LSHR:
        r = a >> b if b < ty.width else 0
    elif kind == BinOpKind.ASHR:
        r = ty.wrap(a) >> min(b, ty.width - 1)
    elif kind == BinOpKind.SADDU:
        r = min(a + b, ty.mask)
    elif kind == BinOpKind.SSUBU:
        r = max(a - b, 0)
    else:  # pragma: no cover
        raise InterpError(f"unhandled binop {kind}")
    return r & ty.mask


def icmp(pred: ICmpPred, a: int, b: int, ty: IntType) -> int:
    """``a pred b`` as 0 or 1 over ``ty``-wide operands; the signed
    predicates reinterpret the bits whatever ``ty``'s signedness."""
    ua, ub = a & ty.mask, b & ty.mask
    sa = ua - (1 << ty.width) if ua >> (ty.width - 1) else ua
    sb = ub - (1 << ty.width) if ub >> (ty.width - 1) else ub
    return int(
        {
            ICmpPred.EQ: ua == ub,
            ICmpPred.NE: ua != ub,
            ICmpPred.ULT: ua < ub,
            ICmpPred.ULE: ua <= ub,
            ICmpPred.UGT: ua > ub,
            ICmpPred.UGE: ua >= ub,
            ICmpPred.SLT: sa < sb,
            ICmpPred.SLE: sa <= sb,
            ICmpPred.SGT: sa > sb,
            ICmpPred.SGE: sa >= sb,
        }[pred]
    )


#: the header pseudo-fields a kernel reads as ``msg.src`` etc., by the
#: :class:`~repro.runtime.message.NetCLPacket` attribute they come from
HEADER_FIELDS = {"__src": "src", "__dst": "dst", "__from": "from_", "__to": "to"}


class KernelMessage:
    """Mutable view of a NetCL message's data fields during kernel execution.

    Field names are kernel argument names; array fields hold lists.  Writes
    through by-reference arguments mutate this object in place, which is how
    updates become "visible to all receivers" (§V-A).
    """

    def __init__(self, fields: dict[str, int | list[int]]) -> None:
        self.fields = fields

    @classmethod
    def of(cls, header, names: Sequence[str], values: Sequence) -> "KernelMessage":
        """The view of a packet: its ``header``'s :data:`HEADER_FIELDS`
        and the data section's ``values`` under the argument ``names``."""
        fields = {name: getattr(header, attr) for name, attr in HEADER_FIELDS.items()}
        fields.update(zip(names, values))
        return cls(fields)

    def get(self, name: str, index: Optional[int] = None) -> int:
        v = self.fields[name]
        if isinstance(v, list):
            if index is None:
                raise InterpError(f"field {name} is an array; index required")
            if not 0 <= index < len(v):
                raise InterpError(f"field {name}: index {index} out of range")
            return v[index]
        if index not in (None, 0):
            raise InterpError(f"field {name} is scalar; got index {index}")
        return v

    def set(self, name: str, value: int, index: Optional[int] = None) -> None:
        cur = self.fields.get(name)
        if isinstance(cur, list):
            if index is None:
                raise InterpError(f"field {name} is an array; index required")
            if not 0 <= index < len(cur):
                raise InterpError(f"field {name}: index {index} out of range")
            cur[index] = value
        else:
            self.fields[name] = value


@dataclass(frozen=True, slots=True)
class ActionOutcome:
    """The forwarding decision a kernel exits with.  Immutable, so the
    target-less ones are shared: :data:`PLAIN_OUTCOMES`."""

    kind: ActionKind
    target: Optional[int] = None


#: the outcome of every target-less exit, the implicit ``pass()`` included
PLAIN_OUTCOMES = {kind: ActionOutcome(kind) for kind in ActionKind}


class IRInterpreter:
    """Executes a kernel function over a message and a device's global state."""

    def __init__(
        self,
        module: Module,
        state: GlobalState,
        *,
        device_id: int = 0,
        rng: Optional[random.Random] = None,
        max_steps: int = 200_000,
    ) -> None:
        self.module = module
        self.state = state
        self.device_id = device_id
        self.rng = rng or random.Random(0)
        self.max_steps = max_steps
        site = module.site(device_id)
        for gv in module.globals.values():
            if gv.placed_at(site):
                state.declare(gv)

    # -- public entry ---------------------------------------------------------
    def run_kernel(self, fn: Function, msg, header=None) -> ActionOutcome:
        """Process one message with ``fn``; mutates ``msg`` and global state.

        ``msg`` is a :class:`KernelMessage`, or — as a device passes it —
        the list of the data section's values in argument order, as the
        kernel's :class:`~repro.runtime.message.CodecPlan` decodes them,
        with the packet ``header`` that ``msg.src`` etc. read; the list is
        rewritten in place.  Every execution of a kernel enters here
        exactly once, whichever executor runs it.
        """
        return self._kernel(fn, msg, header)

    def _kernel(self, fn: Function, msg, header) -> ActionOutcome:
        names = [arg.name for arg in fn.args]
        view = msg if header is None else KernelMessage.of(header, names, msg)
        env = {id(a): view.get(a.name) for a in fn.args if not a.byref and not a.is_array}
        outcome = self._exec(fn, env, {}, view)
        if header is not None:
            msg[:] = [view.fields[name] for name in names]
        return outcome

    # -- execution loop ----------------------------------------------------------
    def _exec(
        self,
        fn: Function,
        env: dict[int, int],
        locals_: dict[int, int | list[int]],
        msg: KernelMessage,
    ) -> ActionOutcome:
        block = fn.entry
        prev_block: Optional[BasicBlock] = None
        steps = 0
        while True:
            next_block: Optional[BasicBlock] = None
            # Phi nodes read their incoming values in parallel.
            phi_updates: list[tuple[Phi, int]] = []
            for inst in block.instructions:
                steps += 1
                if steps > self.max_steps:
                    raise InterpError(f"step limit exceeded in {fn.name}")
                if isinstance(inst, Phi):
                    assert prev_block is not None
                    val = inst.incoming_for(prev_block)
                    if val is None:
                        raise InterpError(
                            f"phi {inst.name} has no incoming for {prev_block.name}"
                        )
                    phi_updates.append((inst, self._val(val, env)))
                    continue
                if phi_updates:
                    for node, v in phi_updates:
                        env[id(node)] = v
                    phi_updates = []
                result = self._step(fn, inst, env, locals_, msg)
                if isinstance(result, ActionOutcome):
                    return result
                if isinstance(result, BasicBlock):
                    next_block = result
                    break
            if phi_updates:
                for node, v in phi_updates:
                    env[id(node)] = v
            if next_block is None:
                raise InterpError(f"block {block.name} fell through without terminator")
            prev_block, block = block, next_block

    # -- single instruction ----------------------------------------------------------
    def _val(self, v: Value, env: dict[int, int]) -> int:
        if isinstance(v, Constant):
            return v.value
        if isinstance(v, Undef):
            return 0  # deterministic choice for undefined locals
        if id(v) in env:
            return env[id(v)]
        raise InterpError(f"use of unevaluated value {v.short()}")

    def _step(self, fn, inst: Instruction, env, locals_, msg):
        if isinstance(inst, BinOp):
            env[id(inst)] = self._binop(inst, env)
        elif isinstance(inst, ICmp):
            env[id(inst)] = self._icmp(inst, env)
        elif isinstance(inst, Select):
            c = self._val(inst.cond, env)
            env[id(inst)] = self._val(inst.t if c else inst.f, env)
        elif isinstance(inst, Cast):
            env[id(inst)] = self._cast(inst, env)
        elif isinstance(inst, Alloca):
            if inst.is_scalar:
                locals_.setdefault(id(inst), 0)
            else:
                locals_.setdefault(id(inst), [0] * inst.shape.num_elements)
        elif isinstance(inst, Load):
            slot = locals_.setdefault(
                id(inst.slot),
                0 if inst.slot.is_scalar else [0] * inst.slot.shape.num_elements,
            )
            if inst.indices:
                flat = self._flat_local(inst.slot, inst.indices, env)
                env[id(inst)] = slot[flat]  # type: ignore[index]
            else:
                env[id(inst)] = slot  # type: ignore[assignment]
        elif isinstance(inst, Store):
            val = self._val(inst.value, env) & self._mask(inst.slot.elem)
            if inst.indices:
                arr = locals_.setdefault(
                    id(inst.slot), [0] * inst.slot.shape.num_elements
                )
                flat = self._flat_local(inst.slot, inst.indices, env)
                arr[flat] = val  # type: ignore[index]
            else:
                locals_[id(inst.slot)] = val
        elif isinstance(inst, LoadMsg):
            idx = self._val(inst.index, env) if inst.index is not None else None
            env[id(inst)] = msg.get(inst.field, idx) & self._mask(inst.type)
        elif isinstance(inst, StoreMsg):
            idx = self._val(inst.index, env) if inst.index is not None else None
            msg.set(inst.field, self._val(inst.value, env) & self._mask(inst.value.type), idx)
        elif isinstance(inst, LoadGlobal):
            idxs = [self._val(i, env) for i in inst.indices]
            env[id(inst)] = self.state.read(inst.gv, idxs)
        elif isinstance(inst, StoreGlobal):
            idxs = [self._val(i, env) for i in inst.indices]
            self.state.write(inst.gv, idxs, self._val(inst.value, env))
        elif isinstance(inst, AtomicRMW):
            idxs = [self._val(i, env) for i in inst.indices]
            env[id(inst)] = self.state.atomic(
                inst.gv,
                idxs,
                inst.op,
                self._val(inst.operand, env) if inst.operand is not None else None,
                cond=self._val(inst.cond, env) if inst.cond is not None else None,
                compare=self._val(inst.compare, env) if inst.compare is not None else None,
                return_new=inst.return_new,
                saturating=inst.saturating,
            )
        elif isinstance(inst, Lookup):
            hit, _ = self.state.lookup(inst.gv, self._val(inst.key, env))
            env[id(inst)] = 1 if hit else 0
        elif isinstance(inst, LookupVal):
            hit, value = self.state.lookup(inst.gv, self._val(inst.key, env))
            if hit and value is not None:
                env[id(inst)] = value & self._mask(inst.type)
            else:
                env[id(inst)] = self._val(inst.default, env)
        elif isinstance(inst, Intrinsic):
            env[id(inst)] = self._intrinsic(inst, env)
        elif isinstance(inst, Jmp):
            return inst.target
        elif isinstance(inst, Br):
            return inst.then_ if self._val(inst.cond, env) else inst.else_
        elif isinstance(inst, Ret):
            action = inst.action
            if action is None:  # any exit without an action is the implicit pass() (§V-A)
                return PLAIN_OUTCOMES[ActionKind.PASS]
            if action.target is None:
                return PLAIN_OUTCOMES[action.kind]
            return ActionOutcome(action.kind, self._val(action.target, env))
        else:  # pragma: no cover - instruction set exhaustive
            raise InterpError(f"unhandled instruction {inst!r}")
        return None

    # -- helpers -------------------------------------------------------------------
    @staticmethod
    def _mask(ty) -> int:
        return ty.mask if isinstance(ty, IntType) else (1 << 64) - 1

    def _flat_local(self, slot: Alloca, indices: Sequence[Value], env) -> int:
        flat = 0
        for iv, dim in zip(indices, slot.shape.dims):
            idx = self._val(iv, env)
            if not 0 <= idx < dim:
                raise InterpError(f"local {slot.name}: index {idx} out of [0,{dim})")
            flat = flat * dim + idx
        return flat

    def _binop(self, inst: BinOp, env) -> int:
        return binop(inst.kind, self._val(inst.a, env), self._val(inst.b, env), inst.type)

    def _icmp(self, inst: ICmp, env) -> int:
        return icmp(inst.pred, self._val(inst.a, env), self._val(inst.b, env), inst.a.type)

    def _cast(self, inst: Cast, env) -> int:
        src_ty = inst.value.type
        assert isinstance(src_ty, IntType) and isinstance(inst.type, IntType)
        v = self._val(inst.value, env) & src_ty.mask
        if inst.kind == CastKind.ZEXT:
            return v
        if inst.kind == CastKind.SEXT:
            if v >> (src_ty.width - 1):
                v |= inst.type.mask & ~src_ty.mask
            return v & inst.type.mask
        if inst.kind == CastKind.TRUNC:
            return v & inst.type.mask
        return v & inst.type.mask  # bitcast

    def _intrinsic(self, inst: Intrinsic, env) -> int:
        name = inst.callee
        args = [self._val(a, env) for a in inst.args]
        out_ty = inst.type
        assert isinstance(out_ty, IntType)
        if name == "device.id":
            return self.device_id & out_ty.mask
        if name == "device.kind":
            return 1  # switch
        if name == "ncl.rand":
            return self.rng.randrange(0, out_ty.mask + 1)
        if name.startswith("ncl.crc") or name in ("ncl.xor16", "ncl.identity"):
            fn_name = name.split(".", 1)[1]
            h = hashing.HASH_FUNCTIONS[fn_name]
            width = inst.args[0].type.width if inst.args else 32
            return hashing.truncate(h(args[0], width), out_ty.width)
        if name == "ncl.bswap":
            width = out_ty.width
            nbytes = width // 8
            v = args[0] & out_ty.mask
            return int.from_bytes(v.to_bytes(nbytes, "big"), "little")
        if name == "ncl.clz":
            w = inst.args[0].type.width
            v = args[0]
            return (w - v.bit_length()) & out_ty.mask
        if name == "ncl.ctz":
            v = args[0]
            if v == 0:
                return inst.args[0].type.width
            return (v & -v).bit_length() - 1
        if name == "ncl.popcount":
            return bin(args[0]).count("1") & out_ty.mask
        if name == "ncl.bit_chk":
            return (args[0] >> args[1]) & 1
        if name == "ncl.min":
            return min(args[0], args[1])
        if name == "ncl.max":
            return max(args[0], args[1])
        if name == "ncl.sadd":
            return min(args[0] + args[1], out_ty.mask)
        if name == "ncl.ssub":
            return max(args[0] - args[1], 0)
        if name == "ncl.csum16r":
            # One's-complement 16-bit checksum (v1model intrinsic).
            s = 0
            for a in args:
                s += a & 0xFFFF
                s = (s & 0xFFFF) + (s >> 16)
            return (~s) & 0xFFFF
        raise InterpError(f"unknown intrinsic {name}")
