"""Convenience builder for emitting IR instruction streams."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.blocks import BasicBlock
from repro.ir.instructions import (
    Action,
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
    SourceLoc,
    Store,
    StoreGlobal,
    StoreMsg,
    Value,
)
from repro.ir.module import Function, GlobalVar
from repro.ir.types import ArrayShape, IntType


class IRBuilder:
    """Appends instructions to a current insertion block.

    Mirrors ``llvm::IRBuilder``: frontend lowering and passes position the
    builder on a block and emit; every ``emit_*`` helper returns the created
    instruction so it can be used as an operand downstream.
    """

    def __init__(self, function: Function) -> None:
        self.function = function
        self.block: Optional[BasicBlock] = None
        self._loc: Optional[SourceLoc] = None

    def set_source_line(self, line: Optional[int], col: int = 0) -> None:
        """Stamp subsequently emitted instructions with a source location."""
        self._loc = None if line is None else SourceLoc(int(line), int(col))

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def new_block(self, name: str = "") -> BasicBlock:
        return self.function.new_block(name)

    def _append(self, inst: Instruction) -> Instruction:
        if self.block is None:
            raise ValueError("builder has no insertion block")
        inst.loc = self._loc
        return self.block.append(inst)

    # -- arithmetic / logic ---------------------------------------------------
    def binop(self, kind: BinOpKind, a: Value, b: Value, name: str = "") -> Instruction:
        return self._append(BinOp(kind, a, b, name))

    def icmp(self, pred: ICmpPred, a: Value, b: Value, name: str = "") -> Instruction:
        return self._append(ICmp(pred, a, b, name))

    def cast(self, kind: CastKind, v: Value, to: IntType, name: str = "") -> Instruction:
        return self._append(Cast(kind, v, to, name))

    def coerce(self, v: Value, to: IntType, name: str = "") -> Value:
        """Insert the cast needed to view ``v`` as type ``to`` (if any)."""
        if v.type == to:
            return v
        assert isinstance(v.type, IntType)
        if isinstance(v, Constant):
            return Constant(to, v.value)
        if v.type.width == to.width:
            return self.cast(CastKind.BITCAST, v, to, name)
        if v.type.width < to.width:
            kind = CastKind.SEXT if v.type.signed else CastKind.ZEXT
            return self.cast(kind, v, to, name)
        return self.cast(CastKind.TRUNC, v, to, name)

    # -- locals ---------------------------------------------------------------
    def alloca(self, elem: IntType, shape: ArrayShape = ArrayShape(), name: str = "") -> Alloca:
        inst = Alloca(elem, shape, name)
        # Allocas live in the entry block so mem2reg sees a single decl point.
        entry = self.function.entry
        idx = 0
        while idx < len(entry.instructions) and isinstance(entry.instructions[idx], Alloca):
            idx += 1
        entry.insert(idx, inst)
        return inst

    def load(self, slot: Alloca, indices: Sequence[Value] = (), name: str = "") -> Instruction:
        return self._append(Load(slot, indices, name))

    def store(self, slot: Alloca, value: Value, indices: Sequence[Value] = ()) -> Instruction:
        return self._append(Store(slot, value, indices))

    # -- message fields ---------------------------------------------------------
    def load_msg(self, field: str, elem: IntType, index: Optional[Value] = None, name: str = "") -> Instruction:
        return self._append(LoadMsg(field, elem, index, name))

    def store_msg(self, field: str, value: Value, index: Optional[Value] = None) -> Instruction:
        return self._append(StoreMsg(field, value, index))

    # -- global memory ----------------------------------------------------------
    def load_global(self, gv: GlobalVar, indices: Sequence[Value] = (), name: str = "") -> Instruction:
        return self._append(LoadGlobal(gv, indices, name))

    def store_global(self, gv: GlobalVar, value: Value, indices: Sequence[Value] = ()) -> Instruction:
        return self._append(StoreGlobal(gv, value, indices))

    def atomic(
        self,
        op: AtomicOp,
        gv: GlobalVar,
        indices: Sequence[Value],
        operand: Optional[Value] = None,
        **kwargs,
    ) -> Instruction:
        return self._append(AtomicRMW(op, gv, indices, operand, **kwargs))

    def lookup(self, gv: GlobalVar, key: Value, name: str = "") -> Instruction:
        return self._append(Lookup(gv, key, name))

    def lookup_val(self, gv: GlobalVar, key: Value, default: Value, name: str = "") -> Instruction:
        return self._append(LookupVal(gv, key, default, name))

    # -- calls --------------------------------------------------------------------
    def intrinsic(self, callee: str, args: Sequence[Value], type_: IntType, name: str = "") -> Instruction:
        return self._append(Intrinsic(callee, args, type_, name))

    # -- terminators -----------------------------------------------------------------
    def jmp(self, target: BasicBlock) -> Instruction:
        return self._append(Jmp(target))

    def br(self, cond: Value, then_: BasicBlock, else_: BasicBlock) -> Instruction:
        return self._append(Br(cond, then_, else_))

    def ret_action(self, kind: ActionKind, target: Optional[Value] = None) -> Instruction:
        return self._append(Ret(Action(kind, target)))

    # -- constants ----------------------------------------------------------------------
