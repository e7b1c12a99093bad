"""Instruction hoisting and aggressive speculation (§VI-B).

*Hoisting*: instructions computing the same value in sibling blocks are
moved to a common dominator (when their operands are available there) and
deduplicated.

*Speculation*: pure value-producing instructions are hoisted to the
earliest block where their operands are available — executing them on
paths that may not need them.  On Tofino this can shorten the critical
path enough to fit a program that otherwise would not (the paper credits
speculation for fitting one of its major programs), at the cost of PHV
pressure — hence it is a compiler flag.

Neither pass touches memory-accessing instructions: speculating a global
access would violate the mutual-exclusion property checked by
:mod:`repro.passes.memcheck`.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.instructions import (
    BinOp,
    Cast,
    Constant,
    ICmp,
    Instruction,
    Intrinsic,
    LoadMsg,
    Select,
    Value,
)
from repro.ir.module import Function, replace_uses, rewrite_operands


_NO_SPECULATE = frozenset(("udiv", "sdiv", "urem", "srem"))  # may trap on /0


def _pure_value(inst: Instruction) -> bool:
    """Instructions that produce a value and do not touch memory."""
    if isinstance(inst, BinOp):
        return inst.kind.value not in _NO_SPECULATE
    if isinstance(inst, (ICmp, Select, Cast)):
        return True
    if isinstance(inst, Intrinsic):
        return not inst.has_side_effects
    if isinstance(inst, LoadMsg):
        # Message fields are thread-private; reading early is safe as long
        # as no StoreMsg to the same field could intervene — conservatively
        # only speculate constant-index loads of fields that are never
        # stored (checked by the caller).
        return False
    return False


def _op_key(v: Value):
    """Operand identity for value numbering: constants compare by value."""
    if isinstance(v, Constant):
        return ("const", v.type, v.value)
    return ("v", id(v))


def _value_key(inst: Instruction) -> Optional[tuple]:
    """Hashable identity of a pure computation, for deduplication."""
    if isinstance(inst, BinOp):
        ops = (_op_key(inst.a), _op_key(inst.b))
        if inst.kind.commutative:
            ops = tuple(sorted(ops))
        return ("bin", inst.kind, inst.type, ops)
    if isinstance(inst, ICmp):
        return ("icmp", inst.pred, _op_key(inst.a), _op_key(inst.b))
    if isinstance(inst, Cast):
        return ("cast", inst.kind, inst.type, _op_key(inst.value))
    if isinstance(inst, Select):
        return ("select", _op_key(inst.cond), _op_key(inst.t), _op_key(inst.f))
    if isinstance(inst, Intrinsic) and not inst.has_side_effects:
        return ("intr", inst.callee, inst.type, tuple(_op_key(a) for a in inst.args))
    return None


def _def_block(v: Value) -> Optional[BasicBlock]:
    if isinstance(v, Instruction):
        return v.parent
    return None  # constants, arguments, undef: available everywhere


def _operands_available(inst: Instruction, dest: BasicBlock, dt: DominatorTree) -> bool:
    for op in inst.operands:
        db = _def_block(op)
        if db is None:
            continue
        if db is dest:
            continue  # insertion goes before the terminator, after all defs
        if not dt.dominates(db, dest):
            return False
    return True


def _move_before_terminator(inst: Instruction, dest: BasicBlock) -> None:
    assert inst.parent is not None
    inst.parent.remove(inst)
    idx = len(dest.instructions)
    if dest.terminator is not None:
        idx -= 1
    dest.insert(idx, inst)


def hoist_common_values(fn: Function) -> int:
    """GVN-style dedup: identical pure computations collapse to one.

    Returns the number of instructions eliminated or moved.  Walks in
    reverse post-order, so each instruction's operands are rewritten
    through earlier merges on arrival, before it is keyed.
    """
    changes = 0
    changed = True
    while changed:
        changed = False
        dt = DominatorTree(fn)
        seen: dict[tuple, Instruction] = {}
        alias: dict[Value, Value] = {}
        for bb in dt.rpo:
            for inst in list(bb.instructions):
                if alias:
                    rewrite_operands(inst, alias)
                key = _value_key(inst)
                if key is None:
                    continue
                prior = seen.get(key)
                if prior is None or prior.parent is None:
                    seen[key] = inst
                    continue
                pb, ib = prior.parent, inst.parent
                assert pb is not None and ib is not None
                if dt.dominates(pb, ib):
                    alias[inst] = prior
                    ib.remove(inst)
                    changes += 1
                    changed = True
                    continue
                ncd = dt.nearest_common_dominator([pb, ib])
                if _operands_available(prior, ncd, dt):
                    _move_before_terminator(prior, ncd)
                    alias[inst] = prior
                    ib.remove(inst)
                    changes += 1
                    changed = True
        replace_uses(fn, alias)
    return changes


def speculate(fn: Function) -> int:
    """Hoist pure computations to the earliest block whose dominators
    define all their operands.  Returns the number of moved instructions.
    """
    moved = 0
    dt = DominatorTree(fn)
    for bb in dt.rpo:
        for inst in list(bb.instructions):
            if not _pure_value(inst):
                continue
            # Climb the dominator tree while operands stay available.  An
            # operand defined *in* the candidate block (including φs at its
            # head) is fine: insertion happens before the terminator.
            dest = bb
            while True:
                parent = dt.immediate_dominator(dest)
                if parent is None or parent is dest:
                    break
                if not _operands_available(inst, parent, dt):
                    break
                dest = parent
            if dest is not bb:
                _move_before_terminator(inst, dest)
                moved += 1
    return moved
