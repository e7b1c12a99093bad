"""Intrinsic pattern conversion (§VI-B).

Direct translation of some IR patterns produces P4 that the Tofino
compiler rejects or fits poorly.  This pass rewrites them:

* **Relational compares with dynamic operands** (``icmp ult/ugt/... a, b``
  where neither operand is a constant) become a widened subtraction
  followed by an MSB check — the form Tofino MAU gateways can evaluate.
  The identity (unsigned, width *w*): ``a < b  ⟺  msb(zext_{w+1}(a) -
  zext_{w+1}(b)) == 1``; signed compares sign-extend instead.
* **Leading-zero counts** (``ncl.clz``) are tagged for LPM-table
  implementation — a single stage instead of an ALU chain.
* **Bitcasts on hash engines**: when the ``hash_bitcasts`` flag is on,
  same-width casts are tagged so the backend places them on hash engines
  instead of ALUs (frees VLIW slots, costs a hash engine).

Equality compares and compares against constants are left alone: those map
directly to MAU gateway operations.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.blocks import BasicBlock
from repro.ir.instructions import (
    BinOp,
    BinOpKind,
    Cast,
    CastKind,
    Constant,
    ICmp,
    ICmpPred,
    Instruction,
    Intrinsic,
    Value,
)
from repro.ir.module import Function, replace_uses
from repro.ir.types import BOOL, IntType, int_type

_DYNAMIC_PREDS = {
    ICmpPred.ULT,
    ICmpPred.ULE,
    ICmpPred.UGT,
    ICmpPred.UGE,
    ICmpPred.SLT,
    ICmpPred.SLE,
    ICmpPred.SGT,
    ICmpPred.SGE,
}


def convert_intrinsic_patterns(fn: Function, *, hash_bitcasts: bool = False) -> int:
    """Apply the rewrites.  Returns the number of converted instructions."""
    converted = 0
    #: converted compare -> the instruction computing its result
    results: dict[Value, Value] = {}
    for bb in fn.blocks:
        for inst in list(bb.instructions):
            if isinstance(inst, ICmp):
                result = _convert_icmp(bb, inst)
                if result is not None:
                    results[inst] = result
                    converted += 1
            elif isinstance(inst, Intrinsic) and inst.callee in ("ncl.clz", "ncl.ctz"):
                inst.lpm_table = True  # type: ignore[attr-defined]
            elif hash_bitcasts and isinstance(inst, Cast) and inst.kind == CastKind.BITCAST:
                inst.on_hash_engine = True  # type: ignore[attr-defined]
                converted += 1
    replace_uses(fn, results)
    return converted


def _convert_icmp(bb: BasicBlock, inst: ICmp) -> Optional[Instruction]:
    """Replace ``inst`` in ``bb`` by the MSB check; returns the check's
    result (its uses still name ``inst``), or None to leave it."""
    if inst.pred not in _DYNAMIC_PREDS:
        return None
    if isinstance(inst.a, Constant) or isinstance(inst.b, Constant):
        return None  # constant compares work in gateways directly
    ty = inst.a.type
    assert isinstance(ty, IntType)
    if ty.width >= 64:
        return None  # no headroom for the widened subtraction
    signed = inst.pred in (ICmpPred.SLT, ICmpPred.SLE, ICmpPred.SGT, ICmpPred.SGE)
    # Normalize to a strict less-than: a <= b  ==  !(b < a), etc.
    a, b = inst.a, inst.b
    negate = False
    if inst.pred in (ICmpPred.UGT, ICmpPred.SGT):
        a, b = b, a
    elif inst.pred in (ICmpPred.ULE, ICmpPred.SLE):
        a, b = b, a
        negate = True
    elif inst.pred in (ICmpPred.UGE, ICmpPred.SGE):
        negate = True

    wide = int_type(ty.width + 1)
    pos = bb.instructions.index(inst)
    ext_kind = CastKind.SEXT if signed else CastKind.ZEXT
    za = Cast(ext_kind, a, wide, name="cvt.a")
    zb = Cast(ext_kind, b, wide, name="cvt.b")
    diff = BinOp(BinOpKind.SUB, za, zb, name="cvt.diff")
    msb = BinOp(BinOpKind.LSHR, diff, Constant(wide, ty.width), name="cvt.msb")
    bit = Cast(CastKind.TRUNC, msb, BOOL, name="cvt.lt")
    seq: list[Instruction] = [za, zb, diff, msb, bit]
    result: Instruction = bit
    if negate:
        result = BinOp(BinOpKind.XOR, bit, Constant(BOOL, 1), name="cvt.not")
        seq.append(result)
    for i, new_inst in enumerate(seq):
        new_inst.loc = inst.loc
        bb.insert(pos + i, new_inst)
    bb.remove(inst)
    return result
