"""If-conversion: collapse pure diamonds/triangles into selects.

Patterns like the count-min-sketch minimum (``if (c1 < c0) c0 = c1;``)
lower to a branch, a tiny arm, and a φ.  On an RMT pipeline that costs a
gateway plus two dependent stages; a conditional move (``select``) costs
one VLIW slot.  This pass rewrites

.. code-block:: none

    bb:   br %c, then, merge            bb:   %v = select %c, %a, %b
    then: jmp merge             ==>           jmp merge'
    merge: %v = phi [%a, then], [%b, bb]

whenever the speculated arms are side-effect free (and cheap).  It runs
in the peephole family of §VI-B and is part of what keeps generated code
within a few stages of handwritten P4.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import predecessor_map
from repro.ir.instructions import (
    Br,
    GlobalAccess,
    Instruction,
    Jmp,
    Phi,
    Select,
    Terminator,
    Value,
)
from repro.ir.module import Function, replace_uses

#: Do not speculate arms larger than this many instructions.
MAX_SPECULATED_INSTRUCTIONS = 8


def _pure_arm(
    bb: BasicBlock, head: BasicBlock, merge: BasicBlock, preds: list[BasicBlock]
) -> Optional[list[Instruction]]:
    """If ``bb`` (predecessors ``preds``) is a speculatable arm (single pred
    ``head``, single succ ``merge``, only pure instructions), its body."""
    if bb is merge:
        return []
    if len(preds) != 1 or preds[0] is not head:
        return None
    term = bb.terminator
    if not isinstance(term, Jmp) or term.target is not merge:
        return None
    body = [i for i in bb.instructions if i is not term]
    if len(body) > MAX_SPECULATED_INSTRUCTIONS:
        return None
    for inst in body:
        if inst.has_side_effects or isinstance(inst, (Phi, Terminator)):
            return None
        if isinstance(inst, GlobalAccess):
            # Speculating a global access onto the joint path would place
            # two accesses to a stage-local object on one path — exactly
            # what the paper's kernel 1 (§V-D) relies on *not* happening.
            return None
    return body


def if_convert(fn: Function) -> int:
    """Returns the number of branches converted."""
    converted = 0
    preds = predecessor_map(fn)
    alias: dict[Value, Value] = {}
    changed = True
    while changed:
        changed = False
        for head in list(fn.blocks):
            term = head.terminator
            if not isinstance(term, Br):
                continue
            then_, else_ = term.then_, term.else_
            # Identify the merge: arms either are the merge or jump to it.
            merge = None
            for cand in (then_, else_):
                t = cand.terminator
                if isinstance(t, Jmp):
                    merge = t.target
            if merge is None:
                # triangle with one arm being the merge itself
                if then_ in else_.successors():
                    merge = then_
                elif else_ in then_.successors():
                    merge = else_
                else:
                    continue
            if then_ is merge and else_ is merge:
                continue
            then_body = _pure_arm(then_, head, merge, preds[id(then_)])
            else_body = _pure_arm(else_, head, merge, preds[id(else_)])
            if then_body is None or else_body is None:
                continue
            # The merge must join exactly these two paths from `head`.
            merge_preds = preds[id(merge)]
            expected = {id(then_ if then_ is not merge else head),
                        id(else_ if else_ is not merge else head)}
            if {id(p) for p in merge_preds} != expected or len(merge_preds) != 2:
                continue

            # Speculate both arms into the head block, before the branch.
            insert_at = head.instructions.index(term)
            for body in (then_body, else_body):
                for inst in body:
                    inst.parent.remove(inst)
                    head.insert(insert_at, inst)
                    insert_at += 1

            then_key = then_ if then_ is not merge else head
            else_key = else_ if else_ is not merge else head
            for phi in list(merge.phis()):
                tv = phi.incoming_for(then_key)
                ev = phi.incoming_for(else_key)
                if tv is None or ev is None:  # pragma: no cover - guarded above
                    raise AssertionError("phi incoming mismatch during if-conversion")
                sel = Select(term.cond, tv, ev, name=f"{phi.name}.sel")
                head.insert(insert_at, sel)
                insert_at += 1
                alias[phi] = sel
                merge.remove(phi)

            head.remove(term)
            head.append(Jmp(merge))
            for arm in (then_, else_):
                if arm is not merge:
                    fn.remove_block(arm)
                    del preds[id(arm)]
            preds[id(merge)] = [head]
            converted += 1
            changed = True
            break  # block list changed; restart scan
    replace_uses(fn, alias)
    return converted
