"""SSA construction: promote scalar local slots to registers.

Standard algorithm: place φ-nodes at the iterated dominance frontier of
each promotable alloca's store blocks, then rename along the dominator
tree.  Array allocas (P4 header stacks) and slots with indexed accesses
are left in place.
"""

from __future__ import annotations

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import DominatorTree
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store, Undef, Value
from repro.ir.module import Function, replace_uses


def _promotable(fn: Function) -> list[Alloca]:
    """Scalar allocas whose every use is an unindexed Load or Store."""
    ok: dict[Alloca, bool] = {}
    for inst in fn.instructions():
        if isinstance(inst, Alloca):
            ok.setdefault(inst, inst.is_scalar)
    for inst in fn.instructions():
        if isinstance(inst, (Load, Store)):
            if inst.indices:
                ok[inst.slot] = False
        else:
            for op in inst.operands:
                if isinstance(op, Alloca):
                    ok[op] = False
    return [alloca for alloca, good in ok.items() if good]


def mem2reg(fn: Function) -> int:
    """Promote scalar locals to SSA values.  Returns #promoted slots.

    Every slot is renamed in the same dominator-tree walk; the loads it
    removes are rewritten in one sweep, and dead φs are pruned once.
    """
    candidates = _promotable(fn)
    if not candidates:
        return 0
    dt = DominatorTree(fn)
    reachable = {id(bb) for bb in dt.rpo}
    frontiers = dt.dominance_frontiers()
    blocks_by_id = {id(bb): bb for bb in fn.blocks}
    def_blocks: dict[Alloca, set[int]] = {alloca: set() for alloca in candidates}
    for inst in fn.instructions():
        if isinstance(inst, Store) and inst.slot in def_blocks:
            def_blocks[inst.slot].add(id(inst.parent))

    # 1. Insert φs at each slot's iterated dominance frontier (a later
    # slot's φ in front of an earlier slot's).
    phis: dict[int, dict[Alloca, Phi]] = {}
    for alloca in candidates:
        phi_blocks: set[int] = set()
        work = [b for b in def_blocks[alloca] if b in reachable]
        while work:
            for f in frontiers.get(work.pop(), ()):
                if f not in phi_blocks and f in reachable:
                    phi_blocks.add(f)
                    work.append(f)
        for bid in phi_blocks:
            node = Phi(alloca.elem, name=f"{alloca.name}.phi")
            blocks_by_id[bid].insert(0, node)
            phis.setdefault(bid, {})[alloca] = node

    # 2. Rename along the dominator tree.
    children: dict[int, list[BasicBlock]] = {}
    for bb in dt.rpo:
        parent = dt.immediate_dominator(bb)
        if parent is not None:
            children.setdefault(id(parent), []).append(bb)
    #: each slot's value on entry to the block being renamed
    current: dict[Alloca, Value] = {
        alloca: Undef(alloca.elem, f"{alloca.name}.undef") for alloca in candidates
    }
    #: removed load of a slot -> the value reaching it; a definition is
    #: renamed before its uses, so every use is rewritten in one sweep below
    reaching: dict[Value, Value] = {}

    def rename(bb: BasicBlock) -> None:
        saved = [(alloca, current[alloca]) for alloca in phis.get(id(bb), ())]
        current.update(phis.get(id(bb), {}))
        kept: list[Instruction] = []
        for inst in bb.instructions:
            if isinstance(inst, Load) and inst.slot in current:
                reaching[inst] = current[inst.slot]
                inst.parent = None
            elif isinstance(inst, Store) and inst.slot in current:
                saved.append((inst.slot, current[inst.slot]))
                current[inst.slot] = reaching.get(inst.value, inst.value)
                inst.parent = None
            else:
                kept.append(inst)
        bb.instructions = kept
        for succ in bb.successors():
            for alloca, node in phis.get(id(succ), {}).items():
                node.add_incoming(current[alloca], bb)
        for child in children.get(id(bb), ()):
            rename(child)
        for alloca, value in reversed(saved):
            current[alloca] = value

    rename(fn.entry)
    replace_uses(fn, reaching)

    # 3. Remove the allocas, then every φ nothing but itself uses.
    for alloca in candidates:
        alloca.parent.remove(alloca)
    _prune_dead_phis(fn)
    return len(candidates)


def _prune_dead_phis(fn: Function) -> None:
    uses: dict[Phi, int] = {}
    for inst in fn.instructions():
        if isinstance(inst, Phi):
            uses.setdefault(inst, 0)
        for op in inst.operands:
            if isinstance(op, Phi) and op is not inst:
                uses[op] = uses.get(op, 0) + 1
    dead = [node for node, n in uses.items() if n == 0]
    while dead:
        node = dead.pop()
        node.parent.remove(node)
        for op in node.operands:
            if isinstance(op, Phi) and op is not node:
                uses[op] -= 1
                if uses[op] == 0 and op.parent is not None:
                    dead.append(op)
