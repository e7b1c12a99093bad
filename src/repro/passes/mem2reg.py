"""SSA construction: promote scalar local slots to registers.

Standard algorithm: place φ-nodes at the iterated dominance frontier of
each promotable alloca's store blocks, then rename along the dominator
tree.  Array allocas (P4 header stacks) and slots with indexed accesses
are left in place.
"""

from __future__ import annotations


from repro.ir.blocks import BasicBlock
from repro.ir.dominators import DominatorTree, reachable_blocks
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store, Undef, Value
from repro.ir.module import Function


def _promotable(fn: Function) -> list[Alloca]:
    """Scalar allocas whose every use is an unindexed Load or Store."""
    allocas: list[Alloca] = []
    uses_ok: dict[int, bool] = {}
    for inst in fn.instructions():
        if isinstance(inst, Alloca):
            allocas.append(inst)
            uses_ok.setdefault(id(inst), inst.is_scalar)
    for inst in fn.instructions():
        if isinstance(inst, Load):
            if inst.indices:
                uses_ok[id(inst.slot)] = False
        elif isinstance(inst, Store):
            if inst.indices:
                uses_ok[id(inst.slot)] = False
        else:
            for op in inst.operands:
                if isinstance(op, Alloca):
                    uses_ok[id(op)] = False
    return [a for a in allocas if uses_ok.get(id(a), False)]


def mem2reg(fn: Function) -> int:
    """Promote scalar locals to SSA values.  Returns #promoted slots."""
    candidates = _promotable(fn)
    if not candidates:
        return 0
    reachable = reachable_blocks(fn)
    dt = DominatorTree(fn)
    frontiers = dt.dominance_frontiers()
    blocks_by_id = {id(bb): bb for bb in fn.blocks}

    for alloca in candidates:
        _promote_one(fn, alloca, dt, frontiers, blocks_by_id, reachable)
    return len(candidates)


def _promote_one(
    fn: Function,
    alloca: Alloca,
    dt: DominatorTree,
    frontiers: dict[int, set[int]],
    blocks_by_id: dict[int, BasicBlock],
    reachable: set[int],
) -> None:
    # 1. Find defining blocks.
    def_blocks: list[BasicBlock] = []
    for bb in fn.blocks:
        for inst in bb.instructions:
            if isinstance(inst, Store) and inst.slot is alloca:
                def_blocks.append(bb)
                break

    # 2. Insert φ at the iterated dominance frontier.
    phi_blocks: set[int] = set()
    work = [id(b) for b in def_blocks if id(b) in reachable]
    seen = set(work)
    while work:
        b = work.pop()
        for f in frontiers.get(b, ()):
            if f not in phi_blocks and f in reachable:
                phi_blocks.add(f)
                if f not in seen:
                    seen.add(f)
                    work.append(f)
    phis: dict[int, Phi] = {}
    for bid in phi_blocks:
        bb = blocks_by_id[bid]
        node = Phi(alloca.elem, name=f"{alloca.name}.phi")
        bb.insert(0, node)
        node.parent = bb
        phis[bid] = node

    # 3. Rename along the dominator tree.
    children: dict[int, list[BasicBlock]] = {}
    for bb in dt.rpo:
        parent = dt.immediate_dominator(bb)
        if parent is not None:
            children.setdefault(id(parent), []).append(bb)

    #: removed load of the slot -> the value reaching it; a definition is
    #: renamed before its uses, so every use is rewritten in one sweep below
    reaching: dict[Load, Value] = {}

    def rename(bb: BasicBlock, incoming: Value) -> None:
        current = incoming
        if id(bb) in phis:
            current = phis[id(bb)]
        to_remove: list[Instruction] = []
        for inst in list(bb.instructions):
            if isinstance(inst, Load) and inst.slot is alloca:
                reaching[inst] = current
                to_remove.append(inst)
            elif isinstance(inst, Store) and inst.slot is alloca:
                current = reaching.get(inst.value, inst.value)
                to_remove.append(inst)
        for inst in to_remove:
            bb.remove(inst)
        for succ in bb.successors():
            node = phis.get(id(succ))
            if node is not None:
                node.add_incoming(current, bb)
        for child in children.get(id(bb), ()):  # dominator-tree children
            rename(child, current)

    rename(fn.entry, Undef(alloca.elem, f"{alloca.name}.undef"))
    if reaching:
        for inst in fn.instructions():
            for op in inst.operands:
                if op in reaching:
                    inst.replace_operand(op, reaching[op])

    # 4. Remove the alloca itself.
    for bb in fn.blocks:
        for inst in list(bb.instructions):
            if inst is alloca:
                bb.remove(inst)

    # 5. Drop trivially dead φ nodes (no uses); iterate to fixpoint.
    _prune_dead_phis(fn)


def _prune_dead_phis(fn: Function) -> None:
    changed = True
    while changed:
        changed = False
        used: set[int] = set()
        for inst in fn.instructions():
            for op in inst.operands:
                if isinstance(op, Phi) and op is not inst:
                    used.add(id(op))
        for bb in fn.blocks:
            for inst in list(bb.phis()):
                if id(inst) not in used:
                    bb.remove(inst)
                    changed = True
