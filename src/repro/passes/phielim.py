"""φ-node elimination (§VI-B).

Each φ gets a fresh local slot; a store of the incoming value is placed
before the terminator of each incoming block, and the φ becomes a load.
Kernels are loop-free DAGs, so φ operands are never sibling φs of the same
block and the classic lost-copy/swap problems cannot arise.
"""

from __future__ import annotations

from repro.ir.instructions import Alloca, Load, Store, Value
from repro.ir.module import Function, replace_uses


def eliminate_phis(fn: Function) -> int:
    """Replace every φ with (stores in predecessors + a load).  Returns the
    number of φs eliminated."""
    count = 0
    entry = fn.entry
    loads: dict[Value, Value] = {}
    for bb in list(fn.blocks):
        for phi in list(bb.phis()):
            assert isinstance(phi.type, type(phi.type))
            slot = Alloca(phi.type, name=f"{phi.name}.slot")  # type: ignore[arg-type]
            # Allocas live at the head of the entry block.
            idx = 0
            while idx < len(entry.instructions) and isinstance(entry.instructions[idx], Alloca):
                idx += 1
            entry.insert(idx, slot)
            for value, pred in phi.incoming:
                store = Store(slot, value)
                pos = len(pred.instructions)
                if pred.terminator is not None:
                    pos -= 1
                pred.insert(pos, store)
            load = Load(slot, name=f"{phi.name}.val")
            pos = bb.instructions.index(phi)
            bb.remove(phi)
            bb.insert(pos, load)
            loads[phi] = load
            count += 1
    replace_uses(fn, loads)
    return count
