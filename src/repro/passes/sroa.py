"""Scalar replacement of aggregates (SROA) for local arrays.

Fully-unrolled NetCL loops leave local arrays accessed exclusively through
compile-time-constant indices (the count-min-sketch's ``c[CMS_HASHES]`` in
Fig. 4).  Such arrays are split into one scalar slot per element so
mem2reg can promote them to SSA — without this, every element access
would become a header-stack operation with an index table (Fig. 9
rightmost), wasting stages on constant indices.

Arrays with any dynamic access keep their header-stack representation.
"""

from __future__ import annotations

from repro.ir.instructions import Alloca, Constant, Instruction, Load, Store, Value
from repro.ir.module import Function, replace_uses
from repro.ir.types import ArrayShape


def _flat_const_index(inst, shape: ArrayShape):
    """Flat element index if all indices are constants, else None."""
    if len(inst.indices) != shape.rank:
        return None
    flat = 0
    for idx, dim in zip(inst.indices, shape.dims):
        if not isinstance(idx, Constant):
            return None
        if not 0 <= idx.value < dim:
            return None  # out-of-range constant: leave for runtime checking
        flat = flat * dim + idx.value
    return flat


def scalarize_local_arrays(fn: Function) -> int:
    """Split constant-indexed local arrays into scalars.  Returns the
    number of arrays replaced."""
    arrays: dict[int, Alloca] = {}
    accesses: dict[int, list[Instruction]] = {}
    eligible: dict[int, bool] = {}

    for inst in fn.instructions():
        if isinstance(inst, Alloca) and not inst.is_scalar:
            arrays[id(inst)] = inst
            accesses.setdefault(id(inst), [])
            eligible.setdefault(id(inst), True)
    for inst in fn.instructions():
        if isinstance(inst, (Load, Store)) and id(inst.slot) in arrays:
            slot = inst.slot
            accesses[id(slot)].append(inst)
            if _flat_const_index(inst, slot.shape) is None:
                eligible[id(slot)] = False
        else:
            for op in inst.operands:
                if isinstance(op, Alloca) and id(op) in arrays:
                    eligible[id(op)] = False  # unexpected aggregate use

    replaced = 0
    scalar_loads: dict[Value, Value] = {}
    for key, alloca in arrays.items():
        if not eligible.get(key) or alloca.shape.num_elements > 256:
            continue
        entry = fn.entry
        scalars: dict[int, Alloca] = {}

        def scalar_for(flat: int) -> Alloca:
            slot = scalars.get(flat)
            if slot is None:
                slot = Alloca(alloca.elem, name=f"{alloca.name}.{flat}")
                idx = 0
                while idx < len(entry.instructions) and isinstance(
                    entry.instructions[idx], Alloca
                ):
                    idx += 1
                entry.insert(idx, slot)
                scalars[flat] = slot
            return slot

        for inst in accesses[key]:
            flat = _flat_const_index(inst, alloca.shape)
            assert flat is not None
            slot = scalar_for(flat)
            bb = inst.parent
            assert bb is not None
            pos = bb.instructions.index(inst)
            if isinstance(inst, Load):
                new = Load(slot, name=inst.name)
            else:
                new = Store(slot, inst.value)
            new.loc = inst.loc
            bb.remove(inst)
            bb.insert(pos, new)
            if isinstance(inst, Load):
                scalar_loads[inst] = new
        # remove the now-unused array alloca
        if alloca.parent is not None:
            alloca.parent.remove(alloca)
        replaced += 1
    replace_uses(fn, scalar_loads)
    return replaced
