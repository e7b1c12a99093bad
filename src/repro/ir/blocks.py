"""Basic blocks and CFG edges."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Optional

from repro.ir.instructions import Instruction, Phi, Terminator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.module import Function
_bb_counter = itertools.count()


class BasicBlock:
    """A straight-line instruction sequence ending in a terminator."""

    def __init__(self, name: str = "", parent: Optional["Function"] = None) -> None:
        self.name = name or f"bb{next(_bb_counter)}"
        self.parent = parent
        self.instructions: list[Instruction] = []

    # -- construction --------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"appending to terminated block {self.name}")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    # -- structure -----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> tuple["BasicBlock", ...]:
        term = self.terminator
        return term.successors() if term is not None else ()

    def phis(self) -> Iterator[Phi]:
        for inst in self.instructions:
            if isinstance(inst, Phi):
                yield inst
            else:
                break
