"""Dominator analysis (Cooper-Harper-Kennedy) and CFG orderings.

Used by mem2reg (phi placement via dominance frontiers), the hoisting and
speculation passes (common dominators, earliest placement), and code
generation (the structurizer emits sinks in the scope of the nearest common
dominator of their predecessors, §VI-B).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.ir.blocks import BasicBlock
from repro.ir.module import Function


def postorder(fn: Function) -> list[BasicBlock]:
    """Blocks reachable from the entry in DFS postorder.

    Iterative: fully-unrolled NetCL loops produce CFGs thousands of
    blocks deep, far past Python's recursion limit.
    """
    order: list[BasicBlock] = []
    seen = {id(fn.entry)}
    stack = [(fn.entry, iter(fn.entry.successors()))]
    while stack:
        bb, succs = stack[-1]
        for succ in succs:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                break
        else:
            order.append(bb)
            stack.pop()
    return order


def reverse_postorder(fn: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (topological for DAGs)."""
    return postorder(fn)[::-1]


def predecessor_map(fn: Function) -> dict[int, list[BasicBlock]]:
    """Block id -> predecessors, each once and in function block order,
    for all blocks in one sweep: the only way ``src`` asks for
    predecessors.  A pass that edits the CFG updates its map or asks
    again."""
    preds: dict[int, list[BasicBlock]] = {id(bb): [] for bb in fn.blocks}
    for bb in fn.blocks:
        for succ in dict.fromkeys(bb.successors()):
            preds.setdefault(id(succ), []).append(bb)
    return preds


class DominatorTree:
    """Immediate dominators, dominance queries, and dominance frontiers
    of the CFG as it is at construction."""

    def __init__(self, fn: Function) -> None:
        self.function = fn
        self.rpo = reverse_postorder(fn)
        self._preds = predecessor_map(fn)
        self._rpo_index = {id(bb): i for i, bb in enumerate(self.rpo)}
        self.idom: dict[int, BasicBlock] = {}
        self._compute_idoms()
        self._depth: dict[int, int] = {}
        self._compute_depths()

    # -- construction --------------------------------------------------------
    def _compute_idoms(self) -> None:
        entry = self.function.entry
        self.idom[id(entry)] = entry
        changed = True
        while changed:
            changed = False
            for bb in self.rpo:
                if bb is entry:
                    continue
                preds = [p for p in self._preds[id(bb)] if id(p) in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(p, new_idom)
                if self.idom.get(id(bb)) is not new_idom:
                    self.idom[id(bb)] = new_idom
                    changed = True

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._rpo_index[id(a)] > self._rpo_index[id(b)]:
                a = self.idom[id(a)]
            while self._rpo_index[id(b)] > self._rpo_index[id(a)]:
                b = self.idom[id(b)]
        return a

    def _compute_depths(self) -> None:
        entry = self.function.entry
        self._depth[id(entry)] = 0
        for bb in self.rpo:
            if bb is entry or id(bb) not in self.idom:
                continue
            self._depth[id(bb)] = self._depth[id(self.idom[id(bb)])] + 1

    # -- queries ---------------------------------------------------------------
    def immediate_dominator(self, bb: BasicBlock) -> Optional[BasicBlock]:
        if bb is self.function.entry:
            return None
        return self.idom.get(id(bb))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if every path from entry to ``b`` passes through ``a``."""
        while True:
            if a is b:
                return True
            if b is self.function.entry:
                return False
            parent = self.idom.get(id(b))
            if parent is None or parent is b:
                return False
            b = parent

    def nearest_common_dominator(self, blocks: Iterable[BasicBlock]) -> BasicBlock:
        it = iter(blocks)
        try:
            ncd = next(it)
        except StopIteration:
            raise ValueError("nearest_common_dominator of empty set")
        for bb in it:
            ncd = self._intersect(bb, ncd)
        return ncd

    def dominance_frontiers(self) -> dict[int, set[int]]:
        """Per-block dominance frontier as sets of block ids."""
        df: dict[int, set[int]] = {id(bb): set() for bb in self.rpo}
        for bb in self.rpo:
            preds = self._preds[id(bb)]
            if len(preds) < 2:
                continue
            for p in preds:
                runner = p
                while id(runner) in self.idom and runner is not self.idom[id(bb)]:
                    df[id(runner)].add(id(bb))
                    if runner is self.idom[id(runner)]:
                        break
                    runner = self.idom[id(runner)]
        return df
