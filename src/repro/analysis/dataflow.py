"""Worklist dataflow framework over the NetCL IR.

Set-based analyses model facts as frozensets of hashable items (slot
ids, instruction ids, ...).  A concrete analysis picks a
:class:`Direction`, a meet (``may``: union over paths; must:
intersection), and per-instruction ``gen``/``kill`` sets; the framework
iterates block transfer functions over a worklist until the in/out sets
reach a fixed point.

The driver itself is lattice-agnostic: an analysis may use any fact
type (e.g. the interval environments of :mod:`repro.analysis.absint`)
by overriding :meth:`DataflowAnalysis.initial`,
:meth:`DataflowAnalysis.join`, and optionally
:meth:`DataflowAnalysis.transfer_edge` (per-CFG-edge refinement, how
branch conditions sharpen value ranges) and
:meth:`DataflowAnalysis.widen` (forced convergence on lattices with
long ascending chains).

Kernel CFGs are acyclic (dagcheck enforces this) so the worklist
terminates in one or two sweeps, but the framework is written for
general graphs — it is also exercised on pre-dagcheck IR where cycles
may still exist.

All traversals are iterative (explicit stacks): fully-unrolled NetCL
loops can produce CFGs thousands of blocks deep, far beyond Python's
recursion limit.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, FrozenSet, Hashable, List

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import postorder, predecessor_map, reverse_postorder
from repro.ir.instructions import Instruction
from repro.ir.module import Function

Fact = FrozenSet[Hashable]
EMPTY: Fact = frozenset()


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class DataflowAnalysis:
    """Base class: subclass and override the transfer/meet hooks.

    After :meth:`run`, ``block_in[id(bb)]`` / ``block_out[id(bb)]`` hold
    the fixed-point facts at block entry and exit (in CFG direction,
    regardless of analysis direction).
    """

    direction: Direction = Direction.FORWARD
    #: union meet (may-analysis) when True; intersection (must) when False.
    may: bool = True

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.block_in: Dict[int, Fact] = {}
        self.block_out: Dict[int, Fact] = {}

    # -- hooks ---------------------------------------------------------------
    def boundary(self, fn: Function) -> Fact:
        """Fact at the entry (forward) or at every exit (backward)."""
        return EMPTY

    def initial(self, fn: Function):
        """Fact every block starts from before the first update.

        For set lattices this is the conventional optimistic start
        (empty for may, universe for must).  Non-set analyses override
        this with their bottom ("unreached") element.
        """
        return EMPTY if self.may else self.universe(fn)

    def join(self, a, b):
        """Pairwise meet of two facts (union for may, intersection for
        must).  Non-set lattices override this."""
        return (a | b) if self.may else (a & b)

    def transfer_edge(self, pred: BasicBlock, succ: BasicBlock, fact):
        """Refine ``fact`` as it flows along the CFG edge pred->succ
        (forward) or succ->pred (backward).  The default is the identity;
        path-refining analyses (branch-condition refinement) override it."""
        return fact

    def widen(self, old, new, updates: int):
        """Accelerate convergence after ``updates`` changes to one block's
        fact.  The default trusts the lattice to have finite height."""
        return new

    # -- driver ---------------------------------------------------------------
    def transfer_block(self, bb: BasicBlock, fact: Fact) -> Fact:
        insts = bb.instructions
        if self.direction == Direction.BACKWARD:
            insts = reversed(insts)
        for inst in insts:
            fact = self.transfer_inst(inst, fact)
        return fact

    def _meet(self, facts: List) -> Fact:
        if not facts:
            return EMPTY if self.may else self.universe(self.fn)
        result = facts[0]
        for f in facts[1:]:
            result = self.join(result, f)
        return result

    def run(self) -> "DataflowAnalysis":
        forward = self.direction == Direction.FORWARD
        blocks = reverse_postorder(self.fn) if forward else postorder(self.fn)
        start = self.initial(self.fn)
        for bb in blocks:
            self.block_in[id(bb)] = start
            self.block_out[id(bb)] = start

        boundary = self.boundary(self.fn)
        entry = self.fn.entry
        preds = predecessor_map(self.fn)
        updates: Dict[int, int] = {}

        worklist = list(blocks)
        on_list = {id(bb) for bb in worklist}
        while worklist:
            bb = worklist.pop(0)
            on_list.discard(id(bb))
            if forward:
                if bb is entry:
                    in_fact = boundary
                else:
                    in_fact = self._meet(
                        [
                            self.transfer_edge(p, bb, self.block_out[id(p)])
                            for p in preds[id(bb)]
                            if id(p) in self.block_out
                        ]
                    )
                self.block_in[id(bb)] = in_fact
                out_fact = self.transfer_block(bb, in_fact)
                if out_fact != self.block_out[id(bb)]:
                    n = updates[id(bb)] = updates.get(id(bb), 0) + 1
                    out_fact = self.widen(self.block_out[id(bb)], out_fact, n)
                    self.block_out[id(bb)] = out_fact
                    for s in bb.successors():
                        if id(s) not in on_list and id(s) in self.block_in:
                            worklist.append(s)
                            on_list.add(id(s))
            else:
                if not bb.successors():
                    out_fact = boundary
                else:
                    out_fact = self._meet(
                        [
                            self.transfer_edge(s, bb, self.block_in[id(s)])
                            for s in bb.successors()
                            if id(s) in self.block_in
                        ]
                    )
                self.block_out[id(bb)] = out_fact
                in_fact = self.transfer_block(bb, out_fact)
                if in_fact != self.block_in[id(bb)]:
                    n = updates[id(bb)] = updates.get(id(bb), 0) + 1
                    in_fact = self.widen(self.block_in[id(bb)], in_fact, n)
                    self.block_in[id(bb)] = in_fact
                    for p in preds[id(bb)]:
                        if id(p) not in on_list and id(p) in self.block_out:
                            worklist.append(p)
                            on_list.add(id(p))
        return self

    # -- per-instruction walk-through ------------------------------------------
    def facts_before(self, bb: BasicBlock) -> List[Fact]:
        """The fact holding immediately *before* each instruction of ``bb``
        in analysis direction (forward: before in program order; backward:
        the fact flowing into the instruction from below)."""
        facts: List[Fact] = []
        if self.direction == Direction.FORWARD:
            fact = self.block_in.get(id(bb), EMPTY)
            for inst in bb.instructions:
                facts.append(fact)
                fact = self.transfer_inst(inst, fact)
        else:
            fact = self.block_out.get(id(bb), EMPTY)
            rev: List[Fact] = []
            for inst in reversed(bb.instructions):
                rev.append(fact)
                fact = self.transfer_inst(inst, fact)
            facts = list(reversed(rev))
        return facts


class GenKillAnalysis(DataflowAnalysis):
    """Dataflow specialization where each instruction's transfer is
    ``(fact - kill) | gen`` — the classic bit-vector form."""

    def inst_kill(self, inst: Instruction) -> Fact:
        return EMPTY

    def transfer_inst(self, inst: Instruction, fact: Fact) -> Fact:
        gen = self.inst_gen(inst)
        kill = self.inst_kill(inst)
        if not gen and not kill:
            return fact
        return (fact - kill) | gen
