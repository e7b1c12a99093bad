"""Structural IR verifier.

Run after frontend lowering and, under translation validation
(``verify_passes``), after every transforming pass, to catch malformed IR
early: unterminated blocks, uses of values from
non-dominating blocks, phi/predecessor mismatches, type mismatches on
binary operations, and dangling block references.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import DominatorTree, predecessor_map
from repro.ir.instructions import (
    BinOp,
    Constant,
    ICmp,
    Instruction,
    Phi,
    Select,
    Terminator,
    Undef,
    Value,
)
from repro.ir.module import Argument, Function, GlobalVar, Module
from repro.ir.types import IntType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.diagnostics import DiagnosticEngine

class IRVerifyError(Exception):
    """The IR violates a structural invariant."""


def _err(fn: Function, msg: str) -> None:
    raise IRVerifyError(f"in function {fn.name}: {msg}")


def verify_function(fn: Function, engine: Optional["DiagnosticEngine"] = None) -> None:
    """Check structural invariants; raises :class:`IRVerifyError`.

    With an ``engine``, the first violation is reported as an ``NCL110``
    diagnostic (anchored at the function declaration) and verification of
    this function stops without raising — lint mode keeps collecting.
    """
    if engine is not None:
        try:
            verify_function(fn)
        except IRVerifyError as e:
            engine.emit("NCL110", str(e), fn.loc)
        return
    if not fn.blocks:
        _err(fn, "function has no blocks")

    block_ids = {id(bb) for bb in fn.blocks}
    defined: dict[int, BasicBlock] = {}
    #: instruction id -> its index in its block
    position: dict[int, int] = {}

    for bb in fn.blocks:
        term = bb.terminator
        if term is None:
            _err(fn, f"block {bb.name} is not terminated")
        for i, inst in enumerate(bb.instructions):
            if isinstance(inst, Terminator) and inst is not term:
                _err(fn, f"block {bb.name} has a terminator mid-block")
            if inst.parent is not bb:
                _err(fn, f"instruction {inst!r} has stale parent pointer")
            defined[id(inst)] = bb
            position[id(inst)] = i
        for succ in bb.successors():
            if id(succ) not in block_ids:
                _err(fn, f"block {bb.name} branches to unlisted block {succ.name}")

    # Phi nodes: one incoming value per predecessor, and phis lead the block.
    pred_map = predecessor_map(fn)
    for bb in fn.blocks:
        preds = pred_map[id(bb)]
        seen_non_phi = False
        for inst in bb.instructions:
            if isinstance(inst, Phi):
                if seen_non_phi:
                    _err(fn, f"phi {inst.name} not at head of block {bb.name}")
                inc_blocks = [b for _, b in inst.incoming]
                if len(inc_blocks) != len(preds) or {id(b) for b in inc_blocks} != {
                    id(p) for p in preds
                }:
                    _err(
                        fn,
                        f"phi {inst.name} in {bb.name} does not match predecessors "
                        f"({[b.name for b in inc_blocks]} vs {[p.name for p in preds]})",
                    )
            else:
                seen_non_phi = True

    # Type checks on value-producing instructions.
    for bb in fn.blocks:
        for inst in bb.instructions:
            if isinstance(inst, BinOp) and inst.a.type != inst.b.type:
                _err(fn, f"binop operand type mismatch: {inst!r}")
            if isinstance(inst, ICmp) and inst.a.type != inst.b.type:
                _err(fn, f"icmp operand type mismatch: {inst!r}")
            if isinstance(inst, Select) and inst.t.type != inst.f.type:
                _err(fn, f"select arm type mismatch: {inst!r}")

    # Dominance: every instruction operand must be an argument, constant,
    # global, undef, or an instruction whose definition dominates the use.
    dt = DominatorTree(fn)
    reachable = {id(bb) for bb in dt.rpo}
    for bb in fn.blocks:
        if id(bb) not in reachable:
            continue
        for inst in bb.instructions:
            if isinstance(inst, Phi):
                inc = {id(v): b for v, b in inst.incoming}
            for op in inst.operands:
                if isinstance(op, (Argument, Constant, GlobalVar, Undef)):
                    continue
                if isinstance(op, Instruction):
                    def_bb = defined.get(id(op))
                    if def_bb is None:
                        _err(fn, f"{inst!r} uses value {op.short()} not defined in function")
                    if id(def_bb) not in reachable:
                        continue
                    if isinstance(inst, Phi):
                        # value must dominate the incoming edge's source block
                        src = inc.get(id(op))
                        if src is not None and not dt.dominates(def_bb, src):
                            _err(
                                fn,
                                f"phi {inst.name}: incoming {op.short()} from "
                                f"{src.name} not dominated by def in {def_bb.name}",
                            )
                    elif def_bb is bb:
                        if position[id(op)] >= position[id(inst)]:
                            _err(fn, f"{inst!r} uses {op.short()} before definition")
                    elif not dt.dominates(def_bb, bb):
                        _err(
                            fn,
                            f"{inst!r} in {bb.name} uses {op.short()} defined in "
                            f"non-dominating block {def_bb.name}",
                        )
                elif not isinstance(op, Value):
                    _err(fn, f"{inst!r} has non-Value operand {op!r}")


def verify_module(mod: Module, engine: Optional["DiagnosticEngine"] = None) -> None:
    for fn in mod.functions.values():
        verify_function(fn, engine)
    for gv in mod.globals.values():
        try:
            if not isinstance(gv.elem, IntType):
                raise IRVerifyError(f"global {gv.name} has non-integer element type")
            if gv.space.is_lookup and gv.lookup_kind is None:
                raise IRVerifyError(f"lookup global {gv.name} missing lookup kind")
        except IRVerifyError as e:
            if engine is None:
                raise
            engine.emit("NCL110", str(e), gv.loc)
