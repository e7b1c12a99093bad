"""CFG structurization (§VI-B).

P4 has no arbitrary jumps, so code generation consumes a *structured tree*
(sequences, ifs, leaves) instead of a CFG.  For the structured DAGs the
frontend and passes produce, the tree is recovered with a region algorithm
driven by post-dominators: a conditional's region ends at its immediate
post-dominator, which becomes a sink emitted "in the scope of the nearest
common dominator of its predecessors" (paper's codegen rule).

When the CFG is *not* structured (hand-built IR, or exotic pass output),
we fall back to the paper's predicate-variable structurization: each block
gets a 1-bit predicate local, blocks are emitted linearly in reverse
postorder guarded by their predicate, and terminators become predicate
assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.ir.blocks import BasicBlock
from repro.ir.dominators import reverse_postorder
from repro.ir.instructions import Br, Instruction, Jmp, Ret, Value
from repro.ir.module import Function


# -- structured tree -------------------------------------------------------------


@dataclass
class LeafNode:
    """Straight-line instructions (terminating Ret included, Br/Jmp not).

    ``block`` records provenance so the emitted tree can be verified
    against the CFG edge-for-edge.
    """

    instructions: list[Instruction]
    block: Optional[BasicBlock] = None


@dataclass
class IfNode:
    """A conditional region.  ``cond`` is an IR value or a predicate name."""

    cond: Union[Value, str]
    then: "StructuredNode"
    els: Optional["StructuredNode"]
    negate: bool = False


@dataclass
class SeqNode:
    items: list["StructuredNode"] = field(default_factory=list)


@dataclass
class PredUpdate:
    """Fallback-mode predicate assignment:
    ``pred[target] |= pred[source] && (cond == expect)``."""

    target: str
    source: str  # "" for the entry block (always true)
    cond: Optional[Value]
    expect: bool


@dataclass
class PredDecls:
    names: list[str]


StructuredNode = Union[LeafNode, IfNode, SeqNode, PredUpdate, PredDecls]


class StructurizeError(Exception):
    pass


# -- region algorithm ------------------------------------------------------------------


def structurize(fn: Function) -> StructuredNode:
    """Build the structured tree for ``fn`` (tries regions, falls back to
    predicate variables)."""
    try:
        return _structurize_regions(fn)
    except StructurizeError:
        return _structurize_predicates(fn)


def _structurize_regions(fn: Function) -> StructuredNode:
    """Dominator-scope emission.

    Each block's straight-line code is a leaf; a conditional becomes an
    IfNode whose arms are the dominator subtrees of its successors, and
    the *sink* (the merge block — the branch block's sole multi-predecessor
    dominator-tree child) is emitted right after the IfNode, in the scope
    of the nearest common dominator of its predecessors (§VI-B).  A
    soundness check verifies that every path out of the branch either
    returns or reaches the sink; CFGs violating it (or with several
    sibling sinks) fall back to predicate structurization.
    """
    from repro.ir.dominators import DominatorTree, predecessor_map

    dt = DominatorTree(fn)
    reachable = {id(bb) for bb in dt.rpo}
    preds = predecessor_map(fn)
    visited: set[int] = set()

    preds_count: dict[int, int] = {}
    dom_children: dict[int, list[BasicBlock]] = {}
    for bb in dt.rpo:
        preds_count[id(bb)] = sum(1 for p in preds[id(bb)] if id(p) in reachable)
        idom = dt.immediate_dominator(bb)
        if idom is not None and bb is not fn.entry:
            dom_children.setdefault(id(idom), []).append(bb)

    def emit_scope(b: BasicBlock) -> SeqNode:
        if id(b) in visited:
            raise StructurizeError(f"block {b.name} reached twice")
        visited.add(id(b))
        if any(True for _ in b.phis()):
            raise StructurizeError("phi nodes present; run phi elimination first")
        seq = SeqNode()
        body = [i for i in b.instructions if not isinstance(i, (Br, Jmp))]
        seq.items.append(LeafNode(body, block=b))
        term = b.terminator
        if term is None:
            raise StructurizeError(f"unterminated block {b.name}")
        merges = [c for c in dom_children.get(id(b), []) if preds_count[id(c)] > 1]
        if isinstance(term, Ret):
            if merges:
                raise StructurizeError(f"return block {b.name} has merge children")
            return seq
        if isinstance(term, Jmp):
            if merges:
                raise StructurizeError(f"jump block {b.name} has merge children")
            t = term.target
            if preds_count[id(t)] == 1:
                seq.items.extend(emit_scope(t).items)
            # else: control falls through to an enclosing scope's sink.
            return seq
        assert isinstance(term, Br)
        if len(merges) > 1:
            raise StructurizeError(
                f"branch block {b.name} has {len(merges)} sibling sinks"
            )
        merge = merges[0] if merges else None

        def arm(a: BasicBlock) -> Optional[SeqNode]:
            if a is merge:
                return None  # empty arm: falls straight to the sink
            if preds_count[id(a)] != 1 or dt.immediate_dominator(a) is not b:
                raise StructurizeError(
                    f"arm {a.name} of {b.name} is not a single-entry region"
                )
            return emit_scope(a)

        then_node = arm(term.then_)
        else_node = arm(term.else_)
        if then_node is None and else_node is None:
            raise StructurizeError(f"degenerate branch in {b.name}")
        if then_node is None:
            # Normalize: the then-arm falls through; negate into the else.
            assert else_node is not None
            seq.items.append(IfNode(term.cond, else_node, None, negate=True))
        else:
            seq.items.append(
                IfNode(term.cond, then_node, else_node if (else_node and else_node.items) else None)
            )
        if merge is not None:
            seq.items.extend(emit_scope(merge).items)
        return seq

    tree = emit_scope(fn.entry)
    if visited != reachable:
        raise StructurizeError("region algorithm did not cover the CFG")
    _verify_tree_against_cfg(fn, tree)
    return tree


def _first_block(node: StructuredNode) -> Optional[BasicBlock]:
    if isinstance(node, LeafNode):
        return node.block
    if isinstance(node, SeqNode):
        for item in node.items:
            b = _first_block(item)
            if b is not None:
                return b
    if isinstance(node, IfNode):
        return _first_block(node.then)
    return None


def _verify_tree_against_cfg(fn: Function, tree: StructuredNode) -> None:
    """Exact semantic check: executing the tree must visit blocks along
    precisely the CFG's edges.  For every leaf we compute which block the
    tree would execute next (under each branch outcome) and compare with
    the block's terminator.  Any mismatch aborts region structurization,
    falling back to the always-correct predicate form."""

    def fail(msg: str) -> None:
        raise StructurizeError(f"tree verification failed in {fn.name}: {msg}")

    def next_from(items: list[StructuredNode], i: int, cont: Optional[BasicBlock]):
        for item in items[i:]:
            b = _first_block(item)
            if b is not None:
                return b
        return cont

    def walk(node: StructuredNode, cont: Optional[BasicBlock]) -> None:
        if isinstance(node, LeafNode):
            b = node.block
            if b is None:
                return
            term = b.terminator
            if isinstance(term, Ret):
                return
            if isinstance(term, Jmp):
                if cont is not term.target:
                    fail(
                        f"{b.name} jumps to {term.target.name} but the tree "
                        f"continues at {cont.name if cont else 'exit'}"
                    )
            # Br is validated by the enclosing SeqNode walk (the IfNode
            # immediately follows the leaf).
            return
        if isinstance(node, SeqNode):
            for i, item in enumerate(node.items):
                after = next_from(node.items, i + 1, cont)
                if isinstance(item, IfNode):
                    # The branch owner is the nearest preceding leaf.
                    owner = None
                    for prev in reversed(node.items[:i]):
                        owner = _last_block(prev)
                        if owner is not None:
                            break
                    term = owner.terminator if owner is not None else None
                    if not isinstance(term, Br):
                        fail("IfNode without a preceding branch block")
                    then_entry = _first_block(item.then) or after
                    else_entry = (
                        (_first_block(item.els) if item.els else None) or after
                    )
                    if item.negate:
                        then_entry, else_entry = else_entry, then_entry
                    if then_entry is not term.then_ or else_entry is not term.else_:
                        fail(
                            f"branch {owner.name}: tree targets "
                            f"({then_entry and then_entry.name}, "
                            f"{else_entry and else_entry.name}) != CFG "
                            f"({term.then_.name}, {term.else_.name})"
                        )
                    walk(item.then, after)
                    if item.els is not None:
                        walk(item.els, after)
                else:
                    walk(item, after)
            return
        if isinstance(node, IfNode):  # pragma: no cover - wrapped by Seq
            walk(node.then, cont)
            if node.els is not None:
                walk(node.els, cont)

    walk(tree, None)


def _last_block(node: StructuredNode) -> Optional[BasicBlock]:
    if isinstance(node, LeafNode):
        return node.block
    if isinstance(node, SeqNode):
        for item in reversed(node.items):
            b = _last_block(item)
            if b is not None:
                return b
    if isinstance(node, IfNode):
        return None  # a branch owner never sits inside an IfNode arm's tail
    return None


def _structurize_predicates(fn: Function) -> StructuredNode:
    """Paper fallback: linearize in RPO with 1-bit predicate locals."""
    blocks = reverse_postorder(fn)
    pred_name = {id(b): f"__pred_{b.name}" for b in blocks}
    seq = SeqNode()
    seq.items.append(PredDecls([pred_name[id(b)] for b in blocks if b is not fn.entry]))
    for b in blocks:
        if any(True for _ in b.phis()):
            raise StructurizeError("phi nodes present; run phi elimination first")
        body = [i for i in b.instructions if not isinstance(i, (Br, Jmp))]
        src = "" if b is fn.entry else pred_name[id(b)]
        updates: list[PredUpdate] = []
        term = b.terminator
        if isinstance(term, Jmp):
            updates.append(PredUpdate(pred_name[id(term.target)], src, None, True))
        elif isinstance(term, Br):
            updates.append(PredUpdate(pred_name[id(term.then_)], src, term.cond, True))
            updates.append(PredUpdate(pred_name[id(term.else_)], src, term.cond, False))
        inner = SeqNode()
        if body:
            inner.items.append(LeafNode(body))
        inner.items.extend(updates)
        if b is fn.entry:
            seq.items.append(inner)
        else:
            seq.items.append(IfNode(src, inner, None))
    return seq
