"""The lint suite: per-function and cross-kernel IR checks (NCL001-NCL010).

Every lint here is *read-only*: it never mutates the module it inspects,
so linting can run on the same IR that continues through the compile
pipeline (and the fuzz harness asserts exactly that).

NCL005 and the NCL008-NCL010 family are backed by the value-range
abstract interpreter (:mod:`repro.analysis.absint`): one
:class:`RangeAnalysis` fixed point per function feeds all of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.absint import RangeAnalysis
from repro.analysis.dataflow import (
    EMPTY,
    Direction,
    Fact,
    GenKillAnalysis,
)
from repro.analysis.diagnostics import DiagnosticEngine
from repro.ir.dominators import reverse_postorder
from repro.ir.instructions import (
    Alloca,
    AtomicOp,
    AtomicRMW,
    BinOp,
    BinOpKind,
    Br,
    Cast,
    CastKind,
    Constant,
    ICmp,
    Instruction,
    Load,
    LoadGlobal,
    LoadMsg,
    Lookup,
    LookupVal,
    Phi,
    Select,
    Store,
    StoreGlobal,
    StoreMsg,
)
from repro.ir.module import Function, Module
from repro.ir.types import IntType


def _display(name: str) -> str:
    """Human name of an alloca slot (drop the ``.addr`` ABI suffix)."""
    return name[:-5] if name.endswith(".addr") else name


# -- NCL001: use before write --------------------------------------------------


class AssignedSlots(GenKillAnalysis):
    """Forward must-analysis: slots definitely written on every path."""

    direction = Direction.FORWARD
    may = False  # intersection meet

    def universe(self, fn: Function) -> Fact:
        return frozenset(
            id(i) for i in fn.instructions() if isinstance(i, Alloca)
        )

    def inst_gen(self, inst: Instruction) -> Fact:
        if isinstance(inst, Store):
            return frozenset((id(inst.slot),))
        return EMPTY


def lint_uninitialized(fn: Function, engine: DiagnosticEngine) -> None:
    """NCL001: a Load may execute before any Store to its slot."""
    analysis = AssignedSlots(fn).run()
    reported: Set[int] = set()
    for bb in reverse_postorder(fn):
        facts = analysis.facts_before(bb)
        for inst, fact in zip(bb.instructions, facts):
            if not isinstance(inst, Load):
                continue
            slot = inst.slot
            if id(slot) in fact or id(slot) in reported:
                continue
            reported.add(id(slot))
            engine.emit(
                "NCL001",
                f"'{_display(slot.name)}' may be read before it is written "
                f"in kernel '{fn.name}'",
                inst.loc,
            )


# -- NCL004: dead stores -------------------------------------------------------


class LiveSlots(GenKillAnalysis):
    """Backward may-analysis: scalar slots whose current value may be read."""

    direction = Direction.BACKWARD
    may = True

    def inst_gen(self, inst: Instruction) -> Fact:
        if isinstance(inst, Load):
            return frozenset((id(inst.slot),))
        return EMPTY

    def inst_kill(self, inst: Instruction) -> Fact:
        if isinstance(inst, Store) and inst.slot.is_scalar and not inst.indices:
            return frozenset((id(inst.slot),))
        return EMPTY


def _is_abi_param_copy(fn: Function, inst: Store) -> bool:
    """Entry-block copy of a by-value parameter into its ``.addr`` slot.

    These are emitted for every by-value argument regardless of use, so
    an unused parameter must not surface as a dead store.
    """
    if inst.parent is not fn.entry:
        return False
    value = inst.value
    return (
        isinstance(value, LoadMsg)
        and inst.slot.name == f"{value.field}.addr"
    )


def lint_dead_stores(fn: Function, engine: DiagnosticEngine) -> None:
    """NCL004: a Store to a scalar local whose value is never read."""
    analysis = LiveSlots(fn).run()
    for bb in fn.blocks:
        facts = analysis.facts_before(bb)
        for inst, fact in zip(bb.instructions, facts):
            if not isinstance(inst, Store):
                continue
            if not inst.slot.is_scalar or inst.indices:
                continue
            if id(inst.slot) in fact:
                continue
            if _is_abi_param_copy(fn, inst):
                continue
            engine.emit(
                "NCL004",
                f"value stored to '{_display(inst.slot.name)}' is never read",
                inst.loc,
            )


# -- NCL005: implicit truncation -----------------------------------------------


class _BitsEstimator:
    """Upper bound on the number of significant bits a value can carry.

    Deliberately optimistic for common narrowing idioms (masking, modulo,
    comparisons, constant folding) so that provably-lossless implicit
    truncations are not flagged; anything unknown falls back to the full
    type width.
    """

    _DEPTH_LIMIT = 32

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self._memo: Dict[int, int] = {}
        self._in_progress: Set[int] = set()
        self._stores: Optional[Dict[int, List[Store]]] = None

    def _stores_to(self, slot: Alloca) -> List[Store]:
        if self._stores is None:
            self._stores = {}
            for inst in self.fn.instructions():
                if isinstance(inst, Store):
                    self._stores.setdefault(id(inst.slot), []).append(inst)
        return self._stores.get(id(slot), [])

    def bits(self, value, depth: int = 0) -> int:
        width = value.type.width if isinstance(value.type, IntType) else 64
        if depth > self._DEPTH_LIMIT:
            return width
        key = id(value)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:  # phi/load cycle: give up
            return width
        self._in_progress.add(key)
        try:
            result = min(width, self._bits(value, width, depth))
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    @staticmethod
    def _fold_const(inst: BinOp) -> Optional[int]:
        """Evaluate a constant-operand BinOp; None when not foldable."""
        if not (isinstance(inst.a, Constant) and isinstance(inst.b, Constant)):
            return None
        a, b = inst.a.value, inst.b.value
        k = inst.kind
        try:
            if k in (BinOpKind.ADD, BinOpKind.SADDU):
                out = a + b
            elif k in (BinOpKind.SUB, BinOpKind.SSUBU):
                out = a - b
            elif k == BinOpKind.MUL:
                out = a * b
            elif k == BinOpKind.AND:
                out = a & b
            elif k == BinOpKind.OR:
                out = a | b
            elif k == BinOpKind.XOR:
                out = a ^ b
            elif k == BinOpKind.SHL:
                out = a << b
            elif k == BinOpKind.LSHR:
                out = a >> b
            elif k in (BinOpKind.UDIV, BinOpKind.SDIV):
                out = a // b
            elif k in (BinOpKind.UREM, BinOpKind.SREM):
                out = a % b
            else:
                return None
        except (ZeroDivisionError, ValueError):
            return None
        if isinstance(inst.type, IntType):
            out = inst.type.wrap(out)
        return out

    def _bits(self, value, width: int, depth: int) -> int:
        if isinstance(value, Constant):
            return max(value.value.bit_length(), 0) if value.value >= 0 else width
        if isinstance(value, ICmp):
            return 1
        if isinstance(value, Cast):
            inner = self.bits(value.value, depth + 1)
            if value.kind in (CastKind.ZEXT, CastKind.TRUNC, CastKind.BITCAST):
                return min(inner, width)
            return width  # sext may smear the sign bit
        if isinstance(value, Select):
            return max(self.bits(value.t, depth + 1), self.bits(value.f, depth + 1))
        if isinstance(value, Phi):
            if not value.incoming:
                return width
            return max(self.bits(v, depth + 1) for v, _ in value.incoming)
        if isinstance(value, Load) and value.slot.is_scalar and not value.indices:
            stores = self._stores_to(value.slot)
            if not stores:
                return width
            return max(self.bits(s.value, depth + 1) for s in stores)
        if isinstance(value, BinOp):
            folded = self._fold_const(value)
            if folded is not None:
                return folded.bit_length() if folded >= 0 else width
            a = self.bits(value.a, depth + 1)
            b = self.bits(value.b, depth + 1)
            k = value.kind
            if k == BinOpKind.AND:
                return min(a, b)
            if k in (BinOpKind.OR, BinOpKind.XOR):
                return max(a, b)
            if k in (BinOpKind.ADD, BinOpKind.SADDU):
                return max(a, b) + 1
            if k == BinOpKind.MUL:
                return a + b
            if k == BinOpKind.SHL and isinstance(value.b, Constant):
                return a + value.b.value
            if k == BinOpKind.LSHR and isinstance(value.b, Constant):
                return max(a - value.b.value, 0)
            if k in (BinOpKind.UREM,) and isinstance(value.b, Constant) and value.b.value > 0:
                return (value.b.value - 1).bit_length()
            if k in (BinOpKind.UDIV,) and isinstance(value.b, Constant) and value.b.value > 0:
                return max(a - (value.b.value.bit_length() - 1), 0)
            if k == BinOpKind.SSUBU:
                return max(a, b)  # saturates at zero
            return width
        return width


def lint_truncation(
    fn: Function, engine: DiagnosticEngine, ranges: Optional[RangeAnalysis] = None
) -> None:
    """NCL005: an assignment implicitly drops significant bits.

    Two independent provers may clear a truncation: the syntactic bits
    estimator (masking/shift idioms) and the value-range analysis
    (branch-guarded assignments — ``if (x < 10) y8 = x;`` is safe even
    though ``x`` is 32 bits wide).
    """
    est = _BitsEstimator(fn)
    for inst in fn.instructions():
        if isinstance(inst, Store):
            value, target = inst.value, f"'{_display(inst.slot.name)}'"
        elif isinstance(inst, StoreMsg):
            value, target = inst.value, f"message field '{inst.field}'"
        elif isinstance(inst, StoreGlobal):
            value, target = inst.value, f"'@{inst.gv.name}'"
        else:
            continue
        if not isinstance(value, Cast) or value.kind != CastKind.TRUNC:
            continue
        if value.explicit:
            continue
        src_ty = value.value.type
        dst_ty = value.type
        if not isinstance(src_ty, IntType) or not isinstance(dst_ty, IntType):
            continue
        if est.bits(value.value) <= dst_ty.width:
            continue
        if ranges is not None and ranges.range_of_value(value.value).fits(dst_ty.width):
            continue
        engine.emit(
            "NCL005",
            f"implicit truncation from {src_ty} to {dst_ty} in assignment "
            f"to {target} may lose significant bits",
            inst.loc or value.loc,
        )


# -- NCL006: unreachable code --------------------------------------------------


def lint_unreachable(fn: Function, engine: DiagnosticEngine) -> None:
    """NCL006: blocks no path from the entry reaches.

    Only blocks containing real (non-terminator) instructions are
    reported — lowering legitimately leaves empty merge blocks behind
    ``if``/``else`` arms that both return.
    """
    reachable: Set[int] = set()
    stack = [fn.entry]
    while stack:
        bb = stack.pop()
        if id(bb) in reachable:
            continue
        reachable.add(id(bb))
        stack.extend(bb.successors())
    for bb in fn.blocks:
        if id(bb) in reachable:
            continue
        body = [i for i in bb.instructions if not i.is_terminator]
        if not body:
            continue
        loc = next((i.loc for i in body if i.loc is not None), None)
        engine.emit(
            "NCL006",
            f"statement in kernel '{fn.name}' is unreachable",
            loc,
        )


# -- NCL002 / NCL003: module-wide global-memory lints --------------------------


_WRITE_ACCESSES = (StoreGlobal,)
_READ_ACCESSES = (LoadGlobal, Lookup, LookupVal)


def _result_is_used(fn: Function, inst: Instruction) -> bool:
    for other in fn.instructions():
        if inst in other.operands:
            return True
    return False


def _access_modes(fn: Function) -> Dict[int, Tuple[bool, bool, Optional[Instruction]]]:
    """Per accessed global (by id): (reads, writes, first write or access)."""
    modes: Dict[int, List] = {}
    for inst in fn.instructions():
        gv = getattr(inst, "gv", None)
        if gv is None:
            continue
        entry = modes.setdefault(id(gv), [False, False, None])
        if isinstance(inst, _WRITE_ACCESSES):
            entry[1] = True
        elif isinstance(inst, _READ_ACCESSES):
            entry[0] = True
        elif isinstance(inst, AtomicRMW):
            if inst.op == AtomicOp.WRITE:
                entry[1] = True
                if _result_is_used(fn, inst):
                    entry[0] = True
            elif inst.op == AtomicOp.READ:
                entry[0] = True
            else:
                # read-modify-write: both a read and a write of the cell
                entry[0] = True
                entry[1] = True
        else:
            continue
        if entry[2] is None:
            entry[2] = inst
    return {k: (r, w, site) for k, (r, w, site) in modes.items()}


def _placements_overlap(a: frozenset, b: frozenset) -> bool:
    """Location sets overlap; an empty set means "everywhere" (§V-C)."""
    if not a or not b:
        return True
    return bool(a & b)


def lint_shared_state(module: Module, engine: DiagnosticEngine) -> None:
    """NCL002: two kernels co-located on a device share a register-space
    global and at least one of them writes it."""
    per_kernel = [(fn, _access_modes(fn)) for fn in module.kernels()]
    reported: Set[Tuple[int, str, str]] = set()
    for gv in module.globals.values():
        if gv.space.is_lookup:
            continue
        users = []
        for fn, modes in per_kernel:
            if id(gv) not in modes:
                continue
            if not _placements_overlap(fn.locations, gv.locations):
                continue
            users.append((fn, modes[id(gv)]))
        for i, (fn_a, (r_a, w_a, site_a)) in enumerate(users):
            for fn_b, (r_b, w_b, site_b) in users[i + 1 :]:
                if not _placements_overlap(fn_a.locations, fn_b.locations):
                    continue
                if not (w_a or w_b):
                    continue  # two readers never conflict
                key = (id(gv), fn_a.name, fn_b.name)
                if key in reported:
                    continue
                reported.add(key)
                writer, other = (fn_a, fn_b) if w_a else (fn_b, fn_a)
                site = site_b or site_a
                engine.emit(
                    "NCL002",
                    f"global '@{gv.name}' is written by kernel "
                    f"'{writer.name}' and also accessed by kernel "
                    f"'{other.name}' on the same device; cross-kernel "
                    f"state updates are not synchronized",
                    site.loc if site is not None else gv.loc,
                )


def lint_dead_globals(module: Module, engine: DiagnosticEngine) -> None:
    """NCL003: register-space globals the data plane only ever writes.

    ``_managed_`` memory is exempt — the host reads it through the
    control plane, so device-side write-only traffic is the normal
    telemetry pattern.  Globals placed on several devices are also
    exempt from the written-never-read rule: replicated state (e.g.
    Paxos acceptor logs) is written for durability and consumed out of
    band.
    """
    for gv in module.globals.values():
        if gv.space.is_lookup or gv.space.is_managed:
            continue
        replicated = len(gv.locations) > 1
        reads = False
        writes = False
        accessed = False
        for fn in module.functions.values():
            for inst in fn.instructions():
                if getattr(inst, "gv", None) is not gv:
                    continue
                accessed = True
                if isinstance(inst, _READ_ACCESSES):
                    reads = True
                elif isinstance(inst, AtomicRMW):
                    if inst.op != AtomicOp.WRITE or _result_is_used(fn, inst):
                        reads = True
                    if inst.op != AtomicOp.READ:
                        writes = True
                elif isinstance(inst, _WRITE_ACCESSES):
                    writes = True
        if not accessed:
            engine.emit(
                "NCL003",
                f"global '@{gv.name}' is declared but never accessed",
                gv.loc,
            )
        elif writes and not reads and not replicated:
            engine.emit(
                "NCL003",
                f"global '@{gv.name}' is written but never read",
                gv.loc,
            )


# -- NCL008 / NCL009 / NCL010: range-backed lints -------------------------------


def lint_overflow(
    fn: Function, engine: DiagnosticEngine, ranges: RangeAnalysis
) -> None:
    """NCL008: an arithmetic operation provably wraps at its width.

    Only *definite* wraps are reported (the mathematical result lies
    entirely outside the representable range on every execution);
    may-wrap results are the normal state of affairs for full-range
    inputs and would drown the signal.
    """
    for bb in fn.blocks:
        for inst in bb.instructions:
            kind = ranges.must_wrap.get(id(inst))
            if kind is None:
                continue
            assert isinstance(inst, BinOp) and isinstance(inst.type, IntType)
            a = ranges.range_of_value(inst.a)
            b = ranges.range_of_value(inst.b)
            engine.emit(
                "NCL008",
                f"'{kind.value}' of {a} and {b} always wraps past "
                f"{inst.type} in kernel '{fn.name}'",
                inst.loc,
            )


def lint_const_branches(
    fn: Function, engine: DiagnosticEngine, ranges: RangeAnalysis
) -> None:
    """NCL009: a branch condition is decidable from value ranges alone.

    Conditions built purely from constants are exempt: loop unrolling
    and compile-time feature selection legitimately produce those, and
    flagging them would fire on every ``if (i < 2)`` inside an unrolled
    loop body.  The lint targets conditions that are *accidentally*
    constant — ``if (x >= 0)`` on unsigned ``x``, range-contradicted
    comparisons after a guard, and the like.
    """
    for bb in fn.blocks:
        term = bb.terminator
        if not isinstance(term, Br):
            continue
        verdict = ranges.branch_verdicts.get(id(term))
        if verdict is None:
            continue
        cond = term.cond
        if isinstance(cond, Constant):
            continue
        if isinstance(cond, ICmp) and all(
            isinstance(op, Constant) for op in (cond.a, cond.b)
        ):
            continue
        engine.emit(
            "NCL009",
            f"branch condition in kernel '{fn.name}' is always "
            f"{'true' if verdict else 'false'}",
            term.loc or (cond.loc if isinstance(cond, Instruction) else None),
        )


def lint_div_by_zero(
    fn: Function, engine: DiagnosticEngine, ranges: RangeAnalysis
) -> None:
    """NCL010: a division/modulo divisor may be zero.

    The interpreter (and real targets) trap on a zero divisor, so any
    divisor whose range includes zero is a latent packet-drop.  Guarding
    the division (``if (d != 0)``) or forcing a bit (``d | 1``) clears
    the warning through branch refinement / known-bits.
    """
    for bb in fn.blocks:
        for inst in bb.instructions:
            divisor = ranges.zero_divisors.get(id(inst))
            if divisor is None:
                continue
            assert isinstance(inst, BinOp)
            op = "division" if inst.kind in (BinOpKind.UDIV, BinOpKind.SDIV) else "modulo"
            detail = (
                "is zero" if divisor.is_const else f"may be zero (range {divisor})"
            )
            engine.emit(
                "NCL010",
                f"{op} divisor {detail} in kernel '{fn.name}'",
                inst.loc,
            )


# -- entry point ---------------------------------------------------------------


def run_function_lints(fn: Function, engine: DiagnosticEngine) -> None:
    ranges = RangeAnalysis(fn).run()
    lint_uninitialized(fn, engine)
    lint_dead_stores(fn, engine)
    lint_truncation(fn, engine, ranges)
    lint_unreachable(fn, engine)
    lint_overflow(fn, engine, ranges)
    lint_const_branches(fn, engine, ranges)
    lint_div_by_zero(fn, engine, ranges)


def lint_dropped_statements(module: Module, engine: DiagnosticEngine) -> None:
    """NCL006 (frontend variant): statements the lowerer dropped because
    every path had already returned."""
    from repro.ir.instructions import SourceLoc

    for fn_name, line, col in module.dropped_statements:
        engine.emit(
            "NCL006",
            f"statement in kernel '{fn_name}' is unreachable",
            SourceLoc(line, col) if line else None,
        )


def run_module_lints(module: Module, engine: DiagnosticEngine) -> None:
    for fn in module.functions.values():
        if fn.blocks:
            run_function_lints(fn, engine)
    lint_shared_state(module, engine)
    lint_dead_globals(module, engine)
    lint_dropped_statements(module, engine)
