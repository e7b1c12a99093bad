"""Value-range abstract interpretation over the NetCL IR.

A path-insensitive forward analysis on the product domain of

* **unsigned intervals** ``[lo, hi]`` over the value's bit pattern
  (``0 <= lo <= hi <= 2^w - 1``), with *wrap-around widths*: when
  interval arithmetic leaves the representable range the result goes to
  ``top`` rather than tracking wrapped sub-ranges, and
* **possibly-set bits**: a mask that is a superset of every bit the
  value can carry (the known-bits complement), which keeps masking
  idioms (``x & 0xff``) precise where intervals cannot.

The two components refine each other on construction: the interval's
``hi`` can never exceed the possibly-set mask read as an integer, and
the mask never contains bits above ``hi``'s highest.

:class:`RangeAnalysis` runs the domain over a function using the
generic worklist driver of :mod:`repro.analysis.dataflow`, with
**branch-condition refinement** implemented as an edge transfer: the
fact flowing along the taken (not-taken) edge of a ``Br`` is sharpened
by the branch's ``ICmp`` condition.  After the fixed point, a single
collect sweep records, per instruction, the result range plus the side
facts the range-backed lints consume: definite arithmetic wraps
(NCL008), decidable branch conditions (NCL009), and possibly-zero
divisors (NCL010).

Everything here is read-only over the IR — the fuzz suite asserts that
linting (which runs this analysis) leaves modules bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.analysis.dataflow import DataflowAnalysis, Direction
from repro.ir.blocks import BasicBlock
from repro.ir.instructions import (
    Alloca,
    AtomicRMW,
    BinOp,
    BinOpKind,
    Br,
    Cast,
    CastKind,
    Constant,
    ICmp,
    ICmpPred,
    Instruction,
    Intrinsic,
    Load,
    LoadGlobal,
    LoadMsg,
    Lookup,
    LookupVal,
    Phi,
    Select,
    Store,
    StoreMsg,
    Undef,
    Value,
)
from repro.ir.module import Function
from repro.ir.types import IntType


def _mask_up_to(v: int) -> int:
    """Smallest all-ones mask covering ``v`` (0 -> 0)."""
    return (1 << v.bit_length()) - 1


@dataclass(frozen=True)
class Interval:
    """One abstract value: width, unsigned bounds, possibly-set bits."""

    width: int
    lo: int
    hi: int
    #: superset of the bits the value may carry; ``value & ~bits == 0``.
    bits: int

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def make(width: int, lo: int, hi: int, bits: Optional[int] = None) -> "Interval":
        """Normalized constructor: clamps to the width and cross-refines
        the interval against the possibly-set mask."""
        mask = (1 << width) - 1
        lo = max(0, lo)
        hi = min(hi, mask)
        if bits is None:
            bits = _mask_up_to(hi)
        bits &= mask
        hi = min(hi, bits)
        bits &= _mask_up_to(hi)
        if lo > hi:  # contradictory refinement: collapse rather than lie
            lo = hi
        return Interval(width, lo, hi, bits)

    @staticmethod
    def top(width: int) -> "Interval":
        mask = (1 << width) - 1
        return Interval(width, 0, mask, mask)

    @staticmethod
    def const(ty: IntType, value: int) -> "Interval":
        u = ty.to_unsigned(value)
        return Interval(ty.width, u, u, u)

    # -- queries ---------------------------------------------------------------
    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi and (v & ~self.bits) == 0

    def signed_bounds(self) -> Tuple[int, int]:
        """Hull of the signed reinterpretation; the full signed range when
        the unsigned interval straddles the sign boundary."""
        half = 1 << (self.width - 1)
        if self.width == 1:
            return (self.lo, self.hi)  # 1-bit: treat as unsigned 0/1
        if self.hi < half:
            return (self.lo, self.hi)
        if self.lo >= half:
            return (self.lo - 2 * half, self.hi - 2 * half)
        return (-half, half - 1)

    def fits(self, width: int) -> bool:
        """The value provably fits in ``width`` bits unchanged."""
        return self.hi <= (1 << width) - 1

    # -- lattice ---------------------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        assert self.width == other.width
        return Interval.make(
            self.width,
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.bits | other.bits,
        )

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Intersection; None when provably empty (dead edge)."""
        assert self.width == other.width
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval.make(self.width, lo, hi, self.bits & other.bits)

    def __str__(self) -> str:
        if self.is_const:
            return f"u{self.width}[{self.lo}]"
        return f"u{self.width}[{self.lo},{self.hi}]"


#: raw-arithmetic result classification for wrap detection
_EXACT, _MAY_WRAP, _MUST_WRAP = 0, 1, 2


def _classify(raw_lo: int, raw_hi: int, mask: int) -> int:
    if 0 <= raw_lo and raw_hi <= mask:
        return _EXACT
    if raw_hi < 0 or raw_lo > mask:
        return _MUST_WRAP
    return _MAY_WRAP


def binop_range(
    kind: BinOpKind, a: Interval, b: Interval, ty: IntType
) -> Tuple[Interval, int]:
    """Abstract transfer of one BinOp: (result interval, wrap class).

    The wrap class reports whether the *modular* result differed from
    the mathematical one: ``_MUST_WRAP`` means every concrete execution
    wraps (the NCL008 trigger), ``_MAY_WRAP`` that some may.
    Division/modulo report ``_EXACT``; possibly-zero divisors are the
    caller's concern (NCL010).
    """
    w, mask = ty.width, ty.mask
    top = Interval.top(w)

    if kind in (BinOpKind.ADD, BinOpKind.SUB, BinOpKind.MUL):
        if kind == BinOpKind.ADD:
            raw_lo, raw_hi = a.lo + b.lo, a.hi + b.hi
        elif kind == BinOpKind.SUB:
            raw_lo, raw_hi = a.lo - b.hi, a.hi - b.lo
        else:
            raw_lo, raw_hi = a.lo * b.lo, a.hi * b.hi
        cls = _classify(raw_lo, raw_hi, mask)
        if cls == _EXACT:
            return Interval.make(w, raw_lo, raw_hi), _EXACT
        return top, cls

    if kind == BinOpKind.AND:
        return Interval.make(w, 0, min(a.hi, b.hi), a.bits & b.bits), _EXACT
    if kind == BinOpKind.OR:
        bits = a.bits | b.bits
        return Interval.make(w, max(a.lo, b.lo), bits, bits), _EXACT
    if kind == BinOpKind.XOR:
        bits = a.bits | b.bits
        return Interval.make(w, 0, bits, bits), _EXACT

    if kind == BinOpKind.SHL:
        # Interpreter semantics: b < width shifts, b >= width yields 0.
        if b.is_const:
            k = b.lo
            if k >= w:
                return Interval.const(ty, 0), _EXACT
            raw_lo, raw_hi = a.lo << k, a.hi << k
            cls = _classify(raw_lo, raw_hi, mask)
            if cls == _EXACT:
                return Interval.make(w, raw_lo, raw_hi, (a.bits << k) & mask), _EXACT
            return top, cls
        return top, _MAY_WRAP if a.hi else _EXACT
    if kind == BinOpKind.LSHR:
        if b.is_const:
            k = b.lo
            if k >= w:
                return Interval.const(ty, 0), _EXACT
            return Interval.make(w, a.lo >> k, a.hi >> k, a.bits >> k), _EXACT
        # Unknown shift amount: set bits migrate to any lower position, so
        # only the hull [0, hi] survives (make() re-derives a sound mask).
        return Interval.make(w, 0, a.hi), _EXACT
    if kind == BinOpKind.ASHR:
        slo, shi = a.signed_bounds()
        if slo >= 0:  # behaves like lshr
            if b.is_const:
                k = min(b.lo, w - 1)
                return Interval.make(w, a.lo >> k, a.hi >> k, a.bits >> k), _EXACT
            return Interval.make(w, 0, a.hi), _EXACT
        return top, _EXACT

    if kind == BinOpKind.UDIV:
        if b.lo >= 1:
            return Interval.make(w, a.lo // b.hi, a.hi // b.lo), _EXACT
        return top, _EXACT
    if kind == BinOpKind.UREM:
        if b.lo >= 1:
            return Interval.make(w, 0, min(a.hi, b.hi - 1)), _EXACT
        return top, _EXACT
    if kind in (BinOpKind.SDIV, BinOpKind.SREM):
        sa_lo, sa_hi = a.signed_bounds()
        sb_lo, _ = b.signed_bounds()
        if sa_lo >= 0 and sb_lo >= 1:
            # entirely non-negative: same as the unsigned forms
            if kind == BinOpKind.SDIV:
                return Interval.make(w, a.lo // b.hi, a.hi // b.lo), _EXACT
            return Interval.make(w, 0, min(a.hi, b.hi - 1)), _EXACT
        return top, _EXACT

    if kind == BinOpKind.SADDU:
        return (
            Interval.make(w, min(a.lo + b.lo, mask), min(a.hi + b.hi, mask)),
            _EXACT,
        )
    if kind == BinOpKind.SSUBU:
        return (
            Interval.make(w, max(a.lo - b.hi, 0), max(a.hi - b.lo, 0)),
            _EXACT,
        )

    return top, _MAY_WRAP  # pragma: no cover - kinds exhaustive


def icmp_range(pred: ICmpPred, a: Interval, b: Interval) -> Interval:
    """Abstract compare: [1,1] / [0,0] when decidable, else [0,1]."""
    verdict = _decide_icmp(pred, a, b)
    if verdict is None:
        return Interval.make(1, 0, 1)
    return Interval.make(1, int(verdict), int(verdict))


def _decide_icmp(pred: ICmpPred, a: Interval, b: Interval) -> Optional[bool]:
    if pred in (ICmpPred.EQ, ICmpPred.NE):
        if a.is_const and b.is_const:
            eq = a.lo == b.lo
            return eq if pred == ICmpPred.EQ else not eq
        if a.meet(b) is None:
            return pred == ICmpPred.NE
        return None
    signed = pred in (ICmpPred.SLT, ICmpPred.SLE, ICmpPred.SGT, ICmpPred.SGE)
    if signed:
        a_lo, a_hi = a.signed_bounds()
        b_lo, b_hi = b.signed_bounds()
    else:
        a_lo, a_hi, b_lo, b_hi = a.lo, a.hi, b.lo, b.hi
    if pred in (ICmpPred.ULT, ICmpPred.SLT):
        if a_hi < b_lo:
            return True
        if a_lo >= b_hi:
            return False
    elif pred in (ICmpPred.ULE, ICmpPred.SLE):
        if a_hi <= b_lo:
            return True
        if a_lo > b_hi:
            return False
    elif pred in (ICmpPred.UGT, ICmpPred.SGT):
        if a_lo > b_hi:
            return True
        if a_hi <= b_lo:
            return False
    elif pred in (ICmpPred.UGE, ICmpPred.SGE):
        if a_lo >= b_hi:
            return True
        if a_hi < b_lo:
            return False
    return None


def cast_range(kind: CastKind, v: Interval, to: IntType) -> Interval:
    if kind == CastKind.ZEXT:
        return Interval.make(to.width, v.lo, v.hi, v.bits)
    if kind == CastKind.TRUNC:
        if v.fits(to.width):
            return Interval.make(to.width, v.lo, v.hi, v.bits)
        return Interval.top(to.width)
    if kind == CastKind.SEXT:
        slo, shi = v.signed_bounds()
        if slo >= 0:
            return Interval.make(to.width, v.lo, v.hi, v.bits)
        if shi < 0:
            full = 1 << to.width
            return Interval.make(to.width, full + slo, full + shi)
        return Interval.top(to.width)
    # bitcast: same width, same bit pattern
    return Interval.make(to.width, v.lo, v.hi, v.bits)


def _intrinsic_range(inst: Intrinsic, args: list) -> Interval:
    ty = inst.type
    assert isinstance(ty, IntType)
    name = inst.callee
    if name in ("ncl.clz", "ncl.ctz", "ncl.popcount"):
        in_w = inst.args[0].type.width if inst.args else 64
        return Interval.make(ty.width, 0, in_w)
    if name == "ncl.bit_chk":
        return Interval.make(ty.width, 0, 1)
    if name == "ncl.min" and len(args) == 2:
        return Interval.make(ty.width, min(args[0].lo, args[1].lo), min(args[0].hi, args[1].hi))
    if name == "ncl.max" and len(args) == 2:
        return Interval.make(ty.width, max(args[0].lo, args[1].lo), max(args[0].hi, args[1].hi))
    if name == "ncl.sadd" and len(args) == 2:
        return Interval.make(
            ty.width, min(args[0].lo + args[1].lo, ty.mask), min(args[0].hi + args[1].hi, ty.mask)
        )
    if name == "ncl.ssub" and len(args) == 2:
        return Interval.make(
            ty.width, max(args[0].lo - args[1].hi, 0), max(args[0].hi - args[1].lo, 0)
        )
    if name == "ncl.csum16r":
        return Interval.make(ty.width, 0, 0xFFFF)
    # hashes, rand, device ids, bswap: anything
    return Interval.top(ty.width)


# -- the environment lattice -----------------------------------------------------

#: Sentinel for "block not reached yet" (strict bottom: join identity).
_BOTTOM = None

Key = Hashable


class _Env:
    """Immutable-by-convention mapping of value keys to intervals.

    Keys are ``id(instruction)`` for SSA temporaries, ``("slot", id)``
    for scalar local slots, and ``("msg", field)`` for scalar message
    fields.  A missing key means *unknown* (top of its type), so
    dropping entries is always sound.
    """

    __slots__ = ("d",)

    def __init__(self, d: Optional[Dict[Key, Interval]] = None) -> None:
        self.d = d or {}

    def get(self, key: Key) -> Optional[Interval]:
        return self.d.get(key)

    def set(self, key: Key, rng: Interval) -> "_Env":
        nd = dict(self.d)
        nd[key] = rng
        return _Env(nd)

    def set_many(self, items: Dict[Key, Interval]) -> "_Env":
        nd = dict(self.d)
        nd.update(items)
        return _Env(nd)

    def drop(self, key: Key) -> "_Env":
        if key not in self.d:
            return self
        nd = dict(self.d)
        del nd[key]
        return _Env(nd)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Env) and self.d == other.d

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)


class RangeAnalysis(DataflowAnalysis):
    """Forward value-range analysis with branch refinement.

    After :meth:`run`, per-instruction results live in:

    * ``result_range[id(inst)]`` — interval of each value-producing
      instruction *at its definition* (refinements included);
    * ``must_wrap[id(inst)]`` — BinOps whose modular result provably
      differs from the mathematical result on every execution;
    * ``zero_divisors[id(inst)]`` — div/rem BinOps whose divisor range
      includes zero (with the divisor interval, for the message);
    * ``branch_verdicts[id(br)]`` — ``True``/``False`` for ``Br``
      conditions the domain decides.
    """

    direction = Direction.FORWARD
    #: block updates tolerated before widening kicks in (cyclic CFGs only;
    #: post-frontend kernels are DAGs and converge in one sweep).
    WIDEN_AFTER = 3

    def __init__(self, fn: Function) -> None:
        super().__init__(fn)
        self.result_range: Dict[int, Interval] = {}
        self.must_wrap: Dict[int, BinOpKind] = {}
        self.zero_divisors: Dict[int, Interval] = {}
        self.branch_verdicts: Dict[int, bool] = {}
        self._collecting = False

    # -- lattice hooks ---------------------------------------------------------
    def initial(self, fn: Function):
        return _BOTTOM

    def boundary(self, fn: Function):
        return _Env()

    def join(self, a, b):
        if a is _BOTTOM:
            return b
        if b is _BOTTOM:
            return a
        out: Dict[Key, Interval] = {}
        for key, ra in a.d.items():
            rb = b.d.get(key)
            # A key missing on one path means unknown there: drop it.
            if rb is not None and ra.width == rb.width:
                out[key] = ra.join(rb)
        return _Env(out)

    def widen(self, old, new, updates: int):
        if updates < self.WIDEN_AFTER or old is _BOTTOM or new is _BOTTOM:
            return new
        out: Dict[Key, Interval] = {}
        for key, rng in new.d.items():
            prev = old.d.get(key)
            if prev is not None and prev == rng:
                out[key] = rng  # stable: keep
            # grew or appeared: widen away entirely (missing = top)
        return _Env(out)

    # -- value lookup ------------------------------------------------------------
    def _range_of(self, v: Value, env: _Env) -> Interval:
        ty = v.type
        width = ty.width if isinstance(ty, IntType) else 64
        if isinstance(v, Constant):
            assert isinstance(ty, IntType)
            return Interval.const(ty, v.value)
        if isinstance(v, Undef):
            return Interval.const(IntType(width), 0)  # interp: undef reads as 0
        rng = env.get(id(v))
        if rng is not None and rng.width == width:
            return rng
        return Interval.top(width)

    @staticmethod
    def _alias_key(v: Value) -> Optional[Key]:
        """Storage location ``v`` is a direct read of, if any — lets a
        branch refinement on one Load sharpen later reads of the same
        slot/field."""
        if isinstance(v, Load) and v.slot.is_scalar and not v.indices:
            return ("slot", id(v.slot))
        if isinstance(v, LoadMsg) and v.index is None:
            return ("msg", v.field)
        return None

    # -- branch refinement --------------------------------------------------------
    def transfer_edge(self, pred: BasicBlock, succ: BasicBlock, fact):
        if fact is _BOTTOM:
            return fact
        term = pred.terminator
        if not isinstance(term, Br) or term.then_ is term.else_:
            return fact
        taken = succ is term.then_
        env: _Env = fact
        cond = term.cond

        updates: Dict[Key, Interval] = {}

        def refine(value: Value, rng: Interval) -> None:
            cur = self._range_of(value, env)
            if cur.width != rng.width:
                return
            met = cur.meet(rng)
            if met is None or met == cur:
                return
            if isinstance(value, Instruction):
                updates[id(value)] = met
            alias = self._alias_key(value)
            if alias is not None:
                # Only sharpen the backing storage if nothing was stored
                # to it since the load (conservative: the alias range must
                # still agree with the loaded value's).
                stored = env.get(alias)
                if stored is None or stored.meet(rng) is not None:
                    updates[alias] = met if stored is None else (stored.meet(rng) or met)

        # The condition itself: nonzero on the taken edge, zero otherwise.
        cond_rng = self._range_of(cond, env)
        if taken:
            refine(cond, Interval.make(cond_rng.width, 1, cond_rng.mask))
        else:
            refine(cond, Interval.const(IntType(cond_rng.width), 0))

        if isinstance(cond, ICmp):
            pred_kind = cond.pred if taken else cond.pred.negated
            self._refine_icmp(cond, pred_kind, env, refine)

        if not updates:
            return env
        return env.set_many(updates)

    def _refine_icmp(self, cond: ICmp, pred: ICmpPred, env: _Env, refine) -> None:
        a_rng = self._range_of(cond.a, env)
        b_rng = self._range_of(cond.b, env)
        if a_rng.width != b_rng.width:
            return
        w = a_rng.width
        mask = (1 << w) - 1

        signed = pred in (ICmpPred.SLT, ICmpPred.SLE, ICmpPred.SGT, ICmpPred.SGE)
        if signed:
            # Only refine when neither side straddles the sign boundary —
            # then signed order agrees with unsigned order within each side.
            half = 1 << (w - 1)
            same_side = (
                (a_rng.hi < half and b_rng.hi < half)
                or (a_rng.lo >= half and b_rng.lo >= half)
            )
            if not same_side:
                return
            pred = {
                ICmpPred.SLT: ICmpPred.ULT,
                ICmpPred.SLE: ICmpPred.ULE,
                ICmpPred.SGT: ICmpPred.UGT,
                ICmpPred.SGE: ICmpPred.UGE,
            }[pred]

        if pred == ICmpPred.EQ:
            met = a_rng.meet(b_rng)
            if met is not None:
                refine(cond.a, met)
                refine(cond.b, met)
            return
        if pred == ICmpPred.NE:
            for this, this_rng, other_rng in (
                (cond.a, a_rng, b_rng),
                (cond.b, b_rng, a_rng),
            ):
                if other_rng.is_const:
                    c = other_rng.lo
                    if this_rng.lo == c:
                        refine(this, Interval.make(w, c + 1, mask))
                    elif this_rng.hi == c:
                        refine(this, Interval.make(w, 0, c - 1))
            return
        if pred == ICmpPred.ULT:
            if b_rng.hi >= 1:
                refine(cond.a, Interval.make(w, 0, b_rng.hi - 1))
            refine(cond.b, Interval.make(w, min(a_rng.lo + 1, mask), mask))
        elif pred == ICmpPred.ULE:
            refine(cond.a, Interval.make(w, 0, b_rng.hi))
            refine(cond.b, Interval.make(w, a_rng.lo, mask))
        elif pred == ICmpPred.UGT:
            refine(cond.a, Interval.make(w, min(b_rng.lo + 1, mask), mask))
            if a_rng.hi >= 1:
                refine(cond.b, Interval.make(w, 0, a_rng.hi - 1))
        elif pred == ICmpPred.UGE:
            refine(cond.a, Interval.make(w, b_rng.lo, mask))
            refine(cond.b, Interval.make(w, 0, a_rng.hi))

    # -- instruction transfer --------------------------------------------------------
    def transfer_block(self, bb: BasicBlock, fact):
        if fact is _BOTTOM:
            fact = _Env()
        return super().transfer_block(bb, fact)

    def transfer_inst(self, inst: Instruction, fact):
        if fact is _BOTTOM or isinstance(fact, frozenset):
            fact = _Env()
        env: _Env = fact

        if isinstance(inst, BinOp):
            assert isinstance(inst.type, IntType)
            a = self._range_of(inst.a, env)
            b = self._range_of(inst.b, env)
            rng, wrap = binop_range(inst.kind, a, b, inst.type)
            if self._collecting:
                self.result_range[id(inst)] = rng
                if wrap == _MUST_WRAP:
                    self.must_wrap[id(inst)] = inst.kind
                if (
                    inst.kind
                    in (BinOpKind.UDIV, BinOpKind.SDIV, BinOpKind.UREM, BinOpKind.SREM)
                    and b.contains(0)
                ):
                    self.zero_divisors[id(inst)] = b
            return env.set(id(inst), rng)

        if isinstance(inst, ICmp):
            rng = icmp_range(
                inst.pred, self._range_of(inst.a, env), self._range_of(inst.b, env)
            )
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Select):
            c = self._range_of(inst.cond, env)
            t = self._range_of(inst.t, env)
            f = self._range_of(inst.f, env)
            if c.lo >= 1:
                rng = t
            elif c.hi == 0:
                rng = f
            else:
                rng = t.join(f) if t.width == f.width else Interval.top(t.width)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Cast):
            assert isinstance(inst.type, IntType)
            rng = cast_range(inst.kind, self._range_of(inst.value, env), inst.type)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Phi):
            parts = [self._range_of(v, env) for v, _ in inst.incoming]
            assert isinstance(inst.type, IntType)
            rng = Interval.top(inst.type.width)
            parts = [p for p in parts if p.width == rng.width]
            if parts:
                acc = parts[0]
                for p in parts[1:]:
                    acc = acc.join(p)
                rng = acc
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Alloca):
            # Register memory and locals are zero-initialized in the device
            # model; the slot key tracks the stored value from here on.
            if inst.is_scalar:
                return env.set(("slot", id(inst)), Interval.const(inst.elem, 0))
            return env

        if isinstance(inst, Load):
            if inst.slot.is_scalar and not inst.indices:
                rng = env.get(("slot", id(inst.slot))) or Interval.top(inst.slot.elem.width)
            else:
                rng = Interval.top(inst.slot.elem.width)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Store):
            if inst.slot.is_scalar and not inst.indices:
                val = self._range_of(inst.value, env)
                # stores mask to the slot's element width
                rng = (
                    Interval.make(inst.slot.elem.width, val.lo, val.hi, val.bits)
                    if val.fits(inst.slot.elem.width)
                    else Interval.top(inst.slot.elem.width)
                )
                return env.set(("slot", id(inst.slot)), rng)
            return env

        if isinstance(inst, LoadMsg):
            assert isinstance(inst.type, IntType)
            if inst.index is None:
                rng = env.get(("msg", inst.field)) or Interval.top(inst.type.width)
            else:
                rng = Interval.top(inst.type.width)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, StoreMsg):
            key = ("msg", inst.field)
            if inst.index is None and isinstance(inst.value.type, IntType):
                val = self._range_of(inst.value, env)
                return env.set(key, val)
            return env.drop(key)

        if isinstance(inst, (LoadGlobal, AtomicRMW)):
            # Global register memory is shared mutable state: other kernel
            # invocations may have written anything representable.
            assert isinstance(inst.type, IntType)
            rng = Interval.top(inst.type.width)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Lookup):
            rng = Interval.make(1, 0, 1)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, LookupVal):
            assert isinstance(inst.type, IntType)
            default = self._range_of(inst.default, env)
            values = [e.value for e in inst.gv.entries if e.value is not None]
            if values and default.width == inst.type.width:
                mask = inst.type.mask
                rng = Interval.make(
                    inst.type.width,
                    min(min(v & mask for v in values), default.lo),
                    max(max(v & mask for v in values), default.hi),
                )
            else:
                rng = Interval.top(inst.type.width)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Intrinsic):
            args = [self._range_of(a, env) for a in inst.args]
            rng = _intrinsic_range(inst, args)
            if self._collecting:
                self.result_range[id(inst)] = rng
            return env.set(id(inst), rng)

        if isinstance(inst, Br) and self._collecting:
            rng = self._range_of(inst.cond, env)
            if rng.lo >= 1:
                self.branch_verdicts[id(inst)] = True
            elif rng.hi == 0:
                self.branch_verdicts[id(inst)] = False
            return env

        return env

    # -- driver ------------------------------------------------------------------
    def run(self) -> "RangeAnalysis":
        super().run()
        # Collect sweep: per-instruction facts from the (refined) fixed
        # point, recorded exactly once so transient iterates never leak
        # into the lint results.
        self._collecting = True
        try:
            for bb in self.fn.blocks:
                fact = self.block_in.get(id(bb), _BOTTOM)
                if fact is _BOTTOM:
                    fact = _Env()
                for inst in bb.instructions:
                    fact = self.transfer_inst(inst, fact)
        finally:
            self._collecting = False
        return self

    def range_of_value(self, v: Value) -> Interval:
        """Best-known interval for an operand after the collect sweep."""
        ty = v.type
        width = ty.width if isinstance(ty, IntType) else 64
        if isinstance(v, Constant):
            assert isinstance(ty, IntType)
            return Interval.const(ty, v.value)
        rng = self.result_range.get(id(v))
        if rng is not None and rng.width == width:
            return rng
        return Interval.top(width)
