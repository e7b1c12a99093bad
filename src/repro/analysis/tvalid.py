"""Translation validation: prove each middle-end pass behavior-preserving.

The NetCL pipeline has no formal semantics to diff symbolically, but it
has something almost as good: :class:`repro.ir.interp.IRInterpreter` is
the executable reference semantics, and kernels are finite, loop-free
message processors.  So the harness validates *behavior*, not syntax:

1. Before the pipeline touches a kernel, capture its behavior — run the
   interpreter over a deterministic set of input vectors (boundary
   values mined from the value-range abstract domain, plus seeded
   random vectors) against one shared :class:`GlobalState`, recording
   per vector the forwarding outcome, every message field, and a full
   memory snapshot.
2. After every pass, capture again and compare to the pre-pipeline
   reference.  The first differing vector is a concrete counterexample,
   and the pass that produced it is named in the raised
   :class:`TranslationValidationError`.

A vector the interpreter traps on is a compared trap: its run leaves no
effect, and the next vector starts from the memory as it was before it,
on both sides.  Trap semantics are *refinement*, not equality: the
optimizer is allowed to delete a division whose result is unused, so a
vector that traps in the reference constrains nothing on that vector
(the optimized kernel may trap there or not).  A trap on a vector the
reference ran is a bug and is reported.  A check counts the vectors the
reference ran (``vectors_compared``) apart from those it trapped on
(``vectors_trapped``).

Kernels containing ``ncl.rand`` are skipped: if-conversion legitimately
changes how many draws execute, so their behavior is not a function of
the input vector alone.

3. After the last pass, one more step named ``pyexec`` runs the *final*
   IR on :class:`repro.ir.compiled.KernelEngine` — what devices execute —
   and on the interpreter over the same vectors.  Both run the same IR,
   so here nothing may differ: outcomes, fields, memory snapshots and the
   trapping vectors must be equal, with no refinement slack (and
   ``ncl.rand`` kernels are included: both draw from equally seeded
   generators).

4. After code generation, ``p4exec`` feeds the same vectors, as NetCL
   packets from zeroed memory, to the interpreter on the final IR and to
   :class:`repro.p4.compiled.P4Engine` on the generated P4 program: exit
   action and target, argument fields and every Register (read through
   the global it holds, ``.partN`` / ``.dupN`` included) must agree on
   every vector the interpreter runs, and there the P4 program must not
   fail; a vector the interpreter traps on is not sent to the P4 program.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.analysis.absint import RangeAnalysis
from repro.ir.compiled import KernelEngine
from repro.ir.instructions import Cast, Constant, GlobalAccess, ICmp, Intrinsic, Load, LoadMsg, Store
from repro.ir.interp import GlobalState, InterpError, IRInterpreter, KernelMessage
from repro.ir.module import Function, Module
from repro.ir.types import IntType

#: vectors beyond the mined boundary set
RANDOM_VECTORS = 20
#: hard cap so pathological functions don't explode the suite
MAX_VECTORS = 56


class TranslationValidationError(Exception):
    """A pass changed observable kernel behavior.

    Carries everything needed to reproduce: the offending pass, the
    kernel, the concrete counterexample input vector, and a description
    of the first observed difference.
    """

    def __init__(
        self,
        pass_name: str,
        function: str,
        vector_index: int,
        vector: Dict[str, object],
        detail: str,
    ) -> None:
        self.pass_name = pass_name
        self.function = function
        self.vector_index = vector_index
        self.vector = vector
        self.detail = detail
        super().__init__(
            f"pass '{pass_name}' miscompiles kernel '{function}': "
            f"{detail} (counterexample vector #{vector_index}: {vector})"
        )

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "function": self.function,
            "vector_index": self.vector_index,
            "vector": self.vector,
            "detail": self.detail,
        }


# -- input vector generation -----------------------------------------------------


def _mined_values(fn: Function) -> List[int]:
    """Interesting concrete values: abstract-domain boundaries of every
    computed range, comparison constants, and their off-by-ones.

    These target exactly the points where branch behavior flips, which
    random vectors alone would miss with high probability on 32-bit
    fields.
    """
    ra = RangeAnalysis(fn).run()
    vals = {0, 1}
    for rng in ra.result_range.values():
        vals.update((rng.lo, rng.hi, rng.lo - 1, rng.hi + 1, rng.bits))
    for inst in fn.instructions():
        if isinstance(inst, ICmp):
            for op in (inst.a, inst.b):
                if isinstance(op, Constant) and isinstance(op.type, IntType):
                    u = op.type.to_unsigned(op.value)
                    vals.update((u, u - 1, u + 1))
    return sorted(v for v in vals if v >= 0)


def _index_bounds(fn: Function) -> Dict[str, int]:
    """Scalar message field -> the smallest dimension of global memory
    it indexes as it arrives (through casts and its local copy)."""
    copies = {
        id(i.slot): i.value
        for i in fn.instructions()
        if isinstance(i, Store) and isinstance(i.value, LoadMsg)
    }

    def field_of(value) -> Optional[str]:
        while isinstance(value, (Cast, Load)):
            value = value.value if isinstance(value, Cast) else copies.get(id(value.slot))
        return value.field if isinstance(value, LoadMsg) and value.index is None else None

    bounds: Dict[str, int] = {}
    for inst in fn.instructions():
        if isinstance(inst, GlobalAccess):
            # a partition drops outer indices, so pair them from the inside
            for index, dim in zip(reversed(inst.indices), reversed(inst.gv.shape.dims)):
                name = field_of(index)
                if name is not None:
                    bounds[name] = min(bounds.get(name, dim), dim)
    return bounds


def generate_vectors(fn: Function) -> List[Dict[str, object]]:
    """Deterministic input vectors for ``fn``: one per mined boundary
    value (each field cycled through nearby boundaries) plus
    :data:`RANDOM_VECTORS` seeded-random vectors.  A random vector draws
    a field that indexes global memory within that memory, so it runs
    where a boundary vector may trap on the index.  The seed derives
    from the kernel *name* (not ``hash()``, which is salted per process)
    so reruns reproduce."""
    import random

    rng = random.Random(zlib.crc32(fn.name.encode()))
    mined = _mined_values(fn)
    bounds = _index_bounds(fn)

    scalar_args = [a for a in fn.args if not a.is_array]
    array_args = [a for a in fn.args if a.is_array]

    def clip(value: int, ty: IntType) -> int:
        return value & ty.mask

    vectors: List[Dict[str, object]] = []

    # Boundary sweep: vector i assigns field j the (i+j)-th mined value,
    # staggering so co-varying fields still hit asymmetric combinations.
    n_boundary = min(len(mined), MAX_VECTORS - RANDOM_VECTORS)
    for i in range(n_boundary):
        vec: Dict[str, object] = {}
        for j, arg in enumerate(scalar_args):
            assert isinstance(arg.type, IntType)
            vec[arg.name] = clip(mined[(i + j) % len(mined)], arg.type)
        for arg in array_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = [
                clip(mined[(i + k) % len(mined)], arg.type) for k in range(arg.spec)
            ]
        vectors.append(vec)

    for _ in range(RANDOM_VECTORS):
        vec = {}
        for arg in scalar_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = rng.randrange(0, min(arg.type.mask + 1, bounds.get(arg.name, 1 << 64)))
        for arg in array_args:
            assert isinstance(arg.type, IntType)
            vec[arg.name] = [
                rng.randrange(0, arg.type.mask + 1) for _ in range(arg.spec)
            ]
        vectors.append(vec)
    return vectors


# -- behavior capture --------------------------------------------------------------


@dataclass
class BehaviorCapture:
    """Observable behavior of one kernel over a vector sequence.

    ``runs[i]`` is ``(outcome kind, outcome target, message fields,
    memory snapshot)`` after processing vector ``i``, or None when the
    interpreter raised on it; ``interpreted`` counts the runs a
    :class:`KernelEngine` executor handed back to the interpreter (0 =
    every run was generated code).
    """

    runs: List[Optional[Tuple[str, Optional[int], Dict[str, object], dict]]] = field(
        default_factory=list
    )
    interpreted: int = 0

    @property
    def traps(self) -> List[int]:
        """The vectors the kernel trapped on."""
        return [i for i, run in enumerate(self.runs) if run is None]


def _uses_rand(fn: Function) -> bool:
    return any(
        isinstance(i, Intrinsic) and i.callee == "ncl.rand" for i in fn.instructions()
    )


def _copied(fields: Dict[str, object]) -> Dict[str, object]:
    return {k: (list(v) if isinstance(v, list) else v) for k, v in fields.items()}


def capture_behavior(
    module: Module,
    fn: Function,
    vectors: List[Dict[str, object]],
    undo: Collection[int],
    *,
    device_id: int = 1,
    executor: type[IRInterpreter] = IRInterpreter,
) -> BehaviorCapture:
    """Run ``fn`` over ``vectors`` against one fresh shared state, on the
    reference interpreter or on the ``executor`` under test.  A vector
    that traps, or whose index is in ``undo`` (the vectors the reference
    trapped on), leaves memory as it was before it."""
    state = GlobalState()
    interp = executor(module, state, device_id=device_id)
    cap = BehaviorCapture()
    before = state.snapshot()
    for i, vec in enumerate(vectors):
        msg = KernelMessage(_copied(vec))
        try:
            outcome = interp.run_kernel(fn, msg)
        except InterpError:
            outcome = None
        if outcome is None or i in undo:
            state.restore(before)
        else:
            before = state.snapshot()
        cap.runs.append(
            None if outcome is None
            else (outcome.kind.value, outcome.target, _copied(msg.fields), before)
        )
    if isinstance(interp, KernelEngine):
        cap.interpreted = interp.interpreted
    return cap


def _diff_captures(
    ref: BehaviorCapture, cur: BehaviorCapture, *, exact_traps: bool = False
) -> Optional[Tuple[int, str]]:
    """First observable divergence, or None when ``cur`` refines ``ref``
    (with ``exact_traps``: when it traps on exactly the same vectors)."""
    for i, (r, c) in enumerate(zip(ref.runs, cur.runs)):
        if r is None:
            # Trap refinement: the optimized kernel may drop a reference
            # trap (DCE of an unused trapping op) but not add one.
            if exact_traps and c is not None:
                return i, f"trap diverged: reference traps at vector {i}, optimized does not"
            continue
        if c is None:
            return i, "optimized kernel traps where the reference did not"
        if r[0] != c[0] or r[1] != c[1]:
            return i, (
                f"forwarding action diverged: reference "
                f"{r[0]}({r[1]}) vs optimized {c[0]}({c[1]})"
            )
        if r[2] != c[2]:
            fields = sorted(k for k in r[2] if r[2][k] != c[2].get(k))
            return i, (
                f"message fields diverged: {', '.join(fields)} "
                f"(reference {[r[2][k] for k in fields]} vs "
                f"optimized {[c[2].get(k) for k in fields]})"
            )
        if r[3] != c[3]:
            return i, "global memory diverged"
    return None


# -- the validator ------------------------------------------------------------------


class PassValidator:
    """Differential-execution oracle the :class:`PassManager` consults.

    One validator spans a pipeline run.  :meth:`prepare` fixes the input
    vectors and reference behavior from the *pre-pipeline* IR; every
    :meth:`check` re-executes the (possibly rewritten) kernel and
    compares against that reference, so blame lands on the first pass
    whose output diverges.  Equivalence is transitive: comparing every
    pass against the original is both cheaper and sharper than
    neighbor-to-neighbor comparison.
    """

    def __init__(self, module: Module, *, device_id: Optional[int] = None) -> None:
        self.module = module
        self.device_id = device_id if device_id is not None else 1
        self._vectors: Dict[str, List[Dict[str, object]]] = {}
        self._reference: Dict[str, BehaviorCapture] = {}
        self._skipped: Dict[str, str] = {}
        #: kernels whose ``pyexec`` step compared the interpreter with
        #: itself because the engine could not run them as generated code
        self.pyexec_interpreted: List[str] = []
        #: kernels whose ``p4exec`` step ran on the P4 interpreter, not
        #: the generated engine
        self.p4exec_interpreted: List[str] = []
        #: (pass name, function, vectors compared, vectors the reference
        #: trapped on) per successful check
        self.checks: List[Tuple[str, str, int, int]] = []

    # -- reference -------------------------------------------------------------
    def prepare(self, fn: Function) -> None:
        """Record the reference behavior of ``fn`` (pre-pipeline IR)."""
        if fn.name in self._reference or fn.name in self._skipped:
            return
        if _uses_rand(fn):
            self._skipped[fn.name] = (
                "uses ncl.rand (draw count is not input-deterministic)"
            )
            return
        vectors = generate_vectors(fn)
        self._vectors[fn.name] = vectors
        self._reference[fn.name] = capture_behavior(
            self.module, fn, vectors, (), device_id=self.device_id
        )

    # -- per-pass check ----------------------------------------------------------
    def check(self, pass_name: str, fn: Function) -> None:
        """Compare ``fn``'s current behavior to its reference; raise
        :class:`TranslationValidationError` on the first divergence."""
        if fn.name in self._skipped:
            return
        ref = self._reference.get(fn.name)
        if ref is None:
            return
        vectors = self._vectors[fn.name]
        cur = capture_behavior(
            self.module, fn, vectors, set(ref.traps), device_id=self.device_id
        )
        self._compare(pass_name, fn, vectors, ref, cur, exact_traps=False)

    def check_all(self, pass_name: str, functions: List[Function]) -> None:
        """Validate every prepared kernel (after module-wide passes)."""
        for fn in functions:
            self.check(pass_name, fn)

    def check_engine(self, fn: Function) -> None:
        """The ``pyexec`` step: the compiled engine against the
        interpreter on the final IR of ``fn``, compared exactly."""
        vectors = self._vectors.get(fn.name)
        if vectors is None:  # skipped by prepare(): uses ncl.rand
            vectors = generate_vectors(fn)
        ref, cur = (
            capture_behavior(
                self.module, fn, vectors, (), device_id=self.device_id, executor=executor
            )
            for executor in (IRInterpreter, KernelEngine)
        )
        self._compare("pyexec", fn, vectors, ref, cur, exact_traps=True)
        if cur.interpreted:
            self.pyexec_interpreted.append(fn.name)

    def _compare(
        self,
        step: str,
        fn: Function,
        vectors: List[Dict[str, object]],
        ref: BehaviorCapture,
        cur: BehaviorCapture,
        *,
        exact_traps: bool,
    ) -> None:
        """Raise on the first divergence of ``cur`` from ``ref``; else
        record the check: the vectors the reference ran, which both sides
        ran and were compared on, and those it trapped on."""
        diff = _diff_captures(ref, cur, exact_traps=exact_traps)
        if diff is not None:
            index, detail = diff
            raise TranslationValidationError(step, fn.name, index, vectors[index], detail)
        trapped = len(ref.traps)
        self.checks.append((step, fn.name, len(ref.runs) - trapped, trapped))

    def check_p4(self, tree, fn: Function) -> None:
        """The ``p4exec`` step: the generated P4 program (a
        :class:`repro.backends.p4tree.P4Tree`) on :class:`P4Engine`
        against the interpreter on the final IR of ``fn``."""
        from repro.backends.p4tree import DEPARSER, INGRESS, PARSER
        from repro.p4 import P4Engine, P4RuntimeError
        from repro.p4.switch import deparsed, run_netcl
        from repro.runtime.message import ACT_CODES, KernelSpec, NetCLPacket

        vectors = self._vectors.get(fn.name) or generate_vectors(fn)
        plan = KernelSpec.from_kernel(fn).plan
        state = GlobalState()
        oracle = IRInterpreter(self.module, state, device_id=self.device_id)
        engine = P4Engine(tree.program, seed=0)
        before = state.snapshot()
        compared = trapped = 0
        for index, vec in enumerate(vectors):
            values = [list(vec[a.name]) if a.is_array else vec[a.name] for a in fn.args]
            packet = NetCLPacket(5, 6, 7, self.device_id, fn.computation or 0, 0, plan.encode(values))
            try:
                outcome = oracle.run_kernel(fn, values, packet)
            except InterpError:  # a compared trap: the P4 program is not run
                state.restore(before)
                trapped += 1
                continue
            before = state.snapshot()
            try:
                ran = run_netcl(engine, packet, (PARSER, INGRESS, DEPARSER))
            except P4RuntimeError as exc:
                ran = exc
            detail = f"P4 failed: {ran}" if isinstance(ran, P4RuntimeError) else None
            if detail is None:
                md, out = ran
                result, memory = deparsed(out), before["registers"]
                want = (ACT_CODES[outcome.kind.value], (outcome.target or 0) & 0xFFFF)
                if want != (result.act, md.get("ncl_target", 0)):
                    detail = f"exit (action, target) diverged: IR {want} vs P4 {result.act}"
                elif plan.decode(result.data) != values:
                    detail = f"message fields diverged: IR {values} vs P4 {plan.decode(result.data)}"
            for name, gv in sorted(tree.registers.items()) if detail is None else ():
                row = getattr(gv, "fixed_outer", None)  # a .partN is one row of its base
                base = memory.get(gv.name.split(".", 1)[0], [])
                if row is not None:
                    base = base[row * gv.capacity : (row + 1) * gv.capacity]
                if engine.registers[name].tolist() != base:
                    detail = f"register {name} diverged"
                    break
            if detail is not None:
                raise TranslationValidationError("p4exec", fn.name, index, vec, detail)
            compared += 1
        if engine.interpreted:
            self.p4exec_interpreted.append(fn.name)
        self.checks.append(("p4exec", fn.name, compared, trapped))

    # -- reporting ---------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        return {
            "device_id": self.device_id,
            "kernels": sorted(self._reference),
            "skipped": dict(sorted(self._skipped.items())),
            "pyexec_interpreted": sorted(self.pyexec_interpreted),
            "p4exec_interpreted": sorted(self.p4exec_interpreted),
            "vectors": {k: len(v) for k, v in sorted(self._vectors.items())},
            "checks": [
                {"pass": p, "function": f, "vectors_compared": n, "vectors_trapped": t}
                for p, f, n, t in self.checks
            ],
        }
