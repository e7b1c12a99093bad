"""Compiler fuzzing: random kernels, optimized vs reference execution.

A seeded generator produces small random NetCL kernels (arithmetic,
nested control flow, unrollable loops, local scalars/arrays, global
register arrays with masked indices, atomics).  Each kernel is executed
(a) straight after lowering and (b) after the full middle-end pipeline,
on identical random inputs; message fields and global memory must match
bit-for-bit.  This exercises mem2reg, folding, if-conversion, SROA, DCE,
hoisting, speculation, and intrinsic conversion in combination.

Every fuzzed pipeline additionally runs under translation validation
(``PassOptions(verify_passes=True)``): each pass is differentially
executed against the kernel's pre-pipeline behavior, so a miscompile is
pinned to the offending pass instead of surfacing as an end-to-end diff.
"""

from __future__ import annotations

import random

import pytest

from repro.ir import GlobalState, IRInterpreter, KernelMessage
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import PassManager, PassOptions
from repro.passes.memcheck import MemoryCheckError


class KernelGenerator:
    """Generates one random, always-legal NetCL kernel."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.scalars = ["a", "b", "c"]  # by-value args
        self.outs = ["r0", "r1"]  # by-ref args
        self.locals: list[str] = []
        self.globals = ["g0", "g1"]
        self.depth = 0

    # -- expressions ----------------------------------------------------------
    def expr(self, depth: int = 0) -> str:
        r = self.rng
        if depth > 2:
            return self.atom()
        pick = r.randrange(10)
        if pick < 4:
            return self.atom()
        if pick < 8:
            op = r.choice(["+", "-", "*", "&", "|", "^"])
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if pick == 8:
            sh = r.randrange(1, 8)
            return f"({self.expr(depth + 1)} >> {sh})"
        return f"({self.cond(depth + 1)} ? {self.expr(depth + 1)} : {self.expr(depth + 1)})"

    def atom(self) -> str:
        r = self.rng
        pool = self.scalars + self.locals
        pick = r.randrange(4)
        if pick == 0 or not pool:
            return str(r.randrange(0, 1 << 16))
        return r.choice(pool)

    def cond(self, depth: int = 0) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({self.expr(depth)} {op} {self.expr(depth)})"

    # -- statements -------------------------------------------------------------
    def stmt(self, indent: str) -> str:
        r = self.rng
        self.depth += 1
        try:
            pick = r.randrange(10)
            if pick < 3:  # assignment to an out or a local
                if self.locals and r.random() < 0.6:
                    target = r.choice(self.locals)
                else:
                    target = r.choice(self.outs)
                return f"{indent}{target} = {self.expr()};"
            if pick < 4:  # reassign a local
                if not self.locals:
                    return f"{indent}{self.rng.choice(self.outs)} = {self.expr()};"
                return f"{indent}{self.rng.choice(self.locals)} = {self.expr()};"
            if pick < 6 and self.depth < 3:  # if / if-else
                body = self.stmt(indent + "  ")
                if r.random() < 0.5:
                    other = self.stmt(indent + "  ")
                    return (
                        f"{indent}if {self.cond()} {{\n{body}\n{indent}}} "
                        f"else {{\n{other}\n{indent}}}"
                    )
                return f"{indent}if {self.cond()} {{\n{body}\n{indent}}}"
            if pick < 7 and self.depth < 2:  # small unrollable loop
                n = r.randrange(2, 5)
                var = f"i{self.depth}"
                inner = f"{indent}  {r.choice(self.outs)} = {r.choice(self.outs)} + {var};"
                return f"{indent}for (auto {var} = 0; {var} < {n}; ++{var}) {{\n{inner}\n{indent}}}"
            if pick < 9:  # atomic on a global with masked index
                g = r.choice(self.globals)
                op = r.choice(["add", "xor", "or", "max"])
                out = r.choice(self.outs)
                return (
                    f"{indent}{out} = ncl::atomic_{op}_new(&{g}[{r.choice(self.scalars)} & 7], "
                    f"{self.expr()});"
                )
            # compound assignment
            return f"{indent}{r.choice(self.outs)} {r.choice(['+=', '^=', '|='])} {self.expr()};"
        finally:
            self.depth -= 1

    def generate(self) -> str:
        # Locals are pre-declared at kernel scope so nested statements can
        # reference them freely (the generator never emits shadowing); each
        # initializer may only use previously-declared names.
        self.locals = []
        decl_lines = []
        for name in ("t0", "t1"):
            decl_lines.append(f"  unsigned {name} = {self.expr()};")
            self.locals.append(name)
        decls = "\n".join(decl_lines)
        body = decls + "\n" + "\n".join(
            self.stmt("  ") for _ in range(self.rng.randrange(3, 7))
        )
        return (
            "_net_ unsigned g0[8];\n"
            "_net_ unsigned g1[8];\n"
            "_kernel(1) void k(unsigned a, unsigned b, unsigned c, "
            "unsigned &r0, unsigned &r1) {\n"
            f"{body}\n}}\n"
        )


def _run(module, inputs):
    state = GlobalState()
    interp = IRInterpreter(module, state, device_id=1)
    fn = module.kernels()[0]
    outputs = []
    for a, b, c in inputs:
        msg = KernelMessage({"a": a, "b": b, "c": c, "r0": 0, "r1": 0})
        out = interp.run_kernel(fn, msg)
        outputs.append((out.kind, msg.fields["r0"], msg.fields["r1"]))
    registers = state.snapshot()["registers"]
    mem = {name: registers[name] for name in ("g0", "g1")}
    return outputs, mem


@pytest.mark.parametrize("seed", range(40))
def test_random_kernel_optimization_is_semantics_preserving(seed):
    src = KernelGenerator(seed).generate()
    rng = random.Random(1000 + seed)
    inputs = [
        (rng.randrange(1 << 32), rng.randrange(1 << 32), rng.randrange(1 << 32))
        for _ in range(8)
    ]

    ref_mod = lower_to_ir(analyze(parse_source(src)))
    ref_out, ref_mem = _run(ref_mod, inputs)

    for target in ("v1model", "tna"):
        opt_mod = lower_to_ir(analyze(parse_source(src)))
        try:
            PassManager(PassOptions(target=target, verify_passes=True)).run_pipeline(opt_mod)
        except MemoryCheckError:
            continue  # random program violates Tofino memory rules: fine
        opt_out, opt_mem = _run(opt_mod, inputs)
        assert opt_out == ref_out, f"seed {seed} target {target}:\n{src}"
        assert opt_mem == ref_mem, f"seed {seed} target {target} memory:\n{src}"


@pytest.mark.parametrize("seed", range(40))
def test_random_kernel_lint_never_crashes_nor_mutates(seed):
    """The linter is a pure observer: on every fuzzed program it must
    (a) never raise and (b) leave the module bit-identical — same IR
    dump, still verifier-clean — before and after.
    """
    from repro.analysis import DiagnosticEngine, run_lints
    from repro.ir import verify_module

    src = KernelGenerator(seed).generate()
    module = lower_to_ir(analyze(parse_source(src)))
    verify_module(module)
    before = module.dump()

    engine = DiagnosticEngine(source_name=f"fuzz-{seed}")
    run_lints(module, engine)
    for d in engine.diagnostics:
        assert d.code, f"seed {seed}: diagnostic without a code: {d}"

    assert module.dump() == before, f"seed {seed}: lint mutated the module"
    verify_module(module)
