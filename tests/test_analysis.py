"""Unit tests for ``repro.analysis``: the dataflow framework, the
diagnostics engine, and the ``ncc lint`` CLI (the acceptance scenario —
one program firing three distinct warning codes with locations, in both
text and JSON renderings)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    DiagnosticEngine,
    Direction,
    GenKillAnalysis,
    lint_source,
    run_lints,
)
from repro.analysis.diagnostics import CODES, Severity
from repro.core.cli import main
from repro.ir import IRBuilder
from repro.ir.dominators import postorder, reverse_postorder
from repro.ir.instructions import ActionKind, Constant, Load, Store
from repro.ir.module import Function, FunctionKind
from repro.ir.types import BOOL, IntType

U32 = IntType(32)


# ---------------------------------------------------------------------------
# dataflow framework
# ---------------------------------------------------------------------------


def _diamond():
    """entry(store a) -> {then(store b), else} -> merge."""
    fn = Function("d", FunctionKind.KERNEL, [], computation=1)
    b = IRBuilder(fn)
    entry = fn.new_block("entry")
    then_ = fn.new_block("then")
    else_ = fn.new_block("else")
    merge = fn.new_block("merge")

    b.position_at_end(entry)
    slot_a = b.alloca(U32, name="a")
    slot_b = b.alloca(U32, name="b")
    b.store(slot_a, Constant(U32, 1))
    b.br(Constant(BOOL, 1), then_, else_)

    b.position_at_end(then_)
    b.store(slot_b, Constant(U32, 2))
    b.jmp(merge)

    b.position_at_end(else_)
    b.jmp(merge)

    b.position_at_end(merge)
    b.load(slot_a, name="la")
    b.ret_action(ActionKind.PASS)
    return fn, slot_a, slot_b, merge


class _Stored(GenKillAnalysis):
    """Forward analysis of which slots have been stored to."""

    def __init__(self, fn, *, must):
        super().__init__(fn)
        self.may = not must

    def universe(self, fn):
        return frozenset(
            i.name for i in fn.instructions() if isinstance(i, Store)
        ) | frozenset(
            i.slot.name for i in fn.instructions() if isinstance(i, Store)
        )

    def inst_gen(self, inst):
        if isinstance(inst, Store):
            return frozenset([inst.slot.name])
        return frozenset()


class _LiveSlots(GenKillAnalysis):
    """Backward liveness over slot names."""

    direction = Direction.BACKWARD

    def inst_gen(self, inst):
        if isinstance(inst, Load):
            return frozenset([inst.slot.name])
        return frozenset()

    def inst_kill(self, inst):
        if isinstance(inst, Store):
            return frozenset([inst.slot.name])
        return frozenset()


class TestDataflow:
    def test_traversal_orders(self):
        fn, *_ = _diamond()
        post = [bb.name for bb in postorder(fn)]
        rpo = [bb.name for bb in reverse_postorder(fn)]
        assert post[-1] == "entry" and rpo[0] == "entry"
        assert set(post) == {"entry", "then", "else", "merge"}
        assert rpo.index("then") < rpo.index("merge")
        assert rpo.index("else") < rpo.index("merge")

    def test_forward_must_intersects_at_merge(self):
        fn, _, _, merge = _diamond()
        must = _Stored(fn, must=True).run()
        assert must.block_in[id(merge)] == frozenset(["a"])

    def test_forward_may_unions_at_merge(self):
        fn, _, _, merge = _diamond()
        may = _Stored(fn, must=False).run()
        assert may.block_in[id(merge)] == frozenset(["a", "b"])

    def test_backward_liveness(self):
        fn, *_ = _diamond()
        live = _LiveSlots(fn).run()
        entry = fn.entry
        # 'a' is loaded in merge and not re-stored on the way, so it is
        # live out of every block on the path; 'b' is never loaded.
        assert "a" in live.block_out[id(entry)]
        assert "b" not in live.block_out[id(entry)]

    def test_facts_before_walks_instructions(self):
        fn, slot_a, _, merge = _diamond()
        must = _Stored(fn, must=True).run()
        facts = must.facts_before(merge)
        load_idx = next(
            i for i, inst in enumerate(merge.instructions) if isinstance(inst, Load)
        )
        assert "a" in facts[load_idx]


# ---------------------------------------------------------------------------
# diagnostics engine
# ---------------------------------------------------------------------------


class TestDiagnosticEngine:
    def test_default_severity_comes_from_code_table(self):
        engine = DiagnosticEngine()
        assert engine.emit("NCL001", "w").severity == Severity.WARNING.value
        assert engine.emit("NCL102", "e").severity == Severity.ERROR.value
        assert engine.warnings and engine.errors

    def test_suppression_drops_the_code(self):
        engine = DiagnosticEngine(suppressed=["NCL004"])
        assert engine.emit("NCL004", "dead store") is None
        engine.emit("NCL001", "kept")
        assert engine.codes() == ["NCL001"]

    def test_exit_codes(self):
        ok = DiagnosticEngine()
        ok.emit("NCL001", "warning only")
        assert ok.exit_code == 0

        strict = DiagnosticEngine(werror=True)
        strict.emit("NCL001", "warning only")
        assert strict.exit_code == 1

        hard = DiagnosticEngine()
        hard.emit("NCL102", "error")
        assert hard.exit_code == 1

    def test_render_text_has_location_and_code(self):
        from repro.ir.instructions import SourceLoc

        engine = DiagnosticEngine(source_name="k.ncl")
        engine.emit("NCL005", "truncated", SourceLoc(7, 3))
        text = engine.render_text()
        assert "k.ncl:7:3: warning: truncated [NCL005]" in text
        assert "1 warning generated." in text

    def test_json_payload(self):
        from repro.ir.instructions import SourceLoc

        engine = DiagnosticEngine(source_name="k.ncl")
        engine.emit("NCL001", "maybe uninit", SourceLoc(4, 9))
        payload = json.loads(engine.to_json())
        assert payload["source"] == "k.ncl"
        assert payload["counts"] == {"errors": 0, "warnings": 1}
        [d] = payload["diagnostics"]
        assert (d["code"], d["line"], d["col"]) == ("NCL001", 4, 9)

    def test_every_code_has_severity_and_description(self):
        for code, (severity, desc) in CODES.items():
            assert code.startswith("NCL") and len(code) == 6
            assert isinstance(severity, Severity) and desc


# ---------------------------------------------------------------------------
# acceptance: one program, three codes, text + JSON, --Werror
# ---------------------------------------------------------------------------

ACCEPTANCE = """\
_net_ uint32_t Shared;
_net_ uint32_t R1;
_net_ uint32_t R2;
_net_ uint32_t R3;
_net_ uint32_t R4;
_net_ uint32_t R5;
_net_ uint32_t R6;
_net_ uint32_t R7;
_net_ uint32_t R8;
_net_ uint32_t R9;
_net_ uint32_t R10;
_net_ uint32_t R11;
_net_ uint32_t R12;
_net_ uint32_t R13;

_kernel(1) void writer(uint32_t &x) {
  uint32_t t;
  if (x == 0) {
    t = 1;
  }
  Shared = t;
  return ncl::pass();
}

_kernel(2) void chain(uint32_t &h) {
  uint32_t v = Shared;
  v = ncl::atomic_add_new(&R1, v);
  v = ncl::atomic_add_new(&R2, v);
  v = ncl::atomic_add_new(&R3, v);
  v = ncl::atomic_add_new(&R4, v);
  v = ncl::atomic_add_new(&R5, v);
  v = ncl::atomic_add_new(&R6, v);
  v = ncl::atomic_add_new(&R7, v);
  v = ncl::atomic_add_new(&R8, v);
  v = ncl::atomic_add_new(&R9, v);
  v = ncl::atomic_add_new(&R10, v);
  v = ncl::atomic_add_new(&R11, v);
  v = ncl::atomic_add_new(&R12, v);
  v = ncl::atomic_add_new(&R13, v);
  h = v;
  return ncl::pass();
}
"""

EXPECTED_CODES = {"NCL001", "NCL002", "NCL007"}


@pytest.fixture
def acceptance_file(tmp_path):
    p = tmp_path / "acceptance.ncl"
    p.write_text(ACCEPTANCE)
    return p


class TestLintCLI:
    def test_three_distinct_codes_with_locations(self, acceptance_file, capsys):
        rc = main(["lint", str(acceptance_file)])
        err = capsys.readouterr().err
        assert rc == 0  # warnings only
        for code in EXPECTED_CODES:
            assert code in err, f"missing {code} in:\n{err}"
        # every reported line carries file:line:col
        import re

        locs = re.findall(r"acceptance\.ncl:(\d+):(\d+): warning:", err)
        assert len(locs) >= 3
        assert all(int(line) > 0 and int(col) > 0 for line, col in locs)

    def test_json_rendering(self, acceptance_file, capsys):
        rc = main(["lint", str(acceptance_file), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        codes = {d["code"] for d in payload["diagnostics"]}
        assert EXPECTED_CODES <= codes
        for d in payload["diagnostics"]:
            assert d["line"] > 0 and d["col"] > 0

    def test_werror_fails_the_build(self, acceptance_file, capsys):
        assert main(["lint", str(acceptance_file), "--Werror"]) == 1

    def test_suppression_flag(self, acceptance_file, capsys):
        rc = main(["lint", str(acceptance_file), "-Wno-NCL007"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "NCL007" not in err
        assert "NCL001" in err and "NCL002" in err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.ncl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_compile_mode_opt_in_lint(self, acceptance_file, tmp_path, capsys):
        out = tmp_path / "out.p4"
        rc = main(
            [
                str(acceptance_file),
                "--lint",
                "--target",
                "v1model",
                "--no-fit",
                "-o",
                str(out),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 0 and out.exists()
        assert "NCL001" in err

    def test_compile_mode_werror(self, acceptance_file, tmp_path, capsys):
        rc = main(
            [
                str(acceptance_file),
                "--lint",
                "--Werror",
                "--target",
                "v1model",
                "--no-fit",
                "-o",
                str(tmp_path / "out.p4"),
            ]
        )
        assert rc == 1


class TestLintSource:
    def test_compile_error_becomes_ncl100(self):
        engine = DiagnosticEngine()
        lint_source("_kernel(1) void k(uint32_t &x) { x = ; }", engine=engine)
        assert engine.codes() == ["NCL100"]
        assert engine.exit_code == 1

    def test_run_lints_is_importable_and_pure(self):
        from repro.lang import analyze, lower_to_ir, parse_source

        mod = lower_to_ir(
            analyze(parse_source("_kernel(1) void k(uint32_t &x) { x = x + 1; }"))
        )
        before = mod.dump()
        engine = DiagnosticEngine()
        run_lints(mod, engine)
        assert mod.dump() == before
        assert engine.diagnostics == []

    @pytest.mark.parametrize("used", [True, False])
    def test_an_atomic_write_reads_the_global_only_if_its_old_value_is_used(self, used):
        call = "ncl::atomic_write(&m[i & 3], x);"
        body = f"o = {call}" if used else call
        engine = DiagnosticEngine()
        lint_source(
            "_net_ unsigned m[4];\n"
            f"_kernel(1) void k(unsigned i, unsigned x, unsigned &o) {{ {body} }}",
            engine=engine,
        )
        written_only = [d for d in engine.diagnostics if "written but never read" in d.message]
        assert len(written_only) == (0 if used else 1)


class TestDiagnosticDeterminism:
    """Diagnostics are part of the tool's observable output: two runs over
    the same source must byte-match in both renderers, regardless of emit
    order or set/dict iteration inside individual lints."""

    def _run_once(self) -> DiagnosticEngine:
        engine = DiagnosticEngine(source_name="acceptance.ncl")
        lint_source(ACCEPTANCE, engine=engine)
        return engine

    def test_two_runs_byte_match(self):
        a, b = self._run_once(), self._run_once()
        assert a.render_text() == b.render_text()
        assert a.to_json() == b.to_json()

    def test_output_sorted_by_location_then_code(self):
        from repro.ir.instructions import SourceLoc

        engine = DiagnosticEngine(source_name="k.ncl")
        # Emit deliberately out of order.
        engine.emit("NCL004", "later line", SourceLoc(9, 1))
        engine.emit("NCL001", "earlier line", SourceLoc(2, 5))
        engine.emit("NCL005", "same line, later col", SourceLoc(2, 9))
        payload = json.loads(engine.to_json())
        order = [(d["line"], d["col"], d["code"]) for d in payload["diagnostics"]]
        assert order == sorted(order)
        # text renderer follows the same order
        lines = engine.render_text().splitlines()
        assert "k.ncl:2:5" in lines[0] and "k.ncl:2:9" in lines[1]
        assert "k.ncl:9:1" in lines[2]

    def test_json_carries_schema_version(self):
        from repro.analysis import SCHEMA_VERSION

        payload = json.loads(self._run_once().to_json())
        assert payload["schema_version"] == SCHEMA_VERSION == 1
        # schema_version leads the payload so consumers can sniff cheaply
        assert next(iter(payload)) == "schema_version"
