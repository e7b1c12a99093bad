"""Translation validation: vector mining, diff execution, miscompile detection.

The acceptance bar for the harness is the mutation tests: a deliberately
miscompiling pass (seeded via monkeypatch into the real pipeline) must be
flagged with the offending pass name and a concrete counterexample input
vector, while the unmutated pipeline validates clean on the same programs.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.tvalid import (
    PassValidator,
    TranslationValidationError,
    capture_behavior,
    generate_vectors,
)
from repro.core import cli
from repro.ir.instructions import BinOp, BinOpKind, Constant
from repro.lang import analyze, lower_to_ir, parse_source
from repro.passes import PassOptions
from repro.passes.manager import PassManager


def _lower(src: str):
    return lower_to_ir(analyze(parse_source(src)))


BRANCHY = """
_kernel(1) void k(unsigned x, unsigned &out) {
  if (x > 1000) { out = x - 1000; }
  else { out = x + 7; }
}
"""

ARITH = """
_net_ unsigned g[8];
_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {
  unsigned t = a ^ (b >> 3);
  if (t > 9) { t = t - 9; }
  r = t + 1;
  ncl::atomic_add(&g[a & 7], t);
}
"""


# -- input vector generation ---------------------------------------------------------


class TestVectorGeneration:
    def test_deterministic_across_calls(self):
        fn = _lower(BRANCHY).kernels()[0]
        assert generate_vectors(fn) == generate_vectors(fn)

    def test_deterministic_across_fresh_lowerings(self):
        # The seed derives from the kernel name, not object identity.
        a = generate_vectors(_lower(BRANCHY).kernels()[0])
        b = generate_vectors(_lower(BRANCHY).kernels()[0])
        assert a == b

    def test_boundary_values_cover_branch_flip(self):
        """``if (x > 1000)`` flips between 1000 and 1001: the mined
        boundary set must include both sides plus the constant itself."""
        fn = _lower(BRANCHY).kernels()[0]
        xs = {v["x"] for v in generate_vectors(fn)}
        assert {999, 1000, 1001} <= xs

    def test_zero_and_one_always_present(self):
        fn = _lower(ARITH).kernels()[0]
        seen = set()
        for vec in generate_vectors(fn):
            seen.update(v for v in vec.values() if isinstance(v, int))
        assert {0, 1} <= seen

    def test_values_respect_field_width(self):
        mod = _lower(
            "_kernel(1) void k(uint8_t x, unsigned y, uint8_t &r) { "
            "if (y > 70000) { r = x; } }"
        )
        for vec in generate_vectors(mod.kernels()[0]):
            assert 0 <= vec["x"] <= 0xFF
            assert 0 <= vec["y"] <= 0xFFFFFFFF


# -- clean pipelines validate ----------------------------------------------------------


class TestCleanPipeline:
    @pytest.mark.parametrize("target", ["v1model", "tna"])
    def test_default_pipeline_validates(self, target):
        mod = _lower(ARITH)
        pm = PassManager(PassOptions(target=target, verify_passes=True))
        pm.run_pipeline(mod)
        assert pm.validator is not None
        assert pm.validator.checks, "no pass checks recorded"
        report = pm.validator.report()
        assert report["kernels"] == ["k"]
        assert not report["skipped"]

    def test_pure_check_passes_not_validated(self):
        mod = _lower(ARITH)
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(mod)
        names = {p for p, *_ in pm.validator.checks}
        assert "dagcheck" not in names and "memcheck" not in names

    def test_rand_kernel_skipped_not_failed(self):
        mod = _lower(
            "_kernel(1) void k(unsigned &r) { r = ncl::rand<u8>(); }"
        )
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(mod)
        report = pm.validator.report()
        assert "k" in report["skipped"]
        assert report["kernels"] == []


# -- mutation tests: seeded miscompiles must be caught -----------------------------------


def _flip_first_add(fn) -> int:
    for bb in fn.blocks:
        for inst in bb.instructions:
            if isinstance(inst, BinOp) and inst.kind == BinOpKind.ADD:
                inst.kind = BinOpKind.SUB
                return 1
    return 0


def _zero_first_divisor(fn) -> int:
    for bb in fn.blocks:
        for inst in bb.instructions:
            if isinstance(inst, BinOp) and inst.kind == BinOpKind.UDIV:
                inst.b = Constant(inst.type, 0)
                return 1
    return 0


class TestMutationDetection:
    def test_wrong_result_mutation_is_pinned_to_pass(self, monkeypatch):
        """An ADD flipped to SUB inside 'simplify' must surface as a
        TranslationValidationError naming that pass, with a counterexample."""
        from repro.passes import manager as manager_mod

        real = manager_mod.simplify_function

        def evil_simplify(fn):
            changed = real(fn) or 0
            return changed + _flip_first_add(fn)

        monkeypatch.setattr(manager_mod, "simplify_function", evil_simplify)
        mod = _lower(ARITH)
        with pytest.raises(TranslationValidationError) as ei:
            PassManager(PassOptions(verify_passes=True)).run_pipeline(mod)
        exc = ei.value
        assert exc.pass_name.startswith("simplify")
        assert exc.function == "k"
        assert isinstance(exc.vector, dict) and {"a", "b", "r"} <= set(exc.vector)
        assert "counterexample" in str(exc)
        d = exc.to_json_dict()
        assert d["pass"] == exc.pass_name and d["vector"] == exc.vector

    def test_introduced_trap_is_flagged(self, monkeypatch):
        """Zeroing a divisor makes the optimized kernel trap where the
        reference did not — refinement forbids that direction."""
        from repro.passes import manager as manager_mod

        real = manager_mod.dead_code_elimination

        def evil_dce(fn):
            changed = real(fn) or 0
            return changed + _zero_first_divisor(fn)

        monkeypatch.setattr(manager_mod, "dead_code_elimination", evil_dce)
        mod = _lower(
            "_kernel(1) void k(unsigned a, unsigned &r) { r = a / 7 + 1; }"
        )
        with pytest.raises(TranslationValidationError) as ei:
            PassManager(PassOptions(verify_passes=True)).run_pipeline(mod)
        assert ei.value.pass_name.startswith("dce")

    def test_removed_trap_is_allowed_refinement(self):
        """A division that can trap but whose result is unused is legally
        deleted by DCE: the reference traps on some vector, the optimized
        kernel never does, and validation still passes."""
        src = (
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {\n"
            "  unsigned dead = a / b;\n"
            "  r = a + b;\n"
            "}\n"
        )
        ref_mod = _lower(src)
        fn = ref_mod.kernels()[0]
        vectors = generate_vectors(fn)
        ref = capture_behavior(ref_mod, fn, vectors, ())
        assert ref.traps, "expected a b==0 vector to trap"

        mod = _lower(src)
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(mod)
        assert pm.validator.checks  # validated clean despite the dropped trap


# -- the pyexec step: compiled engine vs interpreter on the final IR ---------------------


class TestPyexecStep:
    def test_runs_last_on_phi_free_ir_for_both_targets(self):
        for target in ("tna", "v1model"):
            mod = _lower(BRANCHY)
            pm = PassManager(PassOptions(target=target, verify_passes=True))
            pm.run_pipeline(mod)
            names = [p for p, *_ in pm.validator.checks]
            assert names[-2:] == ["phi-elim", "pyexec"]
            assert pm.validator.pyexec_interpreted == []
            assert pm.validator.report()["pyexec_interpreted"] == []

    def test_seeded_engine_miscompile_is_blamed_on_pyexec(self, monkeypatch):
        from repro.ir import compiled

        monkeypatch.setitem(compiled._MODULAR_OPS, BinOpKind.ADD, "-")
        mod = _lower(ARITH)
        with pytest.raises(TranslationValidationError) as ei:
            PassManager(PassOptions(verify_passes=True)).run_pipeline(mod)
        err = ei.value
        assert err.pass_name == "pyexec" and err.function == "k"
        assert set(err.vector) == {"a", "b", "r"}
        assert "diverged" in err.detail

    def test_traps_must_match_exactly(self, monkeypatch):
        """Pass validation lets an optimized kernel drop a trap; the engine
        runs the same IR as the interpreter, so it may not."""
        from repro.ir import compiled

        src = (
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {\n"
            "  r = a / b;\n"
            "}\n"
        )
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(_lower(src))
        assert ("pyexec", "k") in {(p, f) for p, f, *_ in pm.validator.checks}

        # An engine that divides by zero without trapping is caught.
        monkeypatch.setattr(
            compiled.KernelEngine, "_delegated_binop", lambda self, inst, a, b: 0
        )
        with pytest.raises(TranslationValidationError) as ei:
            PassManager(PassOptions(verify_passes=True)).run_pipeline(_lower(src))
        assert ei.value.pass_name == "pyexec"

    def test_rand_kernels_are_compared_too(self):
        src = "_kernel(1) void k(unsigned &r) { r = ncl::rand<unsigned>(); }\n"
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(_lower(src))
        assert pm.validator.report()["skipped"]  # per-pass validation skips it
        assert [p for p, *_ in pm.validator.checks] == ["pyexec"]

    def test_engine_fallback_is_reported_not_hidden(self, monkeypatch):
        from repro.ir import compiled

        monkeypatch.setattr(compiled, "generate", lambda fn, max_steps=0: None)
        pm = PassManager(PassOptions(verify_passes=True))
        pm.run_pipeline(_lower(BRANCHY))
        assert pm.validator.pyexec_interpreted == ["k"]


# -- validator object behavior ----------------------------------------------------------


class TestPassValidator:
    def test_check_against_unprepared_kernel_is_noop(self):
        mod = _lower(ARITH)
        v = PassValidator(mod)
        v.check("simplify", mod.kernels()[0])  # no prepare(): must not raise
        assert v.checks == []

    def test_report_shape(self):
        mod = _lower(ARITH)
        v = PassValidator(mod)
        fn = mod.kernels()[0]
        v.prepare(fn)
        v.check("noop", fn)
        rep = v.report()
        assert rep["device_id"] == 1
        assert rep["kernels"] == ["k"]
        assert rep["vectors"]["k"] >= 2
        assert rep["checks"][0]["pass"] == "noop"
        assert rep["checks"][0]["vectors_compared"] > 0

    def test_module_pass_validation_covers_all_kernels(self):
        mod = _lower(
            "_kernel(1) void f(unsigned x, unsigned &r) { r = x + 1; }\n"
            "_kernel(2) void g(unsigned x, unsigned &r) { r = x * 2; }\n"
        )
        v = PassValidator(mod)
        for fn in mod.kernels():
            v.prepare(fn)
        v.check_all("partition-memory", mod.kernels())
        assert {f for _, f, *_ in v.checks} == {"f", "g"}


# -- PassManager / CLI integration --------------------------------------------------------


class TestIntegration:
    def test_manager_without_flag_has_no_validator(self):
        mod = _lower(ARITH)
        pm = PassManager(PassOptions())
        pm.run_pipeline(mod, 1)
        assert pm.validator is None

    def test_cli_verify_ok(self, tmp_path, capsys):
        p = tmp_path / "prog.ncl"
        p.write_text(ARITH)
        assert cli.main(["verify", str(p)]) == 0
        out = capsys.readouterr().out
        assert "ncc verify: OK" in out and "k" in out

    def test_cli_verify_json(self, tmp_path, capsys):
        p = tmp_path / "prog.ncl"
        p.write_text(BRANCHY)
        assert cli.main(["verify", str(p), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["devices"][0]["status"] == "ok"
        assert report["devices"][0]["kernels"] == ["k"]
        assert report["devices"][0]["checks"]

    def test_cli_verify_flags_miscompile(self, tmp_path, capsys, monkeypatch):
        from repro.passes import manager as manager_mod

        real = manager_mod.simplify_function

        def evil(fn):
            return (real(fn) or 0) + _flip_first_add(fn)

        monkeypatch.setattr(manager_mod, "simplify_function", evil)
        p = tmp_path / "prog.ncl"
        p.write_text(ARITH)
        assert cli.main(["verify", str(p), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "miscompile"
        bad = report["devices"][0]
        assert bad["status"] == "miscompile"
        assert bad["pass"].startswith("simplify")
        assert isinstance(bad["vector"], dict)

    def test_cli_compile_verify_passes_flag(self, tmp_path, capsys):
        p = tmp_path / "prog.ncl"
        p.write_text(ARITH)
        rc = cli.main(
            [str(p), "--verify-passes", "--device", "1", "--target", "v1model"]
        )
        assert rc == 0


class TestP4Exec:
    """``p4exec``: the generated P4 program, run by P4Engine, against the
    interpreter on the final IR."""

    def _verify(self, app: str):
        from repro.apps import netcl_source
        from repro.core import compile_netcl

        return compile_netcl(
            netcl_source(app), 1, options=PassOptions(verify_passes=True), program_name=app
        ).validation

    def test_the_generated_program_runs_on_the_engine(self):
        report = self._verify("calc")
        runs = [c for c in report["checks"] if c["pass"] == "p4exec"]
        assert [c["function"] for c in runs] == ["calc"] and runs[0]["vectors_compared"] > 0
        assert report["p4exec_interpreted"] == []

    def test_a_wrong_program_is_a_p4exec_miscompile(self, monkeypatch):
        from repro.backends import p4tree
        from repro.ir.instructions import BinOpKind

        monkeypatch.setitem(p4tree._BINOPS, BinOpKind.ADD, "-")
        with pytest.raises(TranslationValidationError) as excinfo:
            self._verify("calc")
        assert excinfo.value.pass_name == "p4exec" and excinfo.value.function == "calc"

    @pytest.mark.parametrize("target", ["tna", "v1model"])
    @pytest.mark.parametrize(
        "src",
        [
            "_kernel(1) void k(uint32_t x, uint32_t &o, uint16_t &p)"
            " { o = ncl::clz(x); p = (uint16_t)ncl::ctz(x); }",
            "_kernel(1) void k(uint32_t x, uint32_t y, uint32_t &o, uint32_t &q, uint32_t &r) {"
            " o = ncl::min(x, y) + ncl::max(x, y); q = ncl::bswap(x) ^ ncl::popcount(y);"
            " r = ncl::sadd(x, y) - ncl::ssub(x, y) + ncl::bit_chk(x, y & 31); }",
            "_kernel(1) void k(uint16_t x, uint16_t y, uint16_t &o) { o = ncl::v1::csum16r(x, y); }",
            "_kernel(1) void k(unsigned i, unsigned x, unsigned v[4], unsigned &o) {"
            " unsigned a[4]; a[0] = x; a[1] = x + 1; a[2] = x + 2; a[3] = x + 3;"
            " a[i & 3] = 7; v[i & 3] = x; o = a[(i + 1) & 3] + v[(i + 2) & 3]; }",
            "_kernel(1) void k(int x, int y, int &o, int &p) { o = x < y ? x >> 3 : y; p = (int)(short)x; }",
        ],
        ids=["clz-ctz", "arith-intrinsics", "csum16r", "run-time-index", "signed"],
    )
    def test_every_construct_the_tree_lowers_runs_on_the_engine(self, src, target):
        from repro.core import compile_netcl

        report = compile_netcl(
            src, 1, target=target, options=PassOptions(verify_passes=True)
        ).validation
        runs = [c for c in report["checks"] if c["pass"] == "p4exec"]
        assert runs and all(c["vectors_compared"] > 0 for c in runs)
        assert report["p4exec_interpreted"] == []


class TestTrapsAreCompared:
    """A vector the interpreter traps on is a compared trap, and the next
    vector runs from the memory before it, so one trap does not end the
    comparison of a kernel.  ``vectors_compared`` counts only the vectors
    the reference ran (for ``p4exec``: the vectors sent to the P4
    program); ``vectors_trapped`` counts the rest."""

    @pytest.mark.parametrize("target", ["tna", "v1model"])
    @pytest.mark.parametrize("app", ["agg", "collective"])
    def test_every_step_compares_at_least_20_vectors(self, app, target):
        from repro.apps import netcl_source
        from repro.core.driver import verify_source

        entries, failure = verify_source(netcl_source(app), target=target, program_name=app)
        assert failure is None
        checks = [(e["device"], c) for e in entries for c in e["checks"]]
        steps = {c["pass"] for _, c in checks}
        assert {"sroa", "mem2reg", "simplify", "if-convert", "pyexec", "p4exec"} <= steps
        few = [(dev, c) for dev, c in checks if c["vectors_compared"] < 20]
        assert not few, few
        # every kernel traps on some vector, and the comparison goes on past it
        assert all(c["vectors_trapped"] > 0 for _, c in checks)
        # a vector is either compared or trapped, never both
        sizes = {(e["device"], k): n for e in entries for k, n in e["vectors"].items()}
        split = [
            (dev, c) for dev, c in checks
            if c["vectors_compared"] + c["vectors_trapped"] != sizes[dev, c["function"]]
        ]
        assert not split, split

    @pytest.mark.parametrize("app", ["agg", "collective"])
    def test_at_least_20_vectors_run_after_the_first_trap(self, app):
        from repro.analysis.tvalid import generate_vectors
        from repro.apps import netcl_source
        from repro.core.driver import lower_source

        mod = lower_source(netcl_source(app), program_name=app)
        for fn in mod.kernels():
            cap = capture_behavior(mod, fn, generate_vectors(fn), ())
            ran_after = [run for run in cap.runs[cap.traps[0] + 1:] if run is not None]
            assert len(ran_after) >= 20, (fn.name, cap.traps)

    def test_a_trap_leaves_no_effect_and_the_next_vector_runs(self):
        src = (
            "_net_ unsigned g[4];\n"
            "_kernel(1) void k(unsigned a, unsigned b, unsigned &r) {\n"
            "  ncl::atomic_add(&g[a & 3], 1);\n"
            "  r = a / b;\n"
            "}\n"
        )
        mod = _lower(src)
        fn = mod.kernels()[0]
        vectors = [{"a": 1, "b": 1, "r": 0}, {"a": 1, "b": 0, "r": 0}, {"a": 1, "b": 1, "r": 0}]
        cap = capture_behavior(mod, fn, vectors, ())
        assert cap.traps == [1]
        # the trapping vector's increment is undone: after the third, g[1] is 2, not 3
        assert cap.runs[2][3]["registers"]["g"] == [0, 2, 0, 0]
