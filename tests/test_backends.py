"""Code generation: the P4 tree and its text, the resources read from it,
as a compiled program holds them."""

import pytest

from repro.core import compile_netcl
from tests.conftest import FIG4_CACHE, MINI_KERNEL


class TestP4Text:
    @pytest.fixture(scope="class")
    def tna_source(self):
        return compile_netcl(FIG4_CACHE, 1, fit=False).p4_source

    def test_includes_and_dialect(self, tna_source):
        assert '#include <tna.p4>' in tna_source

    def test_netcl_shim_header_emitted(self, tna_source):
        assert "header netcl_t" in tna_source
        assert "bit<16> from_;" in tna_source

    def test_kernel_argument_header(self, tna_source):
        assert "header query_args_t" in tna_source
        for field in ("op", "k", "v", "hit", "hot"):
            assert field in tna_source

    def test_registers_and_register_actions(self, tna_source):
        assert "Register<bit<32>, bit<32>>" in tna_source
        assert "RegisterAction<" in tna_source
        assert "|+|" in tna_source  # saturated add microprogram

    def test_lookup_table_with_entries(self, tna_source):
        assert "table query_mat_cache" in tna_source
        assert "const entries" in tna_source

    def test_hash_externs(self, tna_source):
        assert "HashAlgorithm_t.CRC16" in tna_source
        assert "HashAlgorithm_t.XOR16" in tna_source

    def test_dispatch_on_computation_id(self, tna_source):
        # the parser selects the arguments and the dispatch table the kernel
        assert "transition select(hdr.netcl.comp)" in tna_source
        assert "hdr.netcl.comp : exact;" in tna_source
        assert "switch (ncl_dispatch.apply().action_run)" in tna_source

    def test_action_codes_written(self, tna_source):
        assert "hdr.netcl.act = code;" in tna_source and "ncl_exit(8w6," in tna_source

    def test_v1model_dialect(self):
        src = compile_netcl(FIG4_CACHE, 1, target="v1model", fit=False).p4_source
        assert '#include <v1model.p4>' in src
        assert "register<bit<32>>" in src
        assert ".read(" in src and ".write(" in src
        assert "RegisterAction" not in src and "Hash<" not in src
        assert "V1Switch(IngressParser(), NetCLIngress(), IngressDeparser()) main;" in src


class TestPipelineSpecLowering:
    def test_kernel_tables_present(self):
        result = compile_netcl(FIG4_CACHE, 1, fit=False)
        names = [t.name for t in result.spec.tables]
        assert any("mat_cache" in n for n in names)
        assert any("reg_cms" in n for n in names)
        # base program
        assert "NetCLIngress_ncl_dispatch" in names and "NetCLIngress_smac" in names

    def test_kernel_stats_collected(self, fig4_compiled):
        stats = fig4_compiled.kernel_stats
        assert "query" in stats
        s = stats["query"]
        assert s.header_bits == 8 + 32 + 32 + 8 + 32
        tables = [t for t in fig4_compiled.spec.tables if t.origin == "query"]
        assert any(t.is_gateway for t in tables) and any("_act_" in t.name for t in tables)

    def test_header_fields_include_netcl_shim(self, fig4_compiled):
        from repro.p4 import parse_p4

        program = parse_p4(fig4_compiled.p4_source)
        shim = program.headers["netcl_t"]
        assert [ty.width for ty, _ in shim.fields] == [16, 16, 16, 16, 8, 8, 16]
        # the shim is carried on the PHV
        assert shim.bit_width in fig4_compiled.spec.header_fields


class TestDriver:
    def test_fig4_compiles_both_targets(self):
        for target in ("tna", "v1model"):
            cp = compile_netcl(FIG4_CACHE, 1, target=target)
            assert cp.report is not None and cp.p4_source

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            compile_netcl(MINI_KERNEL, 1, target="npu")

    def test_defines_injection(self):
        src = "#ifndef N\n#define N 4\n#endif\n_net_ unsigned m[N];\n_kernel(1) void k(unsigned i, unsigned &r) { r = m[i & (N-1)]; }"
        cp = compile_netcl(src, 1, defines={"N": 16})
        assert cp.module.globals["m"].capacity == 16

    def test_timings_split(self, fig4_compiled):
        t = fig4_compiled.timings
        assert t.ncc_seconds > 0 and t.fitter_seconds > 0
        assert abs(t.total_seconds - (t.ncc_seconds + t.fitter_seconds)) < 1e-9

    def test_dynamic_local_index_gets_an_index_table(self):
        # A local array indexed by a run-time value stays a header stack;
        # its loads and stores share one exact-match index table (Fig. 9).
        src = (
            "_kernel(1) void k(unsigned i, unsigned x, unsigned &o) {\n"
            "  unsigned a[4];\n"
            "  a[0] = x; a[1] = x + 1; a[2] = x + 2; a[3] = x + 3;\n"
            "  a[i & 3] = 7;\n"
            "  o = a[(i + 1) & 3];\n"
            "}\n"
        )
        cp = compile_netcl(src, 1)
        index_tables = [t for t in cp.spec.tables if "_idx_" in t.name]
        assert len(index_tables) == 1
        assert index_tables[0].entries == 4 and cp.report is not None

    def test_fit_false_skips_fitter(self):
        cp = compile_netcl(MINI_KERNEL, 1, fit=False)
        assert cp.report is None and cp.timings.fitter_seconds == 0


class TestCli:
    def test_cli_compiles_to_file(self, tmp_path):
        from repro.core.cli import main

        src = tmp_path / "prog.ncl"
        src.write_text(MINI_KERNEL)
        out = tmp_path / "prog.p4"
        rc = main([str(src), "--device", "1", "-o", str(out), "--report"])
        assert rc == 0
        assert "RegisterAction" in out.read_text()

    def test_cli_reports_compile_errors(self, tmp_path, capsys):
        from repro.core.cli import main

        src = tmp_path / "bad.ncl"
        src.write_text("_kernel(1) int k() { return 1; }")
        rc = main([str(src)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_cli_flags(self, tmp_path):
        from repro.core.cli import main

        src = tmp_path / "prog.ncl"
        src.write_text(MINI_KERNEL)
        rc = main([str(src), "--no-speculation", "--no-duplication", "--no-fit",
                   "-o", str(tmp_path / "o.p4")])
        assert rc == 0

    def test_cli_defines(self, tmp_path):
        from repro.core.cli import main

        src = tmp_path / "prog.ncl"
        src.write_text("_net_ unsigned m[N];\n_kernel(1) void k(unsigned i, unsigned &r) { r = m[i & (N-1)]; }")
        rc = main([str(src), "-D", "N=8", "-o", str(tmp_path / "o.p4")])
        assert rc == 0
