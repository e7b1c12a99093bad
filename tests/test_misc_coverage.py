"""Remaining coverage: CLI dump, LoC fractions, verifier diagnostics,
netsim statistics, IR dump format."""

import pytest

from repro.core import compile_netcl
from repro.ir import IRVerifyError, verify_function
from repro.p4.loc import LineCategory, breakdown_fractions, classify_lines, count_loc
from tests.conftest import MINI_KERNEL


class TestLocTools:
    SAMPLE = """
// comment-only line

header h_t {
    bit<8> f;
}

parser P(packet_in pkt, out headers_t hdr) {
    state start {
        pkt.extract(hdr.h);
        transition accept;
    }
}

control C(inout headers_t hdr) {
    action set_f() {
        hdr.h.f = 1;
    }
    table t {
        key = { hdr.h.f : exact; }
        actions = { set_f; }
    }
    apply {
        t.apply();
    }
}
"""

    def test_categories_on_sample(self):
        counts = classify_lines(self.SAMPLE)
        assert counts[LineCategory.HEADERS] == 3
        assert counts[LineCategory.PARSER] == 6
        assert counts[LineCategory.ACTIONS] == 3
        assert counts[LineCategory.TABLES] == 4
        assert counts[LineCategory.CONTROL] >= 3

    def test_fractions_sum_to_one(self):
        frac = breakdown_fractions(classify_lines(self.SAMPLE))
        per_cat = sum(frac[c.value] for c in LineCategory)
        assert per_cat == pytest.approx(1.0)

    def test_count_matches_classifier_total(self):
        counts = classify_lines(self.SAMPLE)
        assert sum(counts.values()) == count_loc(self.SAMPLE)


class TestModuleDump:
    def test_dump_contains_globals_and_blocks(self, fig4_module):
        text = fig4_module.dump()
        assert "@cms: managed u32[3][65536]" in text
        assert "_kernel(1) _at(1) query" in text
        assert "entry:" in text

    def test_dump_roundtrips_through_passes(self, fig4_module):
        from repro.passes import PassManager, PassOptions

        PassManager(PassOptions()).run_pipeline(fig4_module)
        text = fig4_module.dump()
        assert "cms.part0" in text  # partitioned globals visible


class TestVerifierDiagnostics:
    def test_phi_predecessor_mismatch_detected(self):
        from repro.ir import IRBuilder, U32
        from repro.ir.instructions import ActionKind, Constant, Phi
        from repro.ir.module import Argument, Function, FunctionKind

        fn = Function("f", FunctionKind.KERNEL, [Argument("x", U32)], computation=1)
        b = IRBuilder(fn)
        entry = fn.new_block("entry")
        nxt = fn.new_block("next")
        b.position_at_end(entry)
        b.jmp(nxt)
        b.position_at_end(nxt)
        phi = nxt.insert(0, Phi(U32))
        phi.add_incoming(Constant(U32, 1), nxt)  # wrong block
        b.ret_action(ActionKind.PASS)
        with pytest.raises(IRVerifyError, match="does not match predecessors"):
            verify_function(fn)


class TestNetsimStats:
    def test_switch_and_network_counters(self):
        from repro.netsim import DEVICE, HOST, Network
        from repro.runtime import KernelSpec, Message, NetCLDevice

        cp = compile_netcl(MINI_KERNEL, 1, program_name="mini")
        dev = NetCLDevice(1, cp.module, cp.kernels())
        net = Network()
        h = net.add_host(1)
        net.add_host(2)
        net.add_switch(dev)
        net.link(HOST(1), DEVICE(1))
        net.link(HOST(2), DEVICE(1))
        spec = KernelSpec.from_kernel(cp.kernels()[0])
        for i in range(5):
            h.send_message(Message(src=1, dst=2, comp=1, to=1), spec, [i, 1, None])
        net.sim.run()
        assert dev.packets_seen == 5 and dev.packets_computed == 5
        assert net.sim.events_processed > 10
        assert net.sim.pending == 0


class TestCliDumpIr:
    def test_dump_ir_flag(self, tmp_path, capsys):
        from repro.core.cli import main

        src = tmp_path / "p.ncl"
        src.write_text(MINI_KERNEL)
        rc = main([str(src), "--dump-ir", "-o", str(tmp_path / "o.p4")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counter" in out and "atomic" in out
