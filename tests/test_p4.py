"""The P4-16 subset frontend, interpreter, resources, and LoC tools."""

import pytest

from repro.apps import P4_SOURCES, p4_source
from repro.p4 import (
    P4Interpreter,
    P4NetCLSwitchDevice,
    P4RuntimeError,
    classify_lines,
    count_loc,
    LineCategory,
    parse_p4,
    p4_to_pipeline_spec,
)
from repro.p4.loc import breakdown_fractions
from repro.p4.parser import P4ParseError
from repro.runtime.message import NetCLPacket

MINI = """
const bit<16> PORT = 9000;

header simple_t {
    bit<8>  op;
    bit<16> value;
}

struct headers_t {
    simple_t simple;
}

struct metadata_t {
    bit<16> out;
    bit<8>  kind;
}

parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start {
        pkt.extract(hdr.simple);
        transition accept;
    }
}

control C(inout headers_t hdr, inout metadata_t md) {
    Register<bit<16>, bit<32>>(16) counters;
    RegisterAction<bit<16>, bit<32>, bit<16>>(counters) count_inc = {
        void apply(inout bit<16> value, out bit<16> rv) {
            value = value + 1;
            rv = value;
        }
    };
    Hash<bit<16>>(HashAlgorithm_t.CRC16) h;

    action double_it() { hdr.simple.value = hdr.simple.value + hdr.simple.value; }
    action set_kind(bit<8> k) { md.kind = k; }
    table classify {
        key = { hdr.simple.op : exact; }
        actions = { double_it; set_kind; NoAction; }
        default_action = NoAction();
        entries = {
            1 : double_it();
            2 : set_kind(9);
        }
        size = 8;
    }

    apply {
        classify.apply();
        if (hdr.simple.op == 3) {
            md.out = count_inc.execute(0);
        }
        if (hdr.simple.op == 4) {
            md.out = h.get({hdr.simple.value});
        }
    }
}

control D(packet_out pkt, inout headers_t hdr) {
    apply {
        pkt.emit(hdr.simple);
    }
}
"""


def run_mini(interp, op, value):
    data = bytes([op]) + value.to_bytes(2, "big")
    return interp.run_packet(data, parser="P", ingress="C", deparser="D")


class TestP4Parser:
    def test_parses_declarations(self):
        prog = parse_p4(MINI)
        assert "simple_t" in prog.headers
        assert prog.headers["simple_t"].bit_width == 24
        assert "C" in prog.controls and "P" in prog.parsers
        ctrl = prog.controls["C"]
        assert "classify" in ctrl.tables and "count_inc" in ctrl.register_actions
        assert ctrl.tables["classify"].entries[0].action == "double_it"

    def test_const_resolution(self):
        prog = parse_p4("const bit<16> A = 4; const bit<16> B = A * 2;")
        assert prog.constants["B"] == 8

    def test_nested_template_close(self):
        prog = parse_p4(
            "control C(inout bit<8> x) { Register<bit<32>, bit<32>>(4) r; apply { } }"
        )
        assert prog.controls["C"].registers["r"].size == 4

    def test_sized_literals(self):
        prog = parse_p4("const bit<16> X = 16w1234;")
        assert prog.constants["X"] == 1234

    def test_parse_error_has_line(self):
        with pytest.raises(P4ParseError):
            parse_p4("header h_t { bit<8> f } ")  # missing semicolon

    @pytest.mark.parametrize("literal", ["0x_", "0b_"])
    def test_malformed_literal_is_a_parse_error(self, literal):
        with pytest.raises(P4ParseError) as exc:
            parse_p4(f"\nconst bit<8> A = {literal};")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "decl",
        [
            "Register<bool, bit<32>>(4) r;",
            "Hash<bool>(HashAlgorithm_t.CRC32) h;",
            "Random<bool>() r;",
        ],
    )
    def test_extern_value_type_must_be_bits(self, decl):
        with pytest.raises(P4ParseError, match="bit<W>") as exc:
            parse_p4(f"control C(inout bit<8> x) {{\n  {decl}\n  apply {{ }}\n}}")
        assert exc.value.line == 2

    def test_named_extern_value_type_is_named_in_the_error(self):
        with pytest.raises(P4ParseError, match="found my_t$"):
            parse_p4("control C(inout bit<8> x) {\n  Register<my_t, bit<32>>(4) r;\n  apply { }\n}")

    def test_all_baselines_parse(self):
        for name in P4_SOURCES:
            prog = parse_p4(p4_source(name))
            assert prog.controls, name


class TestP4Interp:
    def setup_method(self):
        self.prog = parse_p4(MINI)
        self.interp = P4Interpreter(self.prog)

    def test_table_entry_action(self):
        hdr, md, out = run_mini(self.interp, 1, 21)
        assert hdr["simple"].fields["value"] == 42

    def test_action_data(self):
        hdr, md, _ = run_mini(self.interp, 2, 0)
        assert md["kind"] == 9

    def test_default_action_on_miss(self):
        hdr, md, _ = run_mini(self.interp, 99, 5)
        assert hdr["simple"].fields["value"] == 5

    def test_register_action_persists(self):
        for expected in (1, 2, 3):
            _, md, _ = run_mini(self.interp, 3, 0)
            assert md["out"] == expected

    def test_register_wraps_at_width(self):
        self.interp.register_write("counters", 0, 0xFFFF)
        _, md, _ = run_mini(self.interp, 3, 0)
        assert md["out"] == 0

    def test_hash_extern(self):
        from repro import hashing

        _, md, _ = run_mini(self.interp, 4, 7)
        assert md["out"] == hashing.truncate(hashing.crc16(7, 16), 16)

    def test_deparse_roundtrip(self):
        _, _, out = run_mini(self.interp, 1, 21)
        assert out == bytes([1]) + (42).to_bytes(2, "big")

    def test_runtime_entry_insert_and_remove(self):
        self.interp.insert_entry("classify", [7], "set_kind", [3])
        _, md, _ = run_mini(self.interp, 7, 0)
        assert md["kind"] == 3
        assert self.interp.remove_entry("classify", [7])
        _, md, _ = run_mini(self.interp, 7, 0)
        assert md["kind"] == 0

    @pytest.mark.parametrize("keys, action, args, message", [
        ([7], "vanish", [], "table classify: control C declares no action vanish"),
        ([7, 8], "set_kind", [3], "table classify: 2 keys given, the table matches 1"),
        ([], "NoAction", [], "table classify: 0 keys given, the table matches 1"),
        ([7], "set_kind", [], "table classify: action set_kind takes 1 arguments, 0 given"),
    ])
    def test_insert_entry_rejects_what_could_never_run(self, keys, action, args, message):
        before = list(self.interp.tables["classify"].entries)
        with pytest.raises(P4RuntimeError) as error:
            self.interp.insert_entry("classify", keys, action, args)
        assert str(error.value) == message
        assert self.interp.tables["classify"].entries == before

    def test_insert_entry_accepts_noaction_and_spare_arguments(self):
        self.interp.insert_entry("classify", [7], "NoAction", [])
        self.interp.insert_entry("classify", [8], "set_kind", [4, 99])
        assert run_mini(self.interp, 8, 0)[1]["kind"] == 4

    @pytest.mark.parametrize("index", [-1, 16, 1 << 40])
    def test_register_access_outside_the_array_is_named(self, index):
        # a negative index used to reach the *end* of the numpy array
        message = f"register counters: index {index} out of range \\[0,16\\)"
        with pytest.raises(P4RuntimeError, match=message):
            self.interp.register_write("counters", index, 1)
        with pytest.raises(P4RuntimeError, match=message):
            self.interp.register_read("counters", index)
        assert not any(self.interp.registers["counters"])

    def test_short_packet_rejected(self):
        with pytest.raises(P4RuntimeError, match="too short"):
            self.interp.run_packet(b"\x01", parser="P", ingress="C")


class TestBaselineBehavior:
    """Cross-check handwritten P4 against the NetCL kernels."""

    def test_calc_matches_netcl(self):
        prog = parse_p4(p4_source("calc"))
        dev = P4NetCLSwitchDevice(prog, 1)
        for op, a, b, expected in (("+", 40, 2, 42), ("-", 50, 8, 42), ("^", 0xF0, 0x0F, 0xFF)):
            data = bytes([ord(op)]) + a.to_bytes(4, "big") + b.to_bytes(4, "big") + bytes(4)
            pkt = NetCLPacket(src=1, dst=1, from_=0xFFFF, to=1, comp=1, act=0, data=data)
            dec = dev.process(pkt)
            assert dec.packet is not None
            assert int.from_bytes(dec.packet.data[9:13], "big") == expected
            assert dec.packet.act == 7  # reflect_long

    def test_agg_two_workers(self):
        prog = parse_p4(p4_source("agg"))
        dev = P4NetCLSwitchDevice(prog, 1)

        def mk(worker, vals):
            data = bytes([0]) + (5).to_bytes(2, "big") + (5).to_bytes(2, "big")
            data += (1 << worker).to_bytes(2, "big") + bytes([3])
            for v in vals:
                data += v.to_bytes(4, "big")
            return NetCLPacket(src=worker + 1, dst=worker + 1, from_=0xFFFF, to=1, comp=1, act=0, data=data)

        assert dev.process(mk(0, [1] * 32)).kind.value == "drop"
        d = dev.process(mk(1, [2] * 32))
        assert d.kind.value == "multicast"
        sums = [int.from_bytes(d.packet.data[8 + 4 * i : 12 + 4 * i], "big") for i in range(32)]
        assert sums == [3] * 32

    def test_cache_hit_and_invalidate(self):
        prog = parse_p4(p4_source("cache"))
        dev = P4NetCLSwitchDevice(prog, 1)
        dev.insert_entry("cache_index", [42], "index_set", [0xFFFF, 3])
        for i in range(16):
            dev.register_write(f"data_{i}", 3, 100 + i)
        dev.register_write("valid", 3, 1)

        def mk(op, key):
            data = bytes([op]) + key.to_bytes(8, "big") + bytes([0, 0]) + bytes(64)
            return NetCLPacket(src=1, dst=2, from_=0xFFFF, to=1, comp=1, act=0, data=data)

        d = dev.process(mk(1, 42))
        assert d.packet.act == 6 and d.target == 1  # reflect to client
        vals = [int.from_bytes(d.packet.data[11 + 4 * i : 15 + 4 * i], "big") for i in range(16)]
        assert vals == [100 + i for i in range(16)]
        dev.process(mk(2, 42))  # PUT invalidates
        d2 = dev.process(mk(1, 42))
        assert d2.packet.act == 0 and d2.target == 2  # pass to server


class TestResources:
    def test_all_baselines_fit_tofino(self):
        from repro.p4.resources import p4_local_bits
        from repro.tofino.report import build_report

        for name in P4_SOURCES:
            prog = parse_p4(p4_source(name))
            spec = p4_to_pipeline_spec(prog, name=name)
            report = build_report(spec, local_fields=[p4_local_bits(prog)])
            assert report.stages_used <= 12, name

    def test_handwritten_agg_uses_tcam(self):
        from repro.tofino.report import build_report

        prog = parse_p4(p4_source("agg"))
        report = build_report(p4_to_pipeline_spec(prog, name="agg"))
        assert report.tcam_pct > 0


class TestLoc:
    def test_count_skips_comments_and_blanks(self):
        src = "// c\n\nheader h_t { /* x */\n bit<8> f;\n}\n"
        assert count_loc(src) == 3

    def test_baseline_loc_magnitudes(self):
        # Paper Table III: handwritten P4 is O(100) lines per app.
        locs = {name: count_loc(p4_source(name)) for name in P4_SOURCES}
        assert locs["agg"] > 400
        assert locs["cache"] > 300
        assert all(v > 100 for v in locs.values()), locs

    def test_classifier_buckets(self):
        counts = classify_lines(p4_source("cache"))
        assert counts[LineCategory.HEADERS] > 10
        assert counts[LineCategory.PARSER] > 10
        assert counts[LineCategory.REGISTER] > 10
        assert counts[LineCategory.TABLES] > 5

    def test_packet_processing_share_dominates(self):
        # Fig. 12: most P4 code is packet processing + plumbing, roughly
        # half or more is non-compute.
        total_pp = 0.0
        for name in P4_SOURCES:
            frac = breakdown_fractions(classify_lines(p4_source(name)))
            total_pp += frac["packet_processing"] + frac["other"]
        avg_non_compute = total_pp / len(P4_SOURCES)
        assert avg_non_compute > 0.35
