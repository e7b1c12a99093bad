"""P4 interpreter details: slices, casts, select ranges, exit, masks."""

import pytest

from repro.p4 import P4Interpreter, parse_p4
from repro.p4.interp import P4RuntimeError

SRC = """
header w_t {
    bit<4>  nib_hi;
    bit<4>  nib_lo;
    bit<16> word;
}

struct headers_t { w_t w; }

struct metadata_t {
    bit<16> out;
    bit<8>  tag;
}

parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start {
        pkt.extract(hdr.w);
        transition select(hdr.w.word) {
            0 .. 99        : low;
            0xFF00 &&& 0xFF00 : masked;
            default        : accept;
        }
    }
    state low {
        transition accept;
    }
    state masked {
        transition accept;
    }
}

control C(inout headers_t hdr, inout metadata_t md) {
    apply {
        md.out = hdr.w.word[11:4];          // slice read
        hdr.w.word[3:0] = (bit<4>)md.tag;   // slice write + cast
        if (hdr.w.nib_hi == 0xF) {
            exit;
        }
        md.tag = 1;
    }
}

control D(packet_out pkt, inout headers_t hdr) {
    apply { pkt.emit(hdr.w); }
}
"""


@pytest.fixture
def interp():
    return P4Interpreter(parse_p4(SRC))


def _packet(hi, lo, word):
    return bytes([(hi << 4) | lo]) + word.to_bytes(2, "big")


class TestSubByteFields:
    def test_nibble_extraction(self, interp):
        hdr, md, _ = interp.run_packet(_packet(0xA, 0x5, 0), parser="P", ingress="C")
        assert hdr["w"].fields["nib_hi"] == 0xA
        assert hdr["w"].fields["nib_lo"] == 0x5

    def test_slice_read(self, interp):
        hdr, md, _ = interp.run_packet(_packet(0, 0, 0x0AB0), parser="P", ingress="C")
        assert md["out"] == 0xAB

    def test_slice_write_merges_bits(self, interp):
        hdr, md, _ = interp.run_packet(
            _packet(0, 0, 0xABC0), parser="P", ingress="C", metadata={"tag": 0xF}
        )
        assert hdr["w"].fields["word"] == 0xABCF

    def test_exit_stops_control(self, interp):
        hdr, md, _ = interp.run_packet(_packet(0xF, 0, 0), parser="P", ingress="C")
        assert md["tag"] == 0  # assignment after exit never ran
        hdr, md, _ = interp.run_packet(_packet(0x1, 0, 0), parser="P", ingress="C")
        assert md["tag"] == 1

    def test_deparse_repacks_nibbles(self, interp):
        _, _, out = interp.run_packet(
            _packet(0x3, 0x7, 0x1200), parser="P", ingress="C", deparser="D"
        )
        assert out[0] == 0x37


class TestSelectKeysets:
    def test_range_keyset(self, interp):
        # packets with word in 0..99 take the 'low' state and still accept
        interp.run_packet(_packet(0, 0, 50), parser="P", ingress="C")

    def test_masked_keyset(self, interp):
        interp.run_packet(_packet(0, 0, 0xFF42), parser="P", ingress="C")

    def test_unmatched_falls_to_default(self, interp):
        interp.run_packet(_packet(0, 0, 500), parser="P", ingress="C")


EDGES = """
header b_t { bit<8> n; }
header nib_t { bit<4> x; }
struct headers_t { b_t b; nib_t nib; }
struct metadata_t { bit<8> unused; }
parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start {
        pkt.extract(hdr.b);
        transition select(hdr.b.n) {
            0       : accept;
            1       : odd;
            default : skip;
        }
    }
    state odd  { pkt.extract(hdr.nib); transition accept; }
    state skip { pkt.advance((bit<32>)hdr.b.n); transition accept; }
}
control C(inout headers_t hdr, inout metadata_t md) { apply { } }
"""


class TestParserEdges:
    """One defined behaviour at the packet's end, for P4Engine to reproduce."""

    def run(self, data):
        return P4Interpreter(parse_p4(EDGES)).run_packet(
            data, parser="P", ingress="C", deparser=None
        )

    def test_advance_to_the_end_is_fine(self):
        self.run(bytes([16, 0xAA, 0xBB]))

    def test_advance_past_the_end_is_an_error_at_the_advance(self):
        # used to go unnoticed unless a later extract ran
        with pytest.raises(P4RuntimeError, match="packet too short during advance"):
            self.run(bytes([24, 0xAA, 0xBB]))

    def test_tail_that_is_not_byte_aligned_is_an_error(self):
        # used to round the cursor up and silently drop the half byte
        with pytest.raises(P4RuntimeError, match="payload not byte-aligned"):
            self.run(bytes([1, 0xAB, 0xCD]))
        with pytest.raises(P4RuntimeError, match="payload not byte-aligned"):
            self.run(bytes([12, 0xAB, 0xCD]))


class TestErrorPaths:
    def test_unknown_parser_state(self):
        bad = SRC.replace("transition accept;\n    }\n    state masked", "transition missing;\n    }\n    state masked", 1)
        interp = P4Interpreter(parse_p4(bad))
        with pytest.raises(P4RuntimeError, match="undefined parser state"):
            interp.run_packet(_packet(0, 0, 50), parser="P", ingress="C")

    def test_register_index_out_of_range(self):
        src = """
struct headers_t { }
struct metadata_t { bit<8> x; }
control C(inout metadata_t md) {
    Register<bit<8>, bit<32>>(4) r;
    RegisterAction<bit<8>, bit<32>, bit<8>>(r) bump = {
        void apply(inout bit<8> value) { value = value + 1; }
    };
    apply { bump.execute(99); }
}
"""
        interp = P4Interpreter(parse_p4(src))

        with pytest.raises(P4RuntimeError, match="out of range"):
            interp._run_control(interp.program.controls["C"], {}, {"x": 0})

    def test_unknown_table(self, interp):
        from repro.p4.interp import _Env

        env = _Env(interp, {}, {}, {}, None, interp.program.controls["C"])
        with pytest.raises(P4RuntimeError, match="unknown table"):
            interp.apply_table("missing", env)
