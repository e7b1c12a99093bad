"""P4Engine (generated Python) against P4Interpreter (the oracle).

Both are driven with the same packet sequences and control-plane calls;
everything observable must be identical: header validity and fields,
metadata, output bytes, every register, every table, the rng — and, when
a packet fails, the exception's type and text with the same state left
behind.
"""

import random
import struct
import traceback

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import P4_SOURCES, p4_source
from repro.p4 import P4Engine, P4Interpreter, P4NetCLSwitchDevice, ast, parse_p4
from repro.p4 import compiled
from repro.p4.switch import _encapsulation
from repro.runtime.message import NetCLPacket
from tests.test_p4 import MINI
from tests.test_p4_details import SRC

TNA = dict(parser="IngressParser", ingress="Ingress", deparser="IngressDeparser")


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def state_of(interp: P4Interpreter):
    return (
        {name: mem.tobytes() for name, mem in interp.registers.items()},
        {name: [(e.keys, e.action, e.args) for e in t.entries] for name, t in interp.tables.items()},
        interp.rng.getstate(),
    )


def outcome(call):
    try:
        return "ok", call()
    except Exception as error:  # compared, not swallowed
        return type(error).__name__, str(error)


def packet_outcome(interp, data, names, metadata=None):
    kind, result = outcome(lambda: interp.run_packet(data, metadata=metadata, **names))
    if kind == "ok":
        hdr, md, out = result
        result = ({n: (h.valid, h.fields) for n, h in hdr.items()}, md, out)
    return kind, result


class Pair:
    """An oracle and an engine over one program, kept in lock step."""

    def __init__(self, program: ast.Program, seed: int = 0, **names):
        self.names = names
        self.oracle = P4Interpreter(program, seed=seed)
        self.engine = P4Engine(program, seed=seed)

    def packet(self, data: bytes, metadata=None):
        want = packet_outcome(self.oracle, data, self.names, metadata)
        got = packet_outcome(self.engine, data, self.names, metadata)
        assert got == want, (data.hex(), metadata)
        assert state_of(self.engine) == state_of(self.oracle)
        return want

    def control(self, method: str, *args):
        want = outcome(lambda: getattr(self.oracle, method)(*args))
        got = outcome(lambda: getattr(self.engine, method)(*args))
        assert got == want, (method, args)
        assert state_of(self.engine) == state_of(self.oracle)
        return want


def source_pair(source: str, seed: int = 0, **names) -> Pair:
    return Pair(parse_p4(source), seed, **names)


# ---------------------------------------------------------------------------
# the six shipped programs
# ---------------------------------------------------------------------------

def app_header(program: ast.Program) -> ast.HeaderDecl:
    return list(program.headers.values())[-1]


def random_field(rng: random.Random, width: int) -> int:
    """Small values drive the protocol state machines, wide ones the masks."""
    pick = rng.randrange(6)
    if pick < 3:
        return rng.randrange(4) & ((1 << width) - 1)
    if pick == 3:
        return (1 << rng.randrange(width)) & ((1 << width) - 1)
    if pick == 4:
        return (1 << width) - 1
    return rng.getrandbits(width)


def netcl_bytes(rng: random.Random, program: ast.Program) -> bytes:
    header = app_header(program)
    value, bits = 0, 0
    for ty, _ in header.fields:
        value = (value << ty.width) | random_field(rng, ty.width)
        bits += ty.width
    data = value.to_bytes(bits // 8, "big") + rng.randbytes(rng.choice([0, 0, 3]))
    pkt = NetCLPacket(
        src=rng.randrange(1, 5), dst=rng.randrange(1, 5), from_=0xFFFF,
        to=rng.choice([1, 1, 1, 2, 0xFFFF]), comp=rng.choice([1, 1, 1, 0, 2]),
        act=0, data=data,
    )
    wire = pkt.to_wire()
    return _encapsulation(len(wire)) + wire


def traffic(rng: random.Random, program: ast.Program) -> bytes:
    pick = rng.randrange(10)
    raw = netcl_bytes(rng, program)
    if pick == 0:
        return raw[: rng.randrange(len(raw))]  # truncated anywhere
    if pick == 1:
        return rng.randbytes(rng.randrange(80))
    if pick == 2:  # valid Ethernet, not IPv4: the base program's dmac path
        return raw[:12] + b"\x86\xdd" + raw[14:]
    return raw


def control_plane(rng: random.Random, pair: Pair) -> None:
    oracle = pair.oracle
    pick = rng.randrange(4)
    if pick == 0 and oracle.registers:
        name = rng.choice(sorted(oracle.registers))
        size = oracle.register_decls[name].size
        pair.control("register_write", name, rng.choice([0, 1, size - 1, size, -1]),
                     rng.getrandbits(40))
        pair.control("register_read", name, rng.randrange(size))
        return
    name = rng.choice(sorted(oracle.tables))
    table = oracle.tables[name]
    keys = [rng.randrange(4) for _ in table.decl.keys]
    if pick == 1:
        pair.control("remove_entry", name, keys)
        return
    action = rng.choice(sorted(table.control.actions) + ["NoAction", "missing"])
    params = table.control.actions[action].params if action in table.control.actions else []
    args = [rng.getrandbits(40) for _ in range(len(params) + rng.choice([0, 0, 1, -1]))]
    pair.control("insert_entry", name, keys if pick == 2 else keys + [0], action, args)


@pytest.mark.parametrize("name", sorted(P4_SOURCES))
@pytest.mark.parametrize("seed", [1, 2])
def test_shipped_program_sequences_agree(name, seed):
    program = parse_p4(p4_source(name))
    pair = Pair(program, seed, **TNA)
    rng = random.Random(f"{name}/{seed}")
    kinds = set()
    for _ in range(400):
        if rng.randrange(8) == 0:
            control_plane(rng, pair)
        kinds.add(pair.packet(traffic(rng, program))[0])
    assert kinds == {"ok", "P4RuntimeError"}  # both clean and failing packets ran
    assert pair.engine.interpreted == 0


@pytest.mark.parametrize("name", sorted(P4_SOURCES))
def test_no_shipped_program_falls_back(name):
    program = parse_p4(p4_source(name))
    device = P4NetCLSwitchDevice(program, 1)
    code = device.interp.packet_code(**TNA)
    assert isinstance(code, compiled.PacketCode), code
    device.process(NetCLPacket(src=1, dst=1, from_=0xFFFF, to=2, comp=0, act=0, data=b""))
    assert device.interp.interpreted == 0


# ---------------------------------------------------------------------------
# the programs of tests/test_p4.py and tests/test_p4_details.py
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("deparser", ["D", None])
def test_mini_sequences_agree(deparser):
    pair = source_pair(MINI, parser="P", ingress="C", deparser=deparser)
    rng = random.Random(5)
    for _ in range(300):
        if rng.randrange(6) == 0:
            control_plane(rng, pair)
        op, value = rng.randrange(9), random_field(rng, 16)
        pair.packet((bytes([op]) + value.to_bytes(2, "big") + rng.randbytes(2))[: rng.randrange(1, 6)])
    assert pair.engine.interpreted == 0


def test_details_program_agrees_with_and_without_metadata():
    pair = source_pair(SRC, parser="P", ingress="C", deparser="D")
    rng = random.Random(6)
    for _ in range(300):
        data = bytes([rng.getrandbits(8)]) + random_field(rng, 16).to_bytes(2, "big")
        metadata = rng.choice([None, {}, {"tag": rng.getrandbits(8)}, {"out": 7, "tag": 0xF}])
        pair.packet(data[: rng.choice([3, 3, 3, 2])] + rng.randbytes(rng.randrange(3)), metadata)
    assert pair.engine.interpreted == 0


# ---------------------------------------------------------------------------
# expressions, property-tested
# ---------------------------------------------------------------------------

WIDTHS = st.sampled_from([1, 2, 7, 8, 9, 16, 31, 32, 33, 48, 63, 64])
ARITHMETIC = ["+", "-", "*", "&", "|", "^", "<<", ">>", "|+|", "|-|", "/", "%"]
LOGICAL = ["==", "!=", "<", "<=", ">", ">=", "&&", "||"]


def literals():
    small = st.sampled_from([0, 1, 2, 3, 7, 63, 64, 65, 255, 256, (1 << 32) - 1, 1 << 32, (1 << 64) - 1])
    # negative: what `const bit<8> X = -3;` puts into an expression
    value = st.one_of(small, st.integers(0, (1 << 64) - 1), st.integers(-300, -1))
    return st.builds(ast.Num, value, st.one_of(st.none(), st.just(0), WIDTHS))


def expressions(fields):
    leaves = st.one_of(
        literals(),
        st.sampled_from(fields).map(lambda f: ast.Path(("md", f))),
    )

    def extend(inner):
        return st.one_of(
            st.builds(ast.Binary, st.sampled_from(ARITHMETIC + LOGICAL), inner, inner),
            st.builds(ast.Unary, st.sampled_from(["!", "~", "-"]), inner),
            st.builds(lambda base, lo, n: ast.Slice(base, lo + n, lo), inner,
                      st.integers(0, 66), st.integers(0, 66)),
            st.builds(ast.CastExpr, st.one_of(WIDTHS.map(ast.BitType), st.just(ast.BoolType())), inner),
            st.builds(ast.Ternary, inner, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def expression_program(widths, expr):
    """``md.out = expr; if (expr) md.flag = 1;`` over metadata of ``widths``."""
    fields = [(ast.BitType(w), f"f{i}") for i, w in enumerate(widths)]
    fields += [(ast.BitType(64), "out"), (ast.BitType(1), "flag")]
    ctrl = ast.ControlDecl(
        "C", [], {}, {}, {}, {}, {}, {}, [],
        [
            ast.Assign(ast.Path(("md", "out")), expr),
            ast.If(expr, [ast.Assign(ast.Path(("md", "flag")), ast.Num(1))]),
        ],
    )
    return ast.Program(
        {}, {}, {}, {"metadata_t": ast.StructDecl("metadata_t", fields)},
        {"P": ast.ParserDecl("P", [], {"start": ast.ParserState("start", [], "accept")})},
        {"C": ctrl},
    )


@st.composite
def expression_cases(draw):
    widths = draw(st.lists(WIDTHS, min_size=1, max_size=3))
    expr = draw(expressions([f"f{i}" for i in range(len(widths))]))
    values = [
        draw(st.one_of(st.sampled_from([0, 1, (1 << w) - 1, 1 << (w - 1)]), st.integers(0, (1 << w) - 1)))
        for w in widths
    ]
    return widths, expr, values


@settings(max_examples=400, deadline=None)
@given(expression_cases())
def test_expressions_agree(case):
    widths, expr, values = case
    pair = Pair(expression_program(widths, expr), parser="P", ingress="C")
    pair.packet(b"", {f"f{i}": v for i, v in enumerate(values)})
    reason = pair.engine.packet_code(parser="P", ingress="C")
    if pair.engine.interpreted:
        # the two expression shapes that stay behind
        assert "ternary" in reason or "negative" in reason


def test_fixed_width_expressions_never_fall_back():
    md = lambda f: ast.Path(("md", f))  # noqa: E731
    shapes = [
        ast.Binary(op, md("f0"), md("f1")) for op in ARITHMETIC + LOGICAL
    ] + [
        ast.Binary(op, ast.Num(5), md("f1")) for op in ARITHMETIC
    ] + [
        ast.Binary("<<", md("f0"), ast.Num(200)),
        ast.Binary("/", md("f0"), ast.Num(0, 8)),
        ast.Binary("%", ast.Num(9, 0), ast.Num(0, 0)),
        ast.Ternary(md("f0"), md("f1"), ast.Num(3)),  # mixed widths, width unused
        ast.Binary("+", md("f0"), ast.Ternary(md("f1"), ast.Num(1, 8), ast.Num(2))),
        ast.Unary("~", ast.Ternary(md("f0"), ast.Num(1, 8), ast.Num(2, 8))),
    ]
    for expr in shapes:
        pair = Pair(expression_program([8, 13], expr), parser="P", ingress="C")
        for values in ((0, 0), (255, 8191), (3, 2), (200, 100)):
            pair.packet(b"", {"f0": values[0], "f1": values[1]})
        assert pair.engine.interpreted == 0, expr


# ---------------------------------------------------------------------------
# scoping, evaluation order, externs
# ---------------------------------------------------------------------------

SCOPES = """
header h_t { bit<8> op; bit<8> a; bit<8> b; }
struct headers_t { h_t h; }
struct metadata_t { bit<16> out; bit<16> aux; bit<8> flag; bool hit; }

parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start { pkt.extract(hdr.h); transition accept; }
}

control C(inout headers_t hdr, inout metadata_t md) {
    Register<bit<8>, bit<32>>(8) r8;
    Register<bit<12>, bit<32>>(8) r12;
    Random<bit<16>>() rnd;
    Hash<bit<16>>(HashAlgorithm_t.CRC32) h32;
    bit<8> top = 7;

    RegisterAction<bit<8>, bit<32>, bit<8>>(r8) bump = {
        void apply(inout bit<8> value, out bit<8> rv) {
            rv = value;
            value = value + hdr.h.a;
            hdr.h.a = hdr.h.a + 1;      // the body's header write is seen outside
            top = 99;                   // ... its write to an outer local is not
        }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(r8) leave = {
        void apply(inout bit<8> value) {
            value = 200;
            if (hdr.h.b == 1) { exit; } // nothing is written back
        }
    };
    RegisterAction<bit<12>, bit<32>, bit<12>>(r12) wide = {
        void apply(inout bit<12> value) {
            bit<8> top = 1;             // shadows the control's local inside only
            value = value + 0xFFE + (bit<12>)top;
        }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(r8) by_index = {
        void apply(inout bit<8> value) {
            md.aux = md.aux + 1;        // the index expression was read before
            value = value + 1;
        }
    };

    action helper(bit<8> top, bit<16> out) {
        bit<8> leaked = top + 1;        // stays declared after the action
        md.out = out + (bit<16>)leaked;
    }
    action quit() { md.flag = 9; exit; }
    action set_aux(bit<16> v) { md.aux = v; }
    table t {
        key = { hdr.h.a : exact; hdr.h.b : ternary; }
        actions = { helper; set_aux; NoAction; }
        default_action = set_aux(77);
        entries = {
            (1, 0 &&& 1) : helper(5, 6);
            (2, 3 .. 9)  : set_aux(1);
            (3, _)       : quit();
            (4, 4)       : undeclared();
        }
        size = 16;
    }

    apply {
        if (hdr.h.op == 0) {
            md.out = (bit<16>)hdr.h.a + (bit<16>)bump.execute((bit<32>)hdr.h.b);
            md.aux = (bit<16>)top;
        } else if (hdr.h.op == 1) {
            leave.execute(2);
            md.flag = 1;
        } else if (hdr.h.op == 2) {
            wide.execute((bit<32>)hdr.h.a);
            md.out = (bit<16>)top;
        } else if (hdr.h.op == 3) {
            helper(hdr.h.a, 1000);
            md.aux = (bit<16>)leaked + (bit<16>)top;
        } else if (hdr.h.op == 4) {
            if (t.apply().hit) { md.hit = true; }
            if (t.apply().miss) { md.flag = md.flag + 2; }
        } else if (hdr.h.op == 5) {
            md.out = rnd.get() ^ rnd.get();
            md.aux = h32.get({hdr.h.a, md.out, 8w3});
        } else if (hdr.h.op == 6) {
            if (hdr.h.a == 200 && bump.execute(1) == 0) { md.flag = 4; }
            md.out = (hdr.h.b != 0) ? (bit<16>)bump.execute(3) : 16w5;
        } else if (hdr.h.op == 7) {
            md.aux = (bit<16>)hdr.h.a;
            by_index.execute((bit<32>)md.aux);
        } else if (hdr.h.op == 8) {
            hdr.h.setInvalid();
            if (!hdr.h.isValid()) { md.flag = (bit<8>)hdr.h.isValid() + 3; }
        } else {
            bit<4> nib = hdr.h.a[7:4];
            hdr.h.b[5:2] = nib;
            top[0:0] = 0;
            md.out = (bit<16>)top;
        }
    }
}

control D(packet_out pkt, inout headers_t hdr) {
    apply { pkt.emit(hdr.h); }
}
"""


def test_scoping_order_and_externs_agree():
    pair = source_pair(SCOPES, seed=11, parser="P", ingress="C", deparser="D")
    code = pair.engine.packet_code(parser="P", ingress="C", deparser="D")
    assert isinstance(code, compiled.PacketCode), code
    rng = random.Random(9)
    for op in list(range(10)) * 40:
        pair.packet(bytes([op, random_field(rng, 8), random_field(rng, 8)]) + rng.randbytes(1))
    assert pair.engine.interpreted == 0
    # the traffic above reached the interesting corners
    assert pair.oracle.register_read("r12", 1) != 0


def test_particular_scoping_results():
    """The values themselves, so a shared misreading cannot hide."""
    engine = P4Engine(parse_p4(SCOPES))
    run = lambda *b: engine.run_packet(bytes(b), parser="P", ingress="C", deparser="D")  # noqa: E731
    hdr, md, out = run(0, 10, 2)
    assert (md["out"], md["aux"], hdr["h"].fields["a"]) == (10, 7, 11)  # a read before bump ran
    assert engine.register_read("r8", 2) == 10
    _, md, _ = run(1, 0, 1)
    assert md["flag"] == 0 and engine.register_read("r8", 2) == 10  # exit: no write-back
    _, md, _ = run(1, 0, 0)
    assert md["flag"] == 1 and engine.register_read("r8", 2) == 200
    _, md, _ = run(3, 4, 0)
    assert (md["out"], md["aux"]) == (1005, 5 + 7)  # parameter top restored to the local 7
    _, md, _ = run(4, 3, 0)
    assert (md["flag"], md["hit"]) == (9, 0)  # quit() left the control before md.hit
    with pytest.raises(compiled.P4RuntimeError, match="unknown action undeclared"):
        run(4, 4, 4)
    assert engine.interpreted == 0


def test_random_stream_repeats_after_reset():
    program = parse_p4(SCOPES)
    names = dict(parser="P", ingress="C")
    draw = lambda interp: [interp.run_packet(bytes([5, 1, 1]), **names)[1]["out"] for _ in range(8)]  # noqa: E731
    want = draw(P4Interpreter(program, seed=3))
    assert len(set(want)) > 1
    assert draw(P4Engine(program, seed=3)) == want
    assert draw(P4Engine(program, seed=3)) == want  # what reset_state() builds
    assert draw(P4Engine(program, seed=4)) != want


# ---------------------------------------------------------------------------
# errors: same type, same text, same state
# ---------------------------------------------------------------------------

PARSERS = """
header a_t { bit<8> kind; bit<4> x; }
header b_t { bit<4> y; bit<8> n; }
struct headers_t { a_t a; b_t b; }
struct metadata_t { bit<8> seen; }

parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start {
        pkt.extract(hdr.a);
        md.seen = md.seen + 1;
        transition select(hdr.a.kind, hdr.a.x) {
            0, _               : accept;           // 12 bits in: not byte-aligned
            1, 0 .. 7          : tail;
            2, _               : start;            // again, for ever or until short
            3, 8 &&& 8         : missing;
            4, _               : skip;
            5, _               : reject;
            6, 1               : stop;
        }
    }
    state tail { pkt.extract(hdr.b); transition accept; }
    state skip { pkt.advance((bit<32>)hdr.a.x * 8 + 4); transition accept; }
    state stop { exit; }
}

control C(inout headers_t hdr, inout metadata_t md) {
    Register<bit<8>, bit<32>>(4) r;
    RegisterAction<bit<8>, bit<32>, bit<8>>(r) bump = {
        void apply(inout bit<8> value) { value = value + 1; }
    };
    apply {
        bump.execute(0);
        bump.execute((bit<32>)hdr.b.n);
        bump.execute(1);
    }
}

control D(packet_out pkt, inout headers_t hdr) {
    apply { pkt.emit(hdr.b); pkt.emit(hdr.a); }
}
"""


def test_parser_and_register_errors_agree():
    pair = source_pair(PARSERS, parser="P", ingress="C", deparser="D")
    expected = {
        b"\x00\x00": "payload not byte-aligned",
        b"\x01\x01\x02": "ok",
        b"\x01\x01\x07": "register r: index 7 out of range [0,4)",  # after r[0] was bumped
        b"\x01\x80\x00": "parser rejected packet",
        b"\x02\x00\x20\x00": "packet too short during extract",
        b"\x03\x80": "undefined parser state missing",
        b"\x04\x20\x00\x00": "ok",
        b"\x04\x30\x00\x00": "packet too short during advance",
        b"\x05\x00": "parser rejected packet",
        b"\x06\x10": "",  # exit in a parser state escapes as the interpreter's own signal
        b"\x01": "packet too short during extract",
        b"": "packet too short during extract",
    }
    for data, text in expected.items():
        kind, result = pair.packet(data)
        assert (kind if kind == "ok" else result) == text, data
    assert pair.packet(b"\x02\x00\x20" * 600)[1] == "parser did not terminate"
    assert pair.engine.interpreted == 0
    assert pair.engine.register_read("r", 0) == 4


def test_traceback_shows_the_generated_line():
    engine = P4Engine(parse_p4(PARSERS))
    try:
        engine.run_packet(b"\x01\x01\x07", parser="P", ingress="C")
    except compiled.P4RuntimeError:
        text = traceback.format_exc()
    assert "<p4 P/C/None>" in text
    assert "raise E('register r: index %d out of range [0,4)' %" in text


# ---------------------------------------------------------------------------
# code is generated once per program; engines only bind
# ---------------------------------------------------------------------------

def test_engines_share_code_not_state(monkeypatch):
    calls = []
    real = compiled.generate
    monkeypatch.setattr(compiled, "generate", lambda *a: calls.append(a) or real(*a))
    program = parse_p4(p4_source("agg"))
    first, second = P4NetCLSwitchDevice(program, 1), P4NetCLSwitchDevice(program, 1, seed=1)
    packet = NetCLPacket(src=1, dst=1, from_=0xFFFF, to=2, comp=0, act=0, data=b"")
    for device in (first, second, first):
        device.process(packet)
    first.register_write("count", 3, 9)
    before = first.interp
    first.reset_state()
    first.process(packet)
    assert len(calls) == 1
    assert first.interp is not before and first.interp.packet_code(**TNA) is second.interp.packet_code(**TNA)
    assert first.interp.register_read("count", 3) == 0 and second.interp.register_read("count", 3) == 0
    assert before.register_read("count", 3) == 9
    assert first.interp.interpreted == second.interp.interpreted == 0


# ---------------------------------------------------------------------------
# every reason to stay on the interpreter
# ---------------------------------------------------------------------------

def variant(old: str, new: str, base: str = SCOPES) -> str:
    assert old in base
    return base.replace(old, new, 1)


APPLY = "        if (hdr.h.op == 0) {"
FALLBACKS = {
    "scope of late depends on the path": variant(
        APPLY, "        if (hdr.h.a == 1) { bit<8> late = 1; }\n        md.flag = late;\n" + APPLY),
    "scope of top depends on the path": variant(
        APPLY, "        if (hdr.h.a == 1) { bit<16> top = 1; }\n        md.flag = (bit<8>)top;\n" + APPLY),
    "width depends on a ternary": variant(
        "md.out = (hdr.h.b != 0) ?", "md.out = 1 + ((hdr.h.b != 0) ? 8w1 : 1) + (hdr.h.b != 0) ?"),
    "would create metadata field fresh": variant(APPLY, "        md.fresh = 1;\n" + APPLY),
    "declared in a parser state": variant("pkt.extract(hdr.h);", "pkt.extract(hdr.h); bit<8> x = 1;"),
    "applied outside a control's own statements": variant("top = 99; ", "t.apply(); "),
    "called inside a RegisterAction": variant("top = 99; ", "set_aux(1); "),
    "action again is recursive": variant(
        "action quit()", "action again() { again(); }\n    action quit()"),
    "fewer arguments than parameters": variant("helper(5, 6);", "helper(5);"),
    "unknown name nowhere": variant(APPLY, "        md.flag = nowhere;\n" + APPLY),
    "cannot read hdr.h.nofield": variant(APPLY, "        md.flag = hdr.h.nofield;\n" + APPLY),
    "unknown header hdr.ghost": variant(APPLY, "        hdr.ghost.setValid();\n" + APPLY),
    "unknown table ghost": variant(APPLY, "        ghost.apply();\n" + APPLY),
    "unknown direct call ghost": variant(APPLY, "        ghost(1);\n" + APPLY),
    "unsupported method rnd.execute": variant(APPLY, "        rnd.execute(1);\n" + APPLY),
    "unsupported apply() member other": variant("t.apply().miss", "t.apply().other"),
    "extract() the interpreter rejects": variant(APPLY, "        pkt.extract(hdr.h);\n" + APPLY),
    "hash h32 the interpreter rejects": variant("HashAlgorithm_t.CRC32", "HashAlgorithm_t.MD5"),
    "negative shift count": "const bit<8> NEG = -2;\n" + variant(
        "bit<8> top = 7;", "bit<8> top = 7 + (hdr.h.a == 0 ? 1 : NEG);"),
    "advance() by a negative amount": "const bit<8> BACK = -8;\n" + variant(
        "pkt.extract(hdr.h);", "pkt.extract(hdr.h); pkt.advance(BACK);"),
    "slice with hi < lo": variant(APPLY, "        md.flag = hdr.h.a[2:5];\n" + APPLY),
    "declares a twice": variant("bit<8> op; bit<8> a;", "bit<8> a; bit<8> a;"),
    "has a field that is not bit<W>": variant("bit<8> op; bit<8> a;", "bit<8> op; bool odd; bit<8> a;"),
    "slice assignment the interpreter rejects": variant(APPLY, "        hdr.h.b[2:5] = 1;\n" + APPLY),
    "operand width depends on a ternary": variant(
        APPLY, "        md.out = ~((hdr.h.a == 0) ? 8w1 : 1);\n" + APPLY),
    "width depends on a ternary's path": variant(
        "h32.get({hdr.h.a, md.out, 8w3})", "h32.get((hdr.h.a == 0) ? 8w1 : 1)"),
    "unknown action ghost": variant("default_action = set_aux(77);", "default_action = ghost();"),
    "RegisterAction bump the interpreter rejects": variant("(r8) bump", "(nowhere) bump"),
}


@pytest.mark.parametrize("reason", sorted(FALLBACKS))
def test_fallback_is_counted_and_exact(reason):
    pair = source_pair(FALLBACKS[reason], seed=2, parser="P", ingress="C", deparser="D")
    code = pair.engine.packet_code(parser="P", ingress="C", deparser="D")
    assert isinstance(code, str) and reason in code, code
    rng = random.Random(4)
    for n in range(1, 41):
        pair.packet(bytes([rng.randrange(10), rng.randrange(5), rng.randrange(5)]))
        assert pair.engine.interpreted == n


def edited(edit) -> ast.Program:
    program = parse_p4(SCOPES)
    edit(program, program.controls["C"])
    return program


HAND_BUILT = {
    "unsupported operator **": lambda p, c: c.locals_.append(
        ast.VarDecl(ast.BitType(8), "x", ast.Binary("**", ast.Path(("md", "flag")), ast.Num(2)))),
    "unsupported operator @": lambda p, c: c.locals_.append(
        ast.VarDecl(ast.BitType(8), "x", ast.Binary("@", ast.Num(1), ast.Num(2)))),
    "cannot evaluate": lambda p, c: c.locals_.append(ast.VarDecl(ast.BitType(8), "x", "text")),
    "unhandled statement": lambda p, c: c.apply.insert(0, "text"),
    "extract() of something that is not a header": lambda p, c: p.parsers["P"].states[
        "start"].statements.append(ast.CallStmt(ast.MethodCall(ast.Path(("pkt",)), "extract", [ast.Num(1)]))),
    "emit() of something that is not a header": lambda p, c: p.controls["D"].apply.append(
        ast.CallStmt(ast.MethodCall(ast.Path(("pkt",)), "emit", [ast.Num(1)]))),
    "is not usable as a Python name": lambda p, c: c.locals_.append(
        ast.VarDecl(ast.BitType(8), "a-b", ast.Num(1))),
}


@pytest.mark.parametrize("reason", sorted(HAND_BUILT))
def test_ast_the_parser_cannot_produce_falls_back(reason):
    pair = Pair(edited(HAND_BUILT[reason]), parser="P", ingress="C", deparser="D")
    code = pair.engine.packet_code(parser="P", ingress="C", deparser="D")
    assert isinstance(code, str) and reason in code, code
    for op in range(10):
        pair.packet(bytes([op, 1, 2]))
    assert pair.engine.interpreted == 10


def test_unknown_triple_raises_what_the_interpreter_raises():
    pair = source_pair(SCOPES, parser="Nope", ingress="C")
    assert pair.packet(b"\x00\x00\x00")[0] == "KeyError"
    assert pair.engine.interpreted == 1


def test_metadata_the_code_was_not_built_for_falls_back_per_packet():
    pair = source_pair(SRC, parser="P", ingress="C", deparser="D")
    data = bytes([0x12, 0xAB, 0xC0])
    for metadata, interpreted in (
        ({"tag": 0xF}, 0),
        ({"tag": 0x1FF}, 1),   # wider than bit<8>: the interpreter does not mask it on entry
        ({"extra": 1}, 2),     # not a declared field: it stays in the result
        ({"tag": -1}, 3),
        (None, 3),
    ):
        kind, (_, md, _) = pair.packet(data, metadata)
        assert kind == "ok" and pair.engine.interpreted == interpreted
    assert pair.packet(data, {"extra": 1})[1][1]["extra"] == 1


# ---------------------------------------------------------------------------
# header layouts: struct codecs and the shift path
# ---------------------------------------------------------------------------

def layout_program(prefix: int, between: int, widths: list[int]) -> str:
    """``p`` of ``prefix`` bits, then ``h`` of ``widths`` either at once or
    (odd ``p.x``) between ``q`` and ``r`` of ``between`` bits each, so the
    two paths reach ``h`` at different offsets when ``between`` is 4 and
    still end where they would without it; ingress bumps every odd field
    of ``h`` (the sum wraps) and leaves the even ones, the top one among
    them, as extracted."""
    fields = " ".join(f"bit<{w}> f{i};" for i, w in enumerate(widths))
    bumps = " ".join(f"hdr.h.f{i} = hdr.h.f{i} + {i};" for i in range(1, len(widths), 2))
    return f"""
header p_t {{ bit<{prefix}> x; }}
header q_t {{ bit<{between}> y; }}
header h_t {{ {fields} }}
struct headers_t {{ p_t p; q_t q; h_t h; q_t r; }}
struct metadata_t {{ bit<8> seen; }}
parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {{
    state start {{
        pkt.extract(hdr.p);
        transition select(hdr.p.x) {{ 0 &&& 1: parse_h; default: parse_q; }}
    }}
    state parse_q {{ pkt.extract(hdr.q); transition parse_h; }}
    state parse_h {{
        pkt.extract(hdr.h);
        transition select(hdr.p.x) {{ 0 &&& 1: accept; default: parse_r; }}
    }}
    state parse_r {{ pkt.extract(hdr.r); transition accept; }}
}}
control C(inout headers_t hdr, inout metadata_t md) {{
    apply {{ {bumps} }}
}}
control D(packet_out pkt, inout headers_t hdr) {{
    apply {{ pkt.emit(hdr.p); pkt.emit(hdr.q); pkt.emit(hdr.h); pkt.emit(hdr.r); }}
}}
"""


def struct_format(widths: list[int]) -> str:
    """The layout rule, stated independently of the generator: fields
    group into the fewest units that end on byte boundaries; 1, 2, 4 and
    8 byte units are integers, any other size is bytes."""
    fmt, bits = ">", 0
    for w in widths:
        bits += w
        if bits % 8 == 0:
            fmt += {1: "B", 2: "H", 4: "I", 8: "Q"}.get(bits // 8, f"{bits // 8}s")
            bits = 0
    return fmt


def codec_calls(code: compiled.PacketCode, fmt: str) -> dict[str, str]:
    """``K`` name -> struct method, for the consts that are ``fmt``'s struct."""
    return {
        f"K{i}": k.__name__
        for i, k in enumerate(code.consts)
        if isinstance(getattr(k, "__self__", None), struct.Struct) and k.__self__.format == fmt
    }


@st.composite
def layouts(draw):
    widths = draw(st.lists(
        st.one_of(st.sampled_from([1, 4, 8, 16, 24, 32, 48, 64]), st.integers(1, 64)),
        min_size=1, max_size=11,
    ))
    if draw(st.booleans()) and sum(widths) % 8:  # end on a byte boundary
        widths.append(8 - sum(widths) % 8)
    prefix = draw(st.sampled_from([8, 16, 3, 4, 12]))
    between = draw(st.sampled_from([8, 16, 4]))  # 4: h's offset depends on the path
    seed = draw(st.integers(0, 1 << 16))
    return prefix, between, widths, seed


@settings(max_examples=150, deadline=None)
@given(layouts())
@example((8, 4, [8, 8], 0))  # h's offset depends on the path: the shift path
@example((4, 8, [4, 4], 0))  # h's top field shares a byte with p.x
def test_header_layouts_agree(case):
    prefix, between, widths, seed = case
    names = dict(parser="P", ingress="C", deparser="D")
    pair = source_pair(layout_program(prefix, between, widths), **names)
    code = pair.engine.packet_code(**names)
    assert isinstance(code, compiled.PacketCode), code
    if prefix % 8 == 0 and between % 8 == 0 and sum(widths) % 8 == 0:
        calls = codec_calls(code, struct_format(widths))
        assert set(calls.values()) == {"pack", "unpack_from"}, calls
        assert all(f"{k}(" in code.source for k in calls)
    rng = random.Random(seed)
    at, bit = (prefix - 1) // 8, 0x80 >> (prefix - 1) % 8  # p.x's lowest bit picks the path
    for via_q in (0, 1):
        size = (prefix + 2 * between * via_q + sum(widths) + 7) // 8
        for length in (size, size + 3, size - 1, rng.randrange(size), rng.randrange(size + 9)):
            data = bytearray(rng.randbytes(max(length, 0)))
            if len(data) > at:
                data[at] = data[at] | bit if via_q else data[at] & ~bit
            pair.packet(bytes(data))
        pair.packet(b"\xff" * (size + rng.randrange(3)))  # every field at its widest value
    assert pair.engine.interpreted == 0


def test_every_shipped_header_takes_the_struct_path():
    for name in sorted(P4_SOURCES):
        program = parse_p4(p4_source(name))
        code = P4Engine(program).packet_code(**TNA)
        assert "int.from_bytes(D[" not in code.source, name
        for header in program.headers.values():
            widths = [ty.width for ty, _ in header.fields]
            if sum(widths):
                calls = codec_calls(code, struct_format(widths))
                assert set(calls.values()) == {"pack", "unpack_from"}, (name, header.name)


# ---------------------------------------------------------------------------
# register indexes: one bounds check per path, the interpreter's error
# ---------------------------------------------------------------------------

def agg_packet(*, ver: int, bmp_idx: int, agg_idx: int, mask: int) -> bytes:
    data = (
        ver.to_bytes(1, "big") + bmp_idx.to_bytes(2, "big") + agg_idx.to_bytes(2, "big")
        + mask.to_bytes(2, "big") + bytes([3]) + b"".join(i.to_bytes(4, "big") for i in range(32))
    )
    wire = NetCLPacket(src=1, dst=1, from_=0xFFFF, to=1, comp=1, act=0, data=data).to_wire()
    return _encapsulation(len(wire)) + wire


def test_out_of_range_register_index_agrees_on_both_ingress_paths():
    pair = Pair(parse_p4(p4_source("agg")), **TNA)
    error = "register exp: index 600 out of range [0,512)"
    # the slot's first contributor: bitmap0 is written, then the store path fails
    assert pair.packet(agg_packet(ver=0, bmp_idx=3, agg_idx=600, mask=1)) == ("P4RuntimeError", error)
    assert pair.engine.register_read("bitmap0", 3) == 1
    # a second worker: the aggregation path fails at the same first check
    assert pair.packet(agg_packet(ver=0, bmp_idx=3, agg_idx=600, mask=2)) == ("P4RuntimeError", error)
    assert pair.engine.register_read("bitmap0", 3) == 3
    for ver in (0, 1):  # in range on both paths, then out of range again
        assert pair.packet(agg_packet(ver=ver, bmp_idx=4, agg_idx=511, mask=1))[0] == "ok"
        assert pair.packet(agg_packet(ver=ver, bmp_idx=4, agg_idx=511, mask=2))[0] == "ok"
        assert pair.packet(agg_packet(ver=ver, bmp_idx=4, agg_idx=512, mask=4))[1] == (
            "register exp: index 512 out of range [0,512)")
    assert pair.engine.interpreted == 0


def test_agg_checks_the_slot_index_once_per_path():
    source = P4Engine(parse_p4(p4_source("agg"))).packet_code(**TNA).source
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "if (m_idx == 0):")
    indent = lines[start][: -len(lines[start].lstrip())]
    middle = lines.index(indent + "else:", start)
    end = next(i for i in range(middle + 1, len(lines)) if not lines[i].startswith(indent + " "))
    store, aggregate = lines[start:middle], lines[middle:end]
    for path in (store, aggregate):
        checks = [i for i, line in enumerate(path) if "l_aidx < 512" in line]
        assert len(checks) == 1
        assert checks[0] < min(i for i, line in enumerate(path) if "[l_aidx]" in line)
    # a RegisterAction that assigns its value before reading it loads nothing
    assert not any("= R" in line and "[l_aidx]" in line.split("=")[-1] for line in store)
    assert sum("[l_aidx]" in line.split("=")[-1] for line in aggregate) == 35


JOINS = """
header h_t { bit<8> op; bit<8> i; }
struct headers_t { h_t h; }
struct metadata_t { bit<8> out; }

parser P(packet_in pkt, out headers_t hdr, inout metadata_t md) {
    state start { pkt.extract(hdr.h); transition accept; }
}

control C(inout headers_t hdr, inout metadata_t md) {
    Register<bit<8>, bit<32>>(4) r;
    Register<bit<8>, bit<32>>(4) s;
    Register<bit<8>, bit<32>>(2) u;
    Register<bit<8>, bit<32>>(8) wide;
    RegisterAction<bit<8>, bit<32>, bit<8>>(r) bump_r = {
        void apply(inout bit<8> value) { value = value + 1; }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(s) bump_s = {
        void apply(inout bit<8> value) { value = value + 1; }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(s) set_s = {
        void apply(inout bit<8> value) { value = 9; }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(u) bump_u = {
        void apply(inout bit<8> value, out bit<8> rv) { value = value + 1; rv = value; }
    };
    RegisterAction<bit<8>, bit<32>, bit<8>>(wide) bump_wide = {
        void apply(inout bit<8> value) { value = value + 1; }
    };
    action via_table() { bump_u.execute(i); }
    table t {
        key = { hdr.h.op : exact; }
        actions = { via_table; }
        const entries = { (3) : via_table(); }
    }
    apply {
        bit<32> i = (bit<32>)hdr.h.i;
        bump_wide.execute(i);
        if (hdr.h.op == 0) { bump_r.execute(i); }
        bump_s.execute(i);
        set_s.execute(i);
        md.out = (hdr.h.op == 1) ? bump_u.execute(i) : 0;
        t.apply();
        bump_u.execute(i);
        i = i + 1;
        bump_r.execute(i);
        bump_s.execute(i);
    }
}

control D(packet_out pkt, inout headers_t hdr) {
    apply { pkt.emit(hdr.h); }
}
"""


def test_bounds_checks_hold_across_joins_and_assignments():
    names = dict(parser="P", ingress="C", deparser="D")
    pair = source_pair(JOINS, **names)
    for op in range(5):
        for i in range(10):
            pair.packet(bytes([op, i]))
    assert pair.engine.interpreted == 0
    lines = pair.engine.packet_code(**names).source.splitlines()
    checks = [line.strip()[len("if not l_i < "):-1] for line in lines if "if not" in line]
    assert checks == [
        "8",  # wide
        "4",  # r, on one path
        "4",  # s, after the join; set_s then needs none
        "2",  # u, in one ternary arm
        "2",  # u, in one table action
        "2",  # u, after both
        "4",  # r, for the new index; s then needs none
    ]
