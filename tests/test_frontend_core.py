"""Hold the two frontends to one core and to their old behaviour.

(a) A golden over what the frontends produce for every shipped input: the
NetCL token streams and parsed ASTs of every ``.ncl`` in the repository
(again for the collective and RPC programs with each role's defines, as
``compile_role`` / ``compile_rpc_role`` pass them) and the parsed ASTs of
the six handwritten P4 baselines.  The digests were taken on the two
hand-written lexers, cursors and constant folders this core replaced.

(b) Arbitrary source-like text makes the NetCL scanner raise only
:class:`~repro.lang.errors.CompileError` and the P4 scanner only
:class:`~repro.p4.parser.P4ParseError`, and every token it yields sits at
the line:col of its spelling.

(c) ``src`` has one scanner, one token type, one cursor, one
precedence loop, one constant folder and one comment stripper — all in
:mod:`repro.syntax`.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import P4_SOURCES, netcl_source, p4_source
from repro.lang.errors import CompileError
from repro.lang.lexer import Lexer, TokenKind
from repro.lang.parser import parse_source
from repro.p4.parser import P4ParseError, _Parser, parse_p4

ROOT = Path(__file__).resolve().parent.parent
NCL_FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "examples", "tests")
    for path in (ROOT / folder).rglob("*.ncl")
)


def _role_defines(monkeypatch) -> dict[str, tuple[str, dict]]:
    """The defines each role's compile passes, captured at ``compile_app``."""
    from repro.collective import tree
    from repro.rpc import cluster

    captured: dict[str, tuple[str, dict]] = {}

    def capture(label):
        def compile_app(name, device_id, *, target, defines):
            captured[label] = (name, defines)

        return compile_app

    for label, call in [
        ("collective/root", lambda: tree.compile_role(tree.ROOT_DEVICE)),
        ("collective/leaf0", lambda: tree.compile_role(tree.leaf_device(0), rack=0)),
        (
            "collective/standby3",
            lambda: tree.compile_role(
                tree.standby_device(3), rack=3, num_racks=4, workers_per_rack=3
            ),
        ),
    ]:
        monkeypatch.setattr(tree, "compile_app", capture(label))
        call()
    for label, call in [
        ("rpc/edge", lambda: cluster.compile_rpc_role(cluster.EDGE_DEVICE, "edge", fanout=2)),
        ("rpc/sg", lambda: cluster.compile_rpc_role(cluster.SG_DEVICE, "sg", fanout=3)),
        ("rpc/tor", lambda: cluster.compile_rpc_role(cluster.tor_device(1), "tor", fanout=2)),
    ]:
        monkeypatch.setattr(cluster, "compile_app", capture(label))
        call()
    return captured


def _netcl_digest(source: str, defines=None) -> str:
    h = hashlib.sha256()
    for tok in Lexer(source, defines).tokens:
        h.update(repr((tok.kind.name, tok.text, tok.value, tok.line, tok.col)).encode())
    h.update(repr(parse_source(source, defines)).encode())
    return h.hexdigest()[:16]


def _frontend_digests(monkeypatch) -> dict[str, str]:
    out = {rel: _netcl_digest((ROOT / rel).read_text()) for rel in NCL_FILES}
    for label, (name, defines) in _role_defines(monkeypatch).items():
        out[label] = _netcl_digest(netcl_source(name), defines)
    for name in sorted(P4_SOURCES):
        ast_repr = repr(parse_p4(p4_source(name)))
        out[f"p4/{name}"] = hashlib.sha256(ast_repr.encode()).hexdigest()[:16]
    return out


GOLDEN: dict[str, str] = {
    "src/repro/apps/netcl/agg.ncl": "390685b9f2f6b1fe",
    "src/repro/apps/netcl/cache.ncl": "d22597834409760e",
    "src/repro/apps/netcl/calc.ncl": "d7c3a3b8b6819ca9",
    "src/repro/apps/netcl/collective.ncl": "857a2c4d6486190a",
    "src/repro/apps/netcl/paxos.ncl": "bf44789aa9b3e376",
    "src/repro/apps/netcl/rpc.ncl": "9ab8e23d83054f59",
    "tests/lint/clean.ncl": "c292cb548bd5bb67",
    "tests/lint/conflict.ncl": "4d9dd02df901364e",
    "tests/lint/constbranch.ncl": "3da5b5d4e4712bf5",
    "tests/lint/deadstore.ncl": "b46acb0521a68aec",
    "tests/lint/divzero.ncl": "3bc5fcdbbe8a1114",
    "tests/lint/memcheck.ncl": "43d064760e044ce6",
    "tests/lint/overflow.ncl": "b01c3dd121998fbf",
    "tests/lint/resources.ncl": "eb8e3d2b55ea1d43",
    "tests/lint/truncation.ncl": "f40b8f4422a436e3",
    "tests/lint/uninit.ncl": "fb572d51e1b3a726",
    "tests/lint/unreachable.ncl": "6cbe07ae77223e18",
    "collective/root": "96a20065b8917f4b",
    "collective/leaf0": "0ed7976f81d59c89",
    "collective/standby3": "19ad28d7ef4b035c",
    "rpc/edge": "19d4b53c2dd1972a",
    "rpc/sg": "10673100c45d924d",
    "rpc/tor": "1da472a840d160c5",
    "p4/agg": "8aad68946895fdbc",
    "p4/cache": "8964ae5bccdd38b8",
    "p4/calc": "45b29adebdc528fb",
    "p4/paxos_acceptor": "eb576a40b5ba2530",
    "p4/paxos_leader": "cdc6eb3feb30095d",
    "p4/paxos_learner": "424f7cd08436fb9c",
}


def test_frontends_reproduce_the_golden_digests(monkeypatch):
    assert _frontend_digests(monkeypatch) == GOLDEN


@pytest.mark.parametrize("text, value", [("2 + -1", 1), ("7 / 2", 3), ("~0 & 255", 255), ("!3", 0)])
def test_both_frontends_fold_with_one_operator_table(text, value):
    """Operators apply only when used: ``2 + -1`` once had no value
    because every operator, ``2 << -1`` among them, was evaluated."""
    assert parse_source(f"_net_ int m[{text}];").decls[0].dims == (value,)
    assert parse_p4(f"const bit<8> A = {text};").constants["A"] == value


@pytest.mark.parametrize("text", ["1 / 0", "1 % 0", "1 << -1"])
def test_an_operator_without_a_value_is_not_constant(text):
    with pytest.raises(CompileError, match="constant expression"):
        parse_source(f"_net_ int m[{text}];")
    with pytest.raises(P4ParseError, match="constant expression"):
        parse_p4(f"const bit<8> A = {text};")


# -- (b) the scanners fail only with the language's own error ------------------------

FRAGMENTS = [
    "0x", "0X1f", "0b", "0b2", "0x_", "0b_", "1_0", "8w255", "4s7", "12u", "7UL", "'", "'a'",
    "'\\", "'\\n'", "'\\q'", "''", '"', '"s"', '"\\"', "/*", "*/", "//", "#", "#define A ",
    "#define B A", "#ifdef A", "#endif", "#include <x>", "\n", " ", "\t", "A", "B", "true",
    "_", "@", "|+|", ">>", "<<=", "$", "`", "é", "²", "int", ";", "{", "}",
]
SOURCE_LIKE = st.one_of(
    st.text(alphabet=st.sampled_from("".join(FRAGMENTS) + "xyz09"), max_size=40),
    st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join),
)


def _at(source: str, tok) -> str:
    """``source`` from ``tok``'s line:col on."""
    lines = source.split("\n")
    return "\n".join(lines[tok.line - 1 :])[tok.col - 1 :]


@settings(max_examples=400, deadline=None)
@given(SOURCE_LIKE)
def test_netcl_scanner_raises_only_compile_errors(text):
    try:
        Lexer(text)
    except CompileError as exc:
        assert exc.first.line >= 1


@settings(max_examples=400, deadline=None)
@given(SOURCE_LIKE)
def test_p4_scanner_raises_only_p4_parse_errors(text):
    try:
        _Parser(text)
    except P4ParseError as exc:
        assert exc.line >= 1


@settings(max_examples=400, deadline=None)
@given(SOURCE_LIKE)
def test_every_token_points_at_its_spelling(text):
    """Comments are blanked, not deleted: a token's line:col is where its
    text is (NetCL numbers excepted: ``true`` is the token ``1``)."""
    try:
        lexer = Lexer(text)
    except CompileError:
        pass
    else:
        if not lexer.macros:
            for tok in lexer.tokens[:-1]:
                if tok.kind is not TokenKind.NUMBER:
                    assert _at(text, tok).startswith(tok.text), tok
    try:
        tokens = _Parser(text).tokens
    except P4ParseError:
        return
    for tok in tokens[:-1]:
        assert _at(text, tok).startswith(tok.text), tok


# -- (c) one core: nothing grows a second scanner, cursor, loop, folder or stripper --

SRC = ROOT / "src" / "repro"
CORE = "syntax.py"
#: cursor methods a grammar extends and then calls: P4 splits ``>>``
#: closing nested type arguments, and reads a declared constant as a number
OVERRIDES = {("p4/parser.py", "_Parser", "expect"), ("p4/parser.py", "_Parser", "number")}


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _functions(tree):
    return (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _call_name(call: ast.Call) -> str:
    return getattr(call.func, "attr", getattr(call.func, "id", ""))


def test_only_the_shared_cursor_defines_cursor_methods_and_a_precedence_loop():
    offenders = []
    for rel, tree in _sources():
        loops = [fn for fn in _functions(tree) if fn.name == "parse_binary"]
        offenders += [f"{rel}:{fn.lineno} def parse_binary" for fn in loops]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name not in (
                    "peek", "next", "accept", "expect", "ident", "number"
                ):
                    continue
                if (rel, cls.name) == (CORE, "Cursor"):
                    continue
                delegates = any(
                    isinstance(c, ast.Call) and ast.unparse(c.func) == f"super().{fn.name}"
                    for c in ast.walk(fn)
                )
                if (rel, cls.name, fn.name) not in OVERRIDES or not delegates:
                    offenders.append(f"{rel}:{fn.lineno} {cls.name}.{fn.name}")
    assert not offenders, "use repro.syntax.Cursor: " + ", ".join(offenders)


def test_only_the_shared_core_tokenizes():
    offenders = []
    for rel, tree in _sources():
        if rel == CORE:
            continue
        for fn in _functions(tree):
            if fn.name in ("scan", "tokenize", "_tokenize") or fn.name.startswith("lex"):
                offenders.append(f"{rel}:{fn.lineno} def {fn.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in ("Token", "Tok", "TokenKind"):
                offenders.append(f"{rel}:{node.lineno} class {node.name}")
            if isinstance(node, ast.Call) and _call_name(node) in ("Token", "Tok", "finditer"):
                offenders.append(f"{rel}:{node.lineno} {_call_name(node)}(…)")
    assert not offenders, "scan with repro.syntax.scan: " + ", ".join(offenders)


def test_one_constant_folder_and_one_comment_stripper():
    folders = {}
    offenders = []
    for rel, tree in _sources():
        if rel == CORE:
            continue
        for fn in _functions(tree):
            if fn.name in ("_eval_const", "_const_eval", "_const_of"):
                folders[rel] = fn.name
                if any(isinstance(n, (ast.BinOp, ast.UnaryOp)) for n in ast.walk(fn)):
                    offenders.append(f"{rel}:{fn.lineno} {fn.name} computes; call fold()")
            if "comment" in fn.name:
                offenders.append(f"{rel}:{fn.lineno} def {fn.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and "/\\*" in str(node.value):
                offenders.append(f"{rel}:{node.lineno} a comment pattern")
    assert folders == {
        "lang/lower.py": "_const_of", "lang/parser.py": "_eval_const", "p4/parser.py": "_const_eval"
    }
    assert not offenders, "use repro.syntax.fold / strip_comments: " + ", ".join(offenders)
