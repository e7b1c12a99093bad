"""Compiled P4 engine: what :class:`P4NetCLSwitchDevice` runs.

:class:`~repro.p4.interp.P4Interpreter` is the reference semantics of a
P4 program and walks the AST for every packet.  Everything it resolves
per packet is static in this P4 subset, so :class:`P4Engine` lowers one
``(parser, ingress, deparser)`` triple once to a single Python function
and runs that instead:

* header fields, metadata fields and control locals are Python locals;
  name resolution (``locals → md → constants``, ``hdr.x.f`` against
  ``md.f``), widths and masks are decided here, and a mask is emitted
  only where the value is not already known to fit;
* the parser FSM is a ``while`` loop over a state number, ``select`` an
  ``if/elif`` chain; ``extract`` is one ``struct`` unpack for a header
  that starts and ends on a byte boundary, else one ``int.from_bytes``,
  plus a shift and mask for each field that shares its unit;
* actions and ``RegisterAction`` bodies are inlined at their call sites
  with the interpreter's scoping: action parameters are restored on exit,
  locals declared in an action stay, writes to outer locals inside a
  ``RegisterAction`` do not escape it, ``exit`` unwinds to the control
  boundary (so a ``RegisterAction`` it leaves writes nothing back);
  an index is bounds-checked once per path and register size while it
  does not change, and a register value is loaded only if read;
* tables keep the interpreter's run-time entry list and its ``match``;
  the matched entry's action name picks one inlined body;
* the deparser packs each valid header with its ``struct``, or else with
  one shift chain.

Operands are evaluated in the interpreter's order: an operand whose text
reads a variable is copied to a temporary when a later operand emits
statements, so every emitted expression text is free of side effects.

Whatever cannot be decided statically (a name declared on only some
paths, a ternary whose arms differ in width where the width matters, an
assignment that would create a metadata field), is not a packet-path
construct of the subset (a table applied inside a ``RegisterAction``, a
local declared in a parser state), is an error the interpreter reports at
run time (unknown names, tables, headers, externs), or arrives with
metadata the code was not generated for, runs on the inherited
interpreter, which keeps behaviour exact in every corner, and is counted
in ``engine.interpreted``.

Contract: a :class:`~repro.p4.ast.Program` handed to an engine is frozen.
Its code is generated once per triple, at the first packet on any engine,
and kept on the program (``Program.engine_code``); every engine over it
— a second device, a device after ``reset_state()`` — only *binds* that
code to its own registers, tables and rng.  Entries reach a table through
the source text or ``insert_entry``, which validates them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from repro.p4 import ast
from repro.p4.interp import (
    _HASH_ALGOS,
    HeaderInstance,
    P4Interpreter,
    P4RuntimeError,
    _Env,
    _ExitControl,
)
from repro.pygen import lit, load, storage_bits

_METADATA_ROOTS = ("md", "meta", "ig_md")

#: constant operands are folded by the oracle's own evaluator
_FOLD = _Env(None, {}, {}, {}, None)


class _Untranslatable(Exception):
    """The triple stays on the interpreter (the reason is the message)."""


class _Op(NamedTuple):
    """An evaluated expression as side-effect-free Python text."""

    text: str  #: a name, a literal or a parenthesised expression
    width: Optional[int]  #: the interpreter's width; None = depends on the path taken
    bits: Optional[int]  #: value is known to lie in [0, 2**bits); None = unknown
    const: Optional[int] = None  #: the value itself when it is a literal
    stable: bool = False  #: no later statement can change what the text yields


class _Var(NamedTuple):
    """Where a header field, metadata field or local lives."""

    py: str
    width: int
    bits: int  #: every read yields a value in [0, 2**bits)


@dataclass
class _Header:
    name: str
    decl: ast.HeaderDecl
    valid: str  #: Python local holding the validity bit
    fields: dict[str, _Var]

    @property
    def bit_width(self) -> int:
        return sum(v.width for v in self.fields.values())

    def codec(self) -> Optional[tuple[struct.Struct, list[tuple[int, list[_Var]]]]]:
        """The header's struct and its units, the fewest runs of fields that
        each end on a byte boundary, as (bytes, fields); None if the header
        does not end on one."""
        units, group, bits = [], [], 0
        for var in self.fields.values():
            group.append(var)
            bits += var.width
            if bits % 8 == 0:
                units.append((bits // 8, group))
                group, bits = [], 0
        if group:
            return None
        return struct.Struct(">" + "".join(_CODES.get(n, f"{n}s") for n, _ in units)), units


#: a name's scope entry is None when it is declared on only some paths or
#: with different widths: using it cannot be resolved statically
_Scope = dict[str, Optional[_Var]]


@dataclass(frozen=True)
class PacketCode:
    """One (parser, ingress, deparser) triple lowered to Python, not yet
    bound to any engine's state."""

    source: str
    #: the generated ``_bind(E, X, K, R, T, RNG)``
    factory: Callable
    consts: tuple  #: hash functions and header codecs the code calls as ``K0..Kn``
    registers: tuple[str, ...]  #: register names the code indexes as ``R0..Rn``
    tables: tuple[str, ...]  #: table names the code matches as ``T0..Tn``
    #: (instance name, declaration, field names) in the order of the flat
    #: header tuple the code returns: validity then every field, header
    #: after header
    headers: tuple[tuple[str, ast.HeaderDecl, tuple[str, ...]], ...]
    #: largest value each metadata field may enter with
    md_masks: dict[str, int]


def _mask(width: int) -> int:
    return (1 << width) - 1


#: struct codes of the units read as integers; any other is read as bytes
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _is_atom(text: str) -> bool:
    return text.isidentifier() or text.isdigit()


_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


def _written(stmts: list[ast.Stmt]) -> set[str]:
    """Names a RegisterAction body may assign or declare."""
    names: set[str] = set()
    for s in stmts:
        if isinstance(s, ast.VarDecl):
            names.add(s.name)
        elif isinstance(s, ast.Assign):
            target = s.target.base if isinstance(s.target, ast.Slice) else s.target
            if isinstance(target, ast.Path) and len(target.parts) == 1:
                names.add(target.parts[0])
        elif isinstance(s, ast.If):
            names |= _written(s.then) | _written(s.els or [])
    return names


def _reads(node, name: str) -> bool:
    """Whether evaluating ``node`` may read the local ``name`` (any call
    may: a RegisterAction body sees the caller's locals)."""
    if isinstance(node, list):
        return any(_reads(item, name) for item in node)
    if isinstance(node, (ast.MethodCall, ast.ApplyResult)):
        return True
    if isinstance(node, ast.Path):
        return list(node.parts) == [name]
    fields = dataclasses.fields(node) if dataclasses.is_dataclass(node) else ()
    return any(_reads(getattr(node, f.name), name) for f in fields)


def _assigned_first(stmts: list[ast.Stmt], name: str) -> bool:
    """Whether ``stmts`` assign the local ``name`` before anything may read it."""
    for s in stmts:
        if isinstance(s, ast.Assign) and s.target == ast.Path((name,)) and not _reads(s.value, name):
            return True
        if _reads(s, name):
            return False
    return False


def _merge(scope: _Scope, branches: list[_Scope]) -> None:
    """What is known after alternative paths: a name keeps its entry only
    if every path that reaches the join left it the same."""
    if not branches:
        return
    merged: _Scope = {}
    for name in sorted({n for b in branches for n in b}):
        entries = {b.get(name) for b in branches}
        merged[name] = entries.pop() if len(entries) == 1 else None
    scope.clear()
    scope.update(merged)


class _Generator:
    """Translates one triple; :meth:`code` returns the result."""

    def __init__(
        self, program: ast.Program, parser: str, ingress: str, deparser: Optional[str]
    ) -> None:
        self.program = program
        try:
            self.parser_decl = program.parsers[parser]
            self.ingress = program.controls[ingress]
            self.deparser = None if deparser is None else program.controls[deparser]
        except KeyError as missing:
            raise _Untranslatable(f"no parser or control named {missing}") from None
        self.name = f"{parser}/{ingress}/{deparser}"
        self.lines: list[str] = []
        self.indent = "        "
        self.temps = 0
        self.consts: list[object] = []
        self.registers: list[str] = []
        self.tables: list[str] = []
        #: the control being lowered; None while lowering the parser
        self.control: Optional[ast.ControlDecl] = None
        self.inlining: list[str] = []  # actions being inlined (recursion guard)
        self.register_action = 0  # id of the RegisterAction body being inlined
        self.register_actions = 0
        #: (index text, register size, checked for < 0) of the bounds checks
        #: every path to the current line has passed
        self.checked: set[tuple[str, int, bool]] = set()
        #: ``_p % 8`` at the current line of the parser; None = depends on the path
        self.offset: Optional[int] = 0

        # what P4Interpreter._fresh_headers / _init_metadata / _md_width find
        self.headers: dict[str, _Header] = {}
        self.md: dict[str, _Var] = {}
        widths: dict[str, int] = {}
        for struct in program.structs.values():
            for ty, fname in struct.fields:
                if isinstance(ty, ast.NamedType) and ty.name in program.headers:
                    self.headers[fname] = self.header(fname, program.headers[ty.name])
                elif isinstance(ty, ast.BitType):
                    widths.setdefault(fname, ty.width)
                elif isinstance(ty, ast.BoolType):
                    self.md.setdefault(fname, _Var("", 32, 32))
        for fname, width in widths.items():
            self.md[fname] = _Var("", width, width)
        self.md = {f: v._replace(py=self.py("m_", f)) for f, v in self.md.items()}
        self.register_decls = {
            r.name: r for c in program.controls.values() for r in c.registers.values()
        }
        self.table_decls = {
            t.name: t for c in program.controls.values() for t in c.tables.values()
        }

    def header(self, name: str, decl: ast.HeaderDecl) -> _Header:
        n = self.temp("")
        fields: dict[str, _Var] = {}
        for ty, fname in decl.fields:
            if not isinstance(ty, ast.BitType):
                raise _Untranslatable(f"header {decl.name} has a field that is not bit<W>")
            if fname in fields:
                raise _Untranslatable(f"header {decl.name} declares {fname} twice")
            fields[fname] = _Var(self.py(f"h{n}_", fname), ty.width, ty.width)
        return _Header(name, decl, f"v{n}", fields)

    # -- text ----------------------------------------------------------------
    @staticmethod
    def py(prefix: str, name: str) -> str:
        if not (prefix + name).isidentifier():
            raise _Untranslatable(f"{name!r} is not usable as a Python name")
        return prefix + name

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def assign(self, py: str, text: str) -> None:
        """``py = text``; a bounds check of the old value no longer holds."""
        self.emit(f"{py} = {text}")
        self.checked = {c for c in self.checked if c[0] != py}

    def temp(self, prefix: str = "t") -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    @contextlib.contextmanager
    def indented(self):
        """One more level; an empty body gets ``pass``."""
        start = len(self.lines)
        self.indent += "    "
        yield
        if len(self.lines) == start:
            self.emit("pass")
        self.indent = self.indent[:-4]

    def copy(self, op: _Op) -> _Op:
        """``op`` evaluated here, into a temporary."""
        name = self.temp()
        self.emit(f"{name} = {op.text}")
        return op._replace(text=name, stable=True)

    def atom(self, op: _Op) -> _Op:
        """``op`` as a name or literal (anything compound gets a temporary)."""
        return op if _is_atom(op.text) or op.const is not None else self.copy(op)

    @staticmethod
    def const(value: int, width: int) -> _Op:
        return _Op(lit(value), width, value.bit_length() if value >= 0 else None, value, True)

    @staticmethod
    def masked(op: _Op, width: int) -> str:
        """``op & mask(width)`` with the mask folded where possible."""
        if op.const is not None:
            return lit(op.const & _mask(width))
        if op.bits is not None and op.bits <= width:
            return op.text
        return f"{op.text} & {_mask(width):#x}"

    def bind(self, kind: str, items: list, item: object) -> str:
        if item not in items:
            items.append(item)
        return f"{kind}{items.index(item)}"

    # -- names ---------------------------------------------------------------
    @staticmethod
    def load(var: _Var) -> _Op:
        return _Op(var.py, var.width, var.bits)

    def local(self, name: str, scope: _Scope) -> _Var:
        var = scope[name]
        if var is None:
            raise _Untranslatable(f"the scope of {name} depends on the path taken")
        return var

    def read(self, path: ast.Path, scope: _Scope) -> _Op:
        """:meth:`_Env._read_path`, decided here."""
        parts = path.parts
        if len(parts) == 1:
            name = parts[0]
            if name in scope:
                return self.load(self.local(name, scope))
            if name in self.md:
                return self.load(self.md[name])
            if name in self.program.constants:
                return self.const(self.program.constants[name], 0)
            raise _Untranslatable(f"unknown name {name}")
        if len(parts) >= 3 or parts[0] not in _METADATA_ROOTS:
            header = self.headers.get(parts[-2])
            if header is not None and parts[-1] in header.fields:
                return self.load(header.fields[parts[-1]])
        if parts[-1] in self.md:
            return self.load(self.md[parts[-1]])
        raise _Untranslatable(f"cannot read {path}")

    def store(self, target: Union[ast.Path, ast.Slice], value: _Op, scope: _Scope) -> None:
        """:meth:`_Env.assign`, decided here."""
        if isinstance(target, ast.Slice):
            base = target.base
            width = target.hi - target.lo + 1
            if not isinstance(base, ast.Path) or width < 0:
                raise _Untranslatable("slice assignment the interpreter rejects")
            old = self.read(base, scope)
            field = _mask(width) << target.lo
            text = f"({old.text} & {lit(~field)} | ({value.text} << {target.lo}) & {field:#x})"
            bits = None if old.bits is None else max(old.bits, target.hi + 1)
            self.store(base, _Op(text, None, bits), scope)
            return
        parts = target.parts
        header = self.headers.get(parts[-2]) if len(parts) >= 2 else None
        if len(parts) == 1 and parts[0] in scope:
            var = self.local(parts[0], scope)
        elif header is not None and parts[-1] in header.fields:
            var = header.fields[parts[-1]]
        elif parts[-1] in self.md:
            var = self.md[parts[-1]]
        else:
            raise _Untranslatable(f"assignment would create metadata field {parts[-1]}")
        self.assign(var.py, self.masked(value, var.width))

    def header_of(self, path: ast.Path) -> _Header:
        header = self.headers.get(path.parts[-1])
        if header is None:
            raise _Untranslatable(f"unknown header {path}")
        return header


    # -- expressions: _Env.eval, with statements for whatever has an effect ---
    def sequence(self, exprs: list[ast.Expr], scope: _Scope, lower=None) -> list:
        """Lower ``exprs`` in order.  A text that a later operand's
        statements could change is copied to a temporary before them."""
        lower = lower or self.expr
        ops, marks = [], []
        for e in exprs:
            ops.append(lower(e, scope))
            marks.append(len(self.lines))
        for i in reversed(range(len(ops) - 1)):
            op = ops[i]
            text = op if isinstance(op, str) else op.text
            stable = not isinstance(op, str) and op.stable
            if len(self.lines) > marks[i] and not stable:
                name = self.temp()
                self.lines.insert(marks[i], f"{self.indent}{name} = {text}")
                ops[i] = name if isinstance(op, str) else op._replace(text=name, stable=True)
        return ops

    def fold(self, node: ast.Expr) -> _Op:
        try:
            value, width = _FOLD.eval(node)
        except (P4RuntimeError, ValueError) as error:  # unsupported operator, negative shift
            raise _Untranslatable(str(error)) from None
        return self.const(value, width)

    @staticmethod
    def as_num(op: _Op) -> ast.Num:
        return ast.Num(op.const, op.width)

    def expr(self, e: ast.Expr, scope: _Scope) -> _Op:
        if isinstance(e, ast.Num):
            return self.const(e.value, e.width or 0)
        if isinstance(e, ast.Path):
            return self.read(e, scope)
        if isinstance(e, ast.Slice):
            return self.slice(e, self.expr(e.base, scope))
        if isinstance(e, ast.CastExpr):
            return self.cast(e, self.expr(e.value, scope))
        if isinstance(e, ast.Unary):
            return self.unary(e, self.expr(e.value, scope))
        if isinstance(e, ast.Binary):
            a, b = self.sequence([e.left, e.right], scope)
            return self.binary(e.op, a, b)
        if isinstance(e, ast.Ternary):
            return self.ternary(e, scope)
        if isinstance(e, ast.MethodCall):
            return self.method(e, scope)
        if isinstance(e, ast.ApplyResult):
            if e.member not in ("hit", "miss"):
                raise _Untranslatable(f"unsupported apply() member {e.member}")
            hit = self.apply_table(e.table, scope, want_hit=True)
            text = f"(1 if {hit} else 0)" if e.member == "hit" else f"(0 if {hit} else 1)"
            return _Op(text, 1, 1, stable=True)
        if isinstance(e, ast.TupleExpr):
            return self.tuple(self.sequence(e.items, scope))
        raise _Untranslatable(f"cannot evaluate {e}")

    def cond(self, e: ast.Expr, scope: _Scope) -> str:
        """``e`` as the test of an ``if``: any text of the right truth."""
        if isinstance(e, ast.Binary) and e.op in _COMPARISONS:
            a, b = self.sequence([e.left, e.right], scope)
            if a.const is None or b.const is None:
                return f"({a.text} {e.op} {b.text})"
        elif isinstance(e, ast.Binary) and e.op in ("&&", "||"):
            a, b = self.sequence([e.left, e.right], scope, self.cond)
            return f"({a} {'and' if e.op == '&&' else 'or'} {b})"
        elif isinstance(e, ast.Unary) and e.op == "!":
            return f"(not {self.cond(e.value, scope)})"
        elif isinstance(e, ast.MethodCall) and e.method == "isValid":
            return self.header_of(e.target).valid
        elif isinstance(e, ast.ApplyResult) and e.member in ("hit", "miss"):
            hit = self.apply_table(e.table, scope, want_hit=True)
            return hit if e.member == "hit" else f"(not {hit})"
        return self.expr(e, scope).text

    # -- pure operators ------------------------------------------------------
    def slice(self, e: ast.Slice, v: _Op) -> _Op:
        width = e.hi - e.lo + 1
        if width < 0:
            raise _Untranslatable("slice with hi < lo")
        if v.const is not None:
            return self.fold(ast.Slice(self.as_num(v), e.hi, e.lo))
        text = f"({v.text} >> {e.lo})" if e.lo else v.text
        left = None if v.bits is None else max(v.bits - e.lo, 0)
        if left is None or left > width:
            return _Op(f"({text} & {_mask(width):#x})", width, width, stable=v.stable)
        return _Op(text, width, left, stable=v.stable)

    def cast(self, e: ast.CastExpr, v: _Op) -> _Op:
        if v.const is not None:
            return self.fold(ast.CastExpr(e.to, self.as_num(v)))
        if isinstance(e.to, ast.BitType):
            width = e.to.width
            if v.bits is not None and v.bits <= width:
                return v._replace(width=width)
            return _Op(f"({v.text} & {_mask(width):#x})", width, width, stable=v.stable)
        if v.bits is not None and v.bits <= 1:
            return v._replace(width=1)
        return _Op(f"(1 if {v.text} else 0)", 1, 1, stable=v.stable)

    def unary(self, e: ast.Unary, v: _Op) -> _Op:
        if e.op == "!":
            if v.const is not None:
                return self.const(int(v.const == 0), 1)
            return _Op(f"(0 if {v.text} else 1)", 1, 1, stable=v.stable)
        if v.width is None:
            raise _Untranslatable("operand width depends on a ternary's path")
        if v.const is not None:
            return self.fold(ast.Unary(e.op, self.as_num(v)))
        mask = _mask(v.width or 64)
        bits = mask.bit_length()
        if e.op == "~" and v.bits is not None and v.bits <= bits:
            return _Op(f"({v.text} ^ {mask:#x})", v.width, bits, stable=v.stable)
        return _Op(f"({'~' if e.op == '~' else '-'}{v.text} & {mask:#x})", v.width, bits,
                   stable=v.stable)

    def binary(self, op: str, a: _Op, b: _Op) -> _Op:
        """:meth:`_Env._binary` on two evaluated operands."""
        stable = a.stable and b.stable
        if op in _COMPARISONS or op in ("&&", "||"):
            if a.const is not None and b.const is not None:
                return self.fold(ast.Binary(op, self.as_num(a), self.as_num(b)))
            py = {"&&": "and", "||": "or"}.get(op, op)
            return _Op(f"(1 if {a.text} {py} {b.text} else 0)", 1, 1, stable=stable)
        if a.width is None or (a.width == 0 and b.width is None):
            raise _Untranslatable("operand width depends on a ternary's path")
        if b.bits is None:
            # _binary evaluates every operator, ``a >> b`` among them
            raise _Untranslatable("right operand may be negative: negative shift count")
        w = a.width or b.width or 64
        mask = _mask(w)
        if a.const is not None and b.const is not None:
            return self.fold(ast.Binary(op, self.as_num(a), self.as_num(b)))
        ab, bb = a.bits, b.bits
        known = ab is not None
        bits: Optional[int] = None  # bound on the unmasked result
        if op in ("+", "*", "-"):
            text = f"{a.text} {op} {b.text}"
            if known and op != "-":
                bits = max(ab, bb) + 1 if op == "+" else ab + bb
        elif op in ("|", "^"):
            text = f"{a.text} {op} {b.text}"
            bits = max(ab, bb) if known else None
        elif op == "&":
            text = f"{a.text} & {b.text}"
            bits = min(ab, bb) if known else bb
        elif op == "<<":
            if b.const is not None:
                text = f"{a.text} << {b.const % w}"
                bits = None if ab is None else ab + b.const % w
            else:
                text = f"{a.text} << {b.text} % {w}"
        elif op == ">>":
            text, bits = f"{a.text} >> {b.text}", ab
        elif op == "|+|":
            text, bits = f"min({a.text} + {b.text}, {mask:#x})", w if known else None
        elif op == "|-|":
            text, bits = f"max({a.text} - {b.text}, 0)", ab if known else None
        elif op in ("/", "%"):
            py = "//" if op == "/" else "%"
            if b.const is not None:
                text = f"{a.text} {py} {b.text}" if b.const else "0"
            else:
                b = self.atom(b)
                text = f"{a.text} {py} {b.text} if {b.text} else 0"
            if known:
                bits = ab if op == "/" else min(ab, bb)
        else:
            raise _Untranslatable(f"unsupported operator {op}")
        if bits is not None and bits <= w:
            return _Op(f"({text})", w, bits, stable=stable)
        return _Op(f"(({text}) & {mask:#x})", w, w, stable=stable)

    def tuple(self, items: list[_Op]) -> _Op:
        text, width = "0", 0
        for item in items:
            if item.width is None:
                raise _Untranslatable("operand width depends on a ternary's path")
            w = item.width or 32
            text = f"({text} << {w} | {self.masked(item, w)})" if width else f"({self.masked(item, w)})"
            width += w
        return _Op(text, width, width, stable=all(i.stable for i in items))

    def ternary(self, e: ast.Ternary, scope: _Scope) -> _Op:
        test = self.cond(e.cond, scope)
        mark = len(self.lines)
        arms, before, checked = [], self.checked, []
        self.indent += "    "
        self.offset = None
        for arm in (e.then, e.els):
            self.checked = set(before)
            op = self.expr(arm, scope)
            arms.append((op, self.lines[mark:]))
            checked.append(self.checked)
            del self.lines[mark:]
        self.indent = self.indent[:-4]
        self.checked = checked[0] & checked[1]
        (then, then_lines), (els, else_lines) = arms
        width = then.width if then.width == els.width else None
        bits = None if then.bits is None or els.bits is None else max(then.bits, els.bits)
        if not then_lines and not else_lines:
            return _Op(f"({then.text} if {test} else {els.text})", width, bits)
        result = self.temp()
        for keyword, op, lines in (("if " + test, then, then_lines), ("else", els, else_lines)):
            self.emit(f"{keyword}:")
            self.lines += lines
            self.emit(f"    {result} = {op.text}")
        return _Op(result, width, bits, stable=True)


    # -- calls: _Env._method --------------------------------------------------
    def method(self, call: ast.MethodCall, scope: _Scope) -> _Op:
        method, target = call.method, call.target
        nothing = self.const(0, 0)
        if method in ("extract", "advance"):
            if self.control is not None or len(call.args) != 1:
                raise _Untranslatable(f"{method}() the interpreter rejects")
            if method == "extract":
                if not isinstance(call.args[0], ast.Path):
                    raise _Untranslatable("extract() of something that is not a header")
                self.extract(self.header_of(call.args[0]))
            else:
                self.advance(self.expr(call.args[0], scope))
            return nothing
        if method == "isValid":
            return _Op(f"(1 if {self.header_of(target).valid} else 0)", 1, 1)
        if method in ("setValid", "setInvalid"):
            self.emit(f"{self.header_of(target).valid} = {method == 'setValid'}")
            return nothing
        name = target.parts[-1]
        ctrl = self.control
        if method == "__direct__":
            if ctrl is None or name not in ctrl.actions:
                raise _Untranslatable(f"unknown direct call {name}()")
            self.inline_action(name, self.sequence(call.args, scope), scope)
            return nothing
        if ctrl is not None and name in ctrl.register_actions and method == "execute":
            return self.execute(ctrl.register_actions[name], call, scope)
        if ctrl is not None and name in ctrl.hashes and method == "get":
            decl = ctrl.hashes[name]
            fn = _HASH_ALGOS.get(decl.algorithm.upper())
            if fn is None or len(call.args) != 1:
                raise _Untranslatable(f"hash {name} the interpreter rejects")
            v = self.expr(call.args[0], scope)
            if v.width is None:
                raise _Untranslatable("operand width depends on a ternary's path")
            out = decl.out_type.width
            text = f"({self.bind('K', self.consts, fn)}({v.text}, {max(v.width, 8)}) & {_mask(out):#x})"
            return _Op(text, out, out, stable=v.stable)
        if ctrl is not None and name in ctrl.randoms and method == "get":
            out = ctrl.randoms[name].out_type
            value = self.temp()
            self.emit(f"{value} = RNG(0, {out.mask + 1})")
            return _Op(value, out.width, out.width, stable=True)
        if method == "apply":
            hit = self.apply_table(str(target), scope, want_hit=True)
            return _Op(f"(1 if {hit} else 0)", 1, 1, stable=True)
        raise _Untranslatable(f"unsupported method {target}.{method}()")

    def apply_table(
        self, name: str, scope: _Scope, want_hit: bool = False, run: Optional[str] = None
    ) -> str:
        """:meth:`P4Interpreter.apply_table`; returns the local holding hit,
        and sets the local named ``run`` to the action that ran."""
        decl = self.table_decls.get(name)
        ctrl = self.control
        if decl is None:
            raise _Untranslatable(f"unknown table {name}")
        if ctrl is None or self.register_action:
            raise _Untranslatable(f"table {name} applied outside a control's own statements")
        for entry in decl.entries:  # insert_entry checks the ones added later
            action = ctrl.actions.get(entry.action)
            if action is not None and len(entry.args) < len(action.params):
                raise _Untranslatable(
                    f"action {entry.action} called with fewer arguments than parameters"
                )
        keys = ", ".join(op.text for op in self.sequence([k for k, _ in decl.keys], scope))
        entry, hit = self.temp("e"), self.temp("hit")
        self.emit(f"{entry} = {self.bind('T', self.tables, name)}.match([{keys}])")
        branches: list[_Scope] = []
        before, checked = self.checked, []

        def alternative(test: str, action: str, args: list[_Op]) -> None:
            self.emit(test)
            with self.indented():
                branch, self.checked = dict(scope), set(before)
                self.inline_action(action, args, branch)
                branches.append(branch)
                checked.append(self.checked)

        self.emit(f"if {entry} is None:")
        with self.indented():
            if want_hit:
                self.emit(f"{hit} = False")
            if run is not None:
                default = decl.default_action[0] if decl.default_action else "NoAction"
                self.emit(f"{run} = {default!r}")
            branch, self.checked = dict(scope), set(before)
            if decl.default_action is not None:
                action, values = decl.default_action
                self.inline_action(action, [self.const(v, 0) for v in values], branch)
            branches.append(branch)
            checked.append(self.checked)
        self.emit("else:")
        with self.indented():
            if want_hit:
                self.emit(f"{hit} = True")
            act, args = self.temp("act"), self.temp("args")
            self.emit(f"{act} = {entry}.action")
            self.emit(f"{args} = {entry}.args")
            if run is not None:
                self.emit(f"{run} = {act}")
            alternative(f"if {act} == 'NoAction':", "NoAction", [])
            # an entry may name any action of the control; the table's own first
            names = [a for a in decl.actions if a in ctrl.actions]
            for action in names + [a for a in ctrl.actions if a not in names]:
                if action == "NoAction":
                    continue
                params = ctrl.actions[action].params
                ops = [_Op(f"{args}[{i}]", None, None, stable=True) for i in range(len(params))]
                alternative(f"elif {act} == {action!r}:", action, ops)
            self.emit("else:")
            self.emit(f"    raise E('unknown action %s' % {act})")
        _merge(scope, branches)
        self.checked = set.intersection(*checked)
        return hit

    def inline_action(self, name: str, args: list[_Op], scope: _Scope) -> None:
        """:meth:`P4Interpreter._run_action` with the body in place."""
        if name == "NoAction":
            return
        ctrl = self.control
        action = ctrl.actions.get(name) if ctrl is not None else None
        if action is None:
            raise _Untranslatable(f"unknown action {name}")
        if self.register_action:
            raise _Untranslatable(f"action {name} called inside a RegisterAction")
        if name in self.inlining:
            raise _Untranslatable(f"action {name} is recursive")
        if len(args) < len(action.params):
            raise _Untranslatable(f"action {name} called with fewer arguments than parameters")
        shadowed: dict[str, tuple[Optional[_Var], str]] = {}
        for _, pname in action.params:
            if pname in scope and pname not in shadowed:
                shadowed[pname] = (self.local(pname, scope), self.temp("saved"))
                self.emit(f"{shadowed[pname][1]} = {shadowed[pname][0].py}")
        for (ty, pname), arg in zip(action.params, args):
            width = ty.width if isinstance(ty, ast.BitType) else 32
            scope[pname] = _Var(self.py("l_", pname), width, width)
            self.assign(scope[pname].py, self.masked(arg, width))
        self.inlining.append(name)
        self.block(action.body, scope)
        self.inlining.pop()
        # parameters go out of scope; locals the body declared remain
        for _, pname in action.params:
            if pname in shadowed:
                scope[pname], saved = shadowed[pname]
                self.assign(scope[pname].py, saved)
            else:
                scope.pop(pname, None)

    def execute(self, ra: ast.RegisterActionDecl, call: ast.MethodCall, scope: _Scope) -> _Op:
        """:meth:`P4Interpreter.execute_register_action` with the body in place."""
        decl = self.register_decls.get(ra.register)
        if decl is None or len(call.args) < 1:
            raise _Untranslatable(f"RegisterAction {ra.name} the interpreter rejects")
        index = self.expr(call.args[0], scope)
        if index.stable or index.text in {v.py for v in scope.values() if v}:
            index = self.atom(index)
        else:  # reads a header or metadata field, which the body may assign
            index = self.copy(index)
        width = decl.value_type.width
        message = f"register {ra.register}: index %d out of range [0,{decl.size})"
        check = (index.text, decl.size, index.bits is None)
        if index.const is not None:
            if not 0 <= index.const < decl.size:
                self.emit(f"raise E({message % index.const!r})")
        elif (index.bits is None or (1 << index.bits) > decl.size) and check not in self.checked:
            self.emit(f"if not {'0 <= ' if check[2] else ''}{index.text} < {decl.size}:")
            self.emit(f"    raise E({message!r} % {index.text})")
            self.checked.add(check)
        outer, self.register_actions = self.register_action, self.register_actions + 1
        self.register_action = n = self.register_actions
        reg = self.bind("R", self.registers, ra.register)
        sub = dict(scope)
        for name in sorted(_written(ra.body) & set(scope)):  # writes stay inside the body
            var = self.local(name, scope)
            sub[name] = var._replace(py=f"{var.py}_{n}")
            self.emit(f"{sub[name].py} = {var.py}")
        value = sub[ra.value_param] = _Var(f"value{n}", width, max(width, storage_bits(width)))
        if not _assigned_first(ra.body, ra.value_param):
            self.emit(f"{value.py} = {reg}[{index.text}]")
        if ra.rv_param:
            sub[ra.rv_param] = _Var(f"rv{n}", width, width)
            if not _assigned_first(ra.body, ra.rv_param):
                self.emit(f"rv{n} = 0")
        self.block(ra.body, sub)
        # the interpreter's sub-environment is looked up by name again
        value = self.local(ra.value_param, sub)
        self.emit(f"{reg}[{index.text}] = {self.masked(self.load(value), width)}")
        self.register_action = outer
        if ra.rv_param:
            return self.load(self.local(ra.rv_param, sub))._replace(stable=True)
        stored = self.masked(self.load(value), width)
        return _Op(stored if _is_atom(stored) else f"({stored})", width, width, stable=True)

    # -- statements: P4Interpreter._exec_stmt --------------------------------
    def block(self, stmts: list[ast.Stmt], scope: _Scope) -> bool:
        """Lower ``stmts``; True when control never falls out of them."""
        return any(self.stmt(s, scope) for s in stmts)

    def stmt(self, s: ast.Stmt, scope: _Scope) -> bool:
        if isinstance(s, ast.Assign):
            self.store(s.target, self.expr(s.value, scope), scope)
        elif isinstance(s, ast.VarDecl):
            if self.control is None:
                raise _Untranslatable(f"local {s.name} declared in a parser state")
            width = s.type.width if isinstance(s.type, ast.BitType) else 1
            init = self.expr(s.init, scope) if s.init is not None else self.const(0, 0)
            suffix = f"_{self.register_action}" if self.register_action else ""
            scope[s.name] = _Var(self.py("l_", s.name) + suffix, width, width)
            self.assign(scope[s.name].py, self.masked(init, width))
        elif isinstance(s, ast.If):
            self.emit(f"if {self.cond(s.cond, scope)}:")
            then, els = dict(scope), dict(scope)
            before, self.checked, self.offset = self.checked, set(self.checked), None
            with self.indented():
                then_exits = self.block(s.then, then)
            then_checked, self.checked = self.checked, set(before)
            els_exits = False
            if s.els:
                self.emit("else:")
                with self.indented():
                    els_exits = self.block(s.els, els)
            arms = ((then, then_checked, then_exits), (els, self.checked, els_exits))
            _merge(scope, [b for b, _, exits in arms if not exits])
            self.checked = set.intersection(*[c for _, c, exits in arms if not exits] or [set()])
            return then_exits and els_exits
        elif isinstance(s, ast.ApplyTable):
            self.apply_table(s.table, scope)
        elif isinstance(s, ast.Switch):
            return self.switch(s, scope)
        elif isinstance(s, ast.CallStmt):
            self.expr(s.call, scope)
        elif isinstance(s, ast.Exit):
            self.emit("raise X()")
            return True
        else:
            raise _Untranslatable(f"unhandled statement {s}")
        return False

    def switch(self, s: ast.Switch, scope: _Scope) -> bool:
        """:meth:`P4Interpreter._exec_stmt` of a ``switch``: an ``if`` chain
        on the action the table ran; True when every arm exits."""
        run = self.temp("run")
        self.apply_table(s.table, scope, run=run)
        bodies = dict(s.cases)
        arms = [(f"{run} == {k!r}", b) for k, b in bodies.items() if k != "default"]
        arms.append(("True", bodies.get("default", [])))
        before, ends = self.checked, []
        for i, (test, body) in enumerate(arms):
            self.emit(f"{'if' if i == 0 else 'elif'} {test}:")
            branch, self.checked, self.offset = dict(scope), set(before), None
            with self.indented():
                exits = self.block(body, branch)
            ends.append((branch, self.checked, exits))
        _merge(scope, [b for b, _, exits in ends if not exits])
        self.checked = set.intersection(*[c for _, c, exits in ends if not exits] or [set()])
        return all(exits for _, _, exits in ends)

    # -- parser --------------------------------------------------------------
    def extract(self, header: _Header) -> None:
        """:meth:`_Cursor.extract`: the whole header in one read."""
        total = header.bit_width
        if total:
            self.emit(f"_e = _p + {total}")
            self.emit("if _e > _n:")
            self.emit("    raise E('packet too short during extract')")
            codec = header.codec() if self.offset == 0 else None
            if codec is None:
                self.emit("_x = int.from_bytes(D[_p >> 3:_e + 7 >> 3], 'big') >> (-_e & 7)")
                self.split("_x", list(header.fields.values()), exact=False)
            else:
                self.unpack(*codec)
            self.emit("_p = _e")
            if self.offset is not None:
                self.offset = (self.offset + total) % 8
        self.emit(f"{header.valid} = True")

    def split(self, unit: str, fields: list[_Var], exact: bool) -> None:
        """Each of ``fields`` out of the low bits of ``unit``, high to low;
        the top one needs no mask when ``unit`` holds nothing else."""
        shift = sum(var.width for var in fields)
        for var in fields:
            shift -= var.width
            text = f"{unit} >> {shift}" if shift else unit
            self.emit(f"{var.py} = {text}" if exact else f"{var.py} = {text} & {_mask(var.width):#x}")
            exact = False

    def unpack(self, codec: struct.Struct, units: list[tuple[int, list[_Var]]]) -> None:
        """One ``unpack_from``; a field is a struct item when it fills one."""
        names, rest = [], []
        for n, fields in units:
            if n in _CODES and len(fields) == 1:
                names.append(fields[0].py)
                continue
            names.append(self.temp("_u"))
            rest.append((names[-1] if n in _CODES else f"int.from_bytes({names[-1]}, 'big')", fields))
        self.emit(f"{', '.join(names)}, = {self.bind('K', self.consts, codec.unpack_from)}(D, _p >> 3)")
        for unit, fields in rest:
            self.split(unit, fields, exact=True)

    def advance(self, bits: _Op) -> None:
        if bits.const is not None and bits.const < 0:
            raise _Untranslatable("advance() by a negative amount")
        self.offset = None
        self.emit(f"_p += {bits.text}")
        self.emit("if _p > _n:")
        self.emit("    raise E('packet too short during advance')")

    def parser(self, decl: ast.ParserDecl) -> None:
        """:meth:`P4Interpreter._run_parser` as a loop over a state number.
        States are numbered and emitted in reverse postorder, so outside a
        loop every state that can go to one is emitted before it."""
        seen: set[str] = set()
        order: list[str] = []

        def targets(name: str) -> list[str]:
            to = decl.states[name].transition if name in decl.states else "reject"
            return [to] if isinstance(to, str) else [case.state for case in to.cases]

        def visit(name: str) -> None:
            if name not in seen and name not in ("accept", "reject"):
                seen.add(name)
                for target in targets(name):
                    visit(target)
                order.insert(0, name)

        visit("start")
        numbers = {name: i for i, name in enumerate(order)}
        entered = {"start": [0]}  # ``_p % 8`` at each goto emitted to a state

        def goto(state: str) -> str:
            entered.setdefault(state, []).append(self.offset)
            if state == "accept":
                return "break"
            if state == "reject":
                return "raise E('parser rejected packet')"
            return f"_s = {numbers[state]}"

        self.emit("_p = _s = _c = 0")
        self.emit("_n = len(D) * 8")
        self.emit("while True:")
        self.indent += "    "
        self.emit("_c += 1")
        self.emit("if _c > 1000:")
        self.emit("    raise E('parser did not terminate')")
        for number, name in enumerate(order):
            self.emit(f"{'if' if number == 0 else 'elif'} _s == {number}:")
            with self.indented():
                state = decl.states.get(name)
                # known only when every state that can go here was emitted above
                offsets = set(entered.get(name, ()))
                known = all(numbers[p] < number for p in order if name in targets(p))
                self.offset = offsets.pop() if known and len(offsets) == 1 else None
                if state is None:
                    self.emit(f"raise E({f'undefined parser state {name}'!r})")
                elif not self.block(state.statements, {}):
                    self.transition(state.transition, goto)
        self.indent = self.indent[:-4]
        self.emit("if _p & 7:")
        self.emit("    raise E('payload not byte-aligned')")

    def transition(self, transition, goto) -> None:
        if isinstance(transition, str):
            self.emit(goto(transition))
            return
        values = [self.atom(v) for v in self.sequence(transition.exprs, {})]
        keyword = "if"
        for case in transition.cases:
            test = self.keyset(case.keys, values)
            if test == "False":
                continue
            if test == "True":
                break
            self.emit(f"{keyword} {test}:")
            self.emit(f"    {goto(case.state)}")
            keyword = "elif"
        else:
            case = ast.SelectCase(["default"], "reject")
        if keyword == "if":
            self.emit(goto(case.state))
        else:
            self.emit("else:")
            self.emit(f"    {goto(case.state)}")

    @staticmethod
    def keyset(keys: list[object], values: list[_Op]) -> str:
        """:meth:`P4Interpreter._select_matches` as a Python test."""
        if len(keys) != len(values):
            return str(keys == ["default"])
        tests = []
        for spec, v in zip(keys, values):
            if spec == "default":
                continue
            if isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "mask":
                tests.append(f"{v.text} & {lit(spec[2])} == {lit(spec[1] & spec[2])}")
            elif isinstance(spec, tuple):
                tests.append(f"{lit(spec[0])} <= {v.text} <= {lit(spec[1])}")
            else:
                tests.append(f"{v.text} == {lit(spec)}")
        return " and ".join(tests) or "True"

    # -- control and deparser ------------------------------------------------
    def run_control(self, ctrl: ast.ControlDecl) -> None:
        """:meth:`P4Interpreter._run_control`."""
        self.control = ctrl
        scope: _Scope = {}
        for v in ctrl.locals_:
            self.stmt(v, scope)
        mark = len(self.lines)
        with self.indented():
            self.block(ctrl.apply, scope)
        body = self.lines[mark:]
        if any(line.lstrip() == "raise X()" for line in body):
            body = [f"{self.indent}try:", *body, f"{self.indent}except X:", f"{self.indent}    pass"]
        else:
            body = [line[4:] for line in body]
        self.lines[mark:] = body
        self.control = None

    def deparse(self, ctrl: ast.ControlDecl) -> str:
        """:meth:`P4Interpreter._deparse` as one bytes expression."""
        parts = []
        for s in ctrl.apply:
            if isinstance(s, ast.CallStmt) and s.call.method == "emit":
                arg = s.call.args[0] if s.call.args else None
                if not isinstance(arg, ast.Path):
                    raise _Untranslatable("emit() of something that is not a header")
                header = self.headers.get(arg.parts[-1])
                if header is None or not header.bit_width:
                    continue
                codec = header.codec()
                if codec is None:  # one shift chain, padded to whole bytes
                    pad = -header.bit_width % 8
                    text = f"({self.chain(header.fields.values())} << {pad})"
                    size = (header.bit_width + pad) // 8
                    parts.append(f"({text}.to_bytes({size}, 'big') if {header.valid} else b'')")
                    continue
                items = [
                    unit if n in _CODES else f"{unit}.to_bytes({n}, 'big')"
                    for n, fields in codec[1] for unit in [self.chain(fields)]
                ]
                pack = self.bind("K", self.consts, codec[0].pack)
                parts.append(f"({pack}({', '.join(items)}) if {header.valid} else b'')")
        return " + ".join(parts + ["D[_p >> 3:]"])

    def chain(self, fields) -> str:
        """``fields`` side by side in one integer, the first one highest; a
        field is masked only where its bit bound exceeds its width."""
        text = ""
        for var in fields:
            op = self.masked(self.load(var), var.width)
            op = op if _is_atom(op) else f"({op})"
            text = f"({text} << {var.width} | {op})" if text else op
        return text

    def code(self) -> PacketCode:
        self.parser(self.parser_decl)
        self.run_control(self.ingress)
        out = "b''" if self.deparser is None else self.deparse(self.deparser)
        flat = "".join(
            f"{h.valid}, {''.join(v.py + ', ' for v in h.fields.values())}"
            for h in self.headers.values()
        )
        fields = ", ".join(f"{name!r}: {var.py}" for name, var in self.md.items())
        self.emit(f"return ({flat}) if W else None, {{{fields}}}, {out}")

        lines = ["def _bind(E, X, K, R, T, RNG):"]
        for prefix, items in (("K", self.consts), ("R", self.registers), ("T", self.tables)):
            if items:
                names = ", ".join(f"{prefix}{i}" for i in range(len(items)))
                lines.append(f"    {names}, = {prefix}")
        lines.append("    def packet(D, M, W):")
        zeros = [v.py for h in self.headers.values() for v in h.fields.values()]
        if zeros:
            lines.append(f"        {' = '.join(zeros)} = 0")
        if self.headers:
            lines.append(f"        {' = '.join(h.valid for h in self.headers.values())} = False")
        if self.md:
            lines.append("        if M:")
            lines += [f"            {v.py} = M.get({n!r}, 0)" for n, v in self.md.items()]
            lines.append("        else:")
            lines.append(f"            {' = '.join(v.py for v in self.md.values())} = 0")
        lines += self.lines
        lines.append("    return packet")
        source = "\n".join(lines) + "\n"
        return PacketCode(
            source,
            load(source, f"<p4 {self.name}>", "_bind"),
            tuple(self.consts),
            tuple(self.registers),
            tuple(self.tables),
            tuple((h.name, h.decl, tuple(h.fields)) for h in self.headers.values()),
            {name: _mask(var.width) for name, var in self.md.items()},
        )


def generate(
    program: ast.Program, parser: str, ingress: str, deparser: Optional[str]
) -> Union[PacketCode, str]:
    """Lower one triple of ``program`` to Python, or say why it must stay
    on the interpreter."""
    try:
        return _Generator(program, parser, ingress, deparser).code()
    except _Untranslatable as reason:
        return str(reason)


class P4Engine(P4Interpreter):
    """A :class:`P4Interpreter` whose packets run as generated Python.

    Same constructor, same ``run_packet`` and control plane;
    ``interpreted`` counts the packets that took the interpreter instead.
    """

    def __init__(self, program: ast.Program, *, seed: int = 0) -> None:
        super().__init__(program, seed=seed)
        self._bound: dict[tuple, Optional[tuple[PacketCode, Callable]]] = {}
        self.interpreted = 0

    def packet_code(
        self, *, parser: str, ingress: str, deparser: Optional[str] = None
    ) -> Union[PacketCode, str]:
        """The generated code of one triple, or the reason it runs on the
        interpreter; generated at most once per program whatever the
        number of engines."""
        codes = self.program.engine_code
        key = (parser, ingress, deparser)
        if key not in codes:
            codes[key] = generate(self.program, *key)
        return codes[key]

    def _bind(self, key: tuple) -> Optional[tuple[PacketCode, Callable]]:
        code = self.packet_code(parser=key[0], ingress=key[1], deparser=key[2])
        bound = None
        if isinstance(code, PacketCode):
            bound = code, code.factory(
                P4RuntimeError,
                _ExitControl,
                code.consts,
                [self.registers[name] for name in code.registers],
                [self.tables[name] for name in code.tables],
                self.rng.randrange,
            )
        self._bound[key] = bound
        return bound

    def _packet(self, key: tuple, metadata: Optional[dict[str, int]]):
        """The bound function of ``key`` if this packet may run on it."""
        try:
            bound = self._bound[key]
        except KeyError:
            bound = self._bind(key)
        if bound is not None and metadata:
            # generated code assumes only declared fields, each within its width
            masks = bound[0].md_masks
            for name, value in metadata.items():
                if not (name in masks and isinstance(value, int) and 0 <= value <= masks[name]):
                    bound = None
                    break
        if bound is None:
            self.interpreted += 1
        return bound

    # -- packet path ---------------------------------------------------------
    def run_packet(
        self,
        data: bytes,
        *,
        parser: str,
        ingress: str,
        deparser: Optional[str] = None,
        metadata: Optional[dict[str, int]] = None,
    ) -> tuple[dict[str, HeaderInstance], dict[str, int], bytes]:
        bound = self._packet((parser, ingress, deparser), metadata)
        if bound is None:
            return super().run_packet(
                data, parser=parser, ingress=ingress, deparser=deparser, metadata=metadata
            )
        code, packet = bound
        flat, md, out = packet(data, metadata, True)
        hdr: dict[str, HeaderInstance] = {}
        at = 0
        for name, decl, names in code.headers:
            end = at + 1 + len(names)
            hdr[name] = HeaderInstance(decl, flat[at], dict(zip(names, flat[at + 1 : end])))
            at = end
        return hdr, md, out

    def forward(
        self, data: bytes, *, parser: str, ingress: str, deparser: Optional[str] = None
    ) -> tuple[dict[str, int], bytes]:
        """No header instances are built on this path."""
        bound = self._packet((parser, ingress, deparser), None)
        if bound is None:
            _, md, out = super().run_packet(
                data, parser=parser, ingress=ingress, deparser=deparser
            )
            return md, out
        _, md, out = bound[1](data, None, False)
        return md, out
