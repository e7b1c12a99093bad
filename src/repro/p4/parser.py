"""Recursive-descent parser for the P4-16 subset, on the shared frontend core
(:mod:`repro.syntax`)."""

from __future__ import annotations

import dataclasses
import re
from typing import Optional, Union

from repro.p4 import ast
from repro.syntax import (
    Cursor,
    Lexicon,
    Token,
    TokenKind,
    fold,
    integer,
    precedence,
    scan,
    strip_comments,
)


class P4ParseError(Exception):
    def __init__(self, msg: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


# -- rule table --------------------------------------------------------------------

_PUNCT = [
    "|+|", "|-|", "<<=", ">>=", "&&&", "..", "::", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "{", "}", "(", ")", "[", "]", ";", ",", "<",
    ">", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "=", "?", ":",
    ".", "@",
]


def _sized(text: str) -> tuple:
    """``8w255`` / ``4s7``: the value is what follows the width."""
    return TokenKind.NUMBER, text, int(re.split("[ws]", text)[1])


def _integer(base: int):
    """A literal in ``base``; ``_`` separates digits."""
    return lambda text: (TokenKind.NUMBER, text, integer(text, text.replace("_", ""), base))


P4 = Lexicon(
    [
        ("space", r"\s+", None),
        ("directive", r"\#[^\n]*", None),
        ("sized", r"\d+[ws]\d+", _sized),
        ("hex", r"0[xX][0-9a-fA-F_]+", _integer(16)),
        ("bin", r"0[bB][01_]+", _integer(2)),
        ("dec", r"\d[\d_]*", _integer(10)),
        ("word", r"[A-Za-z_][A-Za-z0-9_]*", TokenKind.IDENT),
        ("punct", "|".join(re.escape(p) for p in _PUNCT), TokenKind.PUNCT),
    ],
    words={"true": (TokenKind.NUMBER, "true", 1), "false": (TokenKind.NUMBER, "false", 0)},
    error=lambda message, line, col: P4ParseError(message, line),
)

_BINARY_LEVELS = precedence(
    [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="], ["<", "<=", ">", ">="],
     ["<<", ">>"], ["+", "-", "|+|", "|-|"], ["*", "/", "%"]]
)


# -- parser ------------------------------------------------------------------------------


class _Parser(Cursor):
    lexicon = P4

    def __init__(self, src: str) -> None:
        super().__init__(scan(strip_comments(src), P4))
        self.prog = ast.Program({}, {}, {}, {}, {}, {}, source=src)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if text == ">" and t.text == ">>":
            # split `>>` closing nested type arguments (Register<bit<32>, ...>)
            half = dataclasses.replace(t, text=">")
            self.tokens[self.pos : self.pos + 1] = [half, dataclasses.replace(half, col=t.col + 1)]
        return super().expect(text)

    def number(self) -> int:
        t = self.peek()
        if t.kind is TokenKind.IDENT and t.text in self.prog.constants:
            self.next()
            return self.prog.constants[t.text]
        return super().number()

    def binary_node(self, tok: Token, left: ast.Expr, right: ast.Expr) -> ast.Expr:
        return ast.Binary(tok.text, left, right)

    def _list(self, item, close: str) -> list:
        """``item``s up to ``close``; the commas between them are optional."""
        items = []
        while not self.accept(close):
            items.append(item())
            self.accept(",")
        return items

    # types ------------------------------------------------------------------
    def _is_type_start(self) -> bool:
        t = self.peek()
        return t.text in ("bit", "int", "bool") or (
            t.kind is TokenKind.IDENT and t.text in self.prog.typedefs
        )

    def parse_type(self) -> ast.P4Type:
        if self.accept("bool"):
            return ast.BoolType()
        t = self.peek()
        if t.text in ("bit", "int"):
            self.next()
            self.expect("<")
            w = self.number()
            self.expect(">")
            return ast.BitType(w, signed=(t.text == "int"))
        name = self.ident().text
        if name in self.prog.typedefs:
            return self.prog.typedefs[name]
        return ast.NamedType(name)

    def _bit_type(self, what: str) -> ast.BitType:
        t = self.peek()
        ty = self.parse_type()
        if not isinstance(ty, ast.BitType):
            raise self.fail(f"{what} type must be bit<W> or int<W>, found {ty}", t)
        return ty

    # program ----------------------------------------------------------------------
    def parse(self) -> ast.Program:
        while self.peek().kind is not TokenKind.EOF:
            t = self.peek()
            if self.accept("typedef"):
                ty = self.parse_type()
                name = self.ident().text
                self.expect(";")
                self.prog.typedefs[name] = ty
            elif self.accept("const"):
                self.parse_type()
                name = self.ident().text
                self.expect("=")
                value = self.parse_const_expr()
                self.expect(";")
                self.prog.constants[name] = value
            elif t.text == "header":
                self.parse_header()
            elif t.text == "struct":
                self.parse_struct()
            elif t.text == "parser":
                self.parse_parser()
            elif t.text == "control":
                self.parse_control()
            else:
                # package / extern / error / enum / match_kind declarations and
                # instantiations like `MyIngressParser() ip;` — skip to ';'
                self._skip_toplevel()
        return self.prog

    def _skip_toplevel(self) -> None:
        depth = 0
        while True:
            t = self.next()
            if t.kind is TokenKind.EOF:
                return
            if t.text in ("(", "{", "["):
                depth += 1
            elif t.text in (")", "}", "]"):
                depth -= 1
                if depth == 0 and self.accept(";"):
                    return
                if depth == 0 and t.text == "}":
                    return
            elif t.text == ";" and depth == 0:
                return

    def parse_const_expr(self) -> int:
        e = self.parse_expr()
        v = _const_eval(e, self.prog.constants)
        if v is None:
            raise self.fail("expected a constant expression")
        return v

    # headers / structs -------------------------------------------------------------
    def _parse_fields(self) -> list[tuple[ast.P4Type, str]]:
        self.expect("{")
        fields = []
        while not self.accept("}"):
            ty = self.parse_type()
            name = self.ident().text
            self.expect(";")
            fields.append((ty, name))
        return fields

    def parse_header(self) -> None:
        self.expect("header")
        name = self.ident().text
        self.prog.headers[name] = ast.HeaderDecl(name, self._parse_fields())

    def parse_struct(self) -> None:
        self.expect("struct")
        name = self.ident().text
        self.prog.structs[name] = ast.StructDecl(name, self._parse_fields())

    # parser decls ----------------------------------------------------------------------
    def parse_params(self) -> list[tuple[str, ast.P4Type, str]]:
        self.expect("(")
        params = []
        while not self.accept(")"):
            direction = "in"
            if self.peek().text in ("in", "out", "inout", "packet_in", "packet_out"):
                direction = self.next().text
            if direction in ("packet_in", "packet_out"):
                ty: ast.P4Type = ast.NamedType(direction)
            else:
                ty = self.parse_type()
            name = self.ident().text
            params.append((direction, ty, name))
            self.accept(",")
        return params

    def parse_parser(self) -> None:
        self.expect("parser")
        name = self.ident().text
        params = self.parse_params()
        self.expect("{")
        states: dict[str, ast.ParserState] = {}
        while not self.accept("}"):
            self.expect("state")
            sname = self.ident().text
            self.expect("{")
            stmts: list[ast.Stmt] = []
            transition: Union[str, ast.SelectTransition] = "reject"
            while not self.accept("}"):
                if self.accept("transition"):
                    transition = self.parse_transition()
                else:
                    stmts.append(self.parse_statement())
            states[sname] = ast.ParserState(sname, stmts, transition)
        self.prog.parsers[name] = ast.ParserDecl(name, params, states)

    def parse_transition(self) -> Union[str, ast.SelectTransition]:
        if self.accept("select"):
            self.expect("(")
            exprs = [self.parse_expr()]
            while self.accept(","):
                exprs.append(self.parse_expr())
            self.expect(")")
            self.expect("{")
            cases: list[ast.SelectCase] = []
            while not self.accept("}"):
                keys = [self.parse_keyset()]
                while self.accept(","):
                    keys.append(self.parse_keyset())
                self.expect(":")
                state = self.ident().text
                self.expect(";")
                cases.append(ast.SelectCase(keys, state))
            return ast.SelectTransition(exprs, cases)
        state = self.ident().text
        self.expect(";")
        return state

    def parse_keyset(self) -> object:
        if self.accept("default") or self.accept("_"):
            return "default"
        lo = self.parse_const_expr()
        if self.accept(".."):
            hi = self.parse_const_expr()
            return (lo, hi)
        if self.accept("&&&"):
            mask = self.parse_const_expr()
            return ("mask", lo, mask)
        return lo

    # controls ---------------------------------------------------------------------------
    def parse_control(self) -> None:
        self.expect("control")
        name = self.ident().text
        params = self.parse_params()
        ctrl = ast.ControlDecl(name, params, {}, {}, {}, {}, {}, {}, [], [])
        self.expect("{")
        while not self.accept("}"):
            t = self.peek()
            if t.text == "action":
                a = self.parse_action()
                ctrl.actions[a.name] = a
                ctrl.decl_order.append(("action", a.name))
            elif t.text == "table":
                tbl = self.parse_table()
                ctrl.tables[tbl.name] = tbl
                ctrl.decl_order.append(("table", tbl.name))
            elif t.text == "Register":
                r = self.parse_register()
                ctrl.registers[r.name] = r
                ctrl.decl_order.append(("register", r.name))
            elif t.text == "RegisterAction":
                ra = self.parse_register_action()
                ctrl.register_actions[ra.name] = ra
                ctrl.decl_order.append(("register_action", ra.name))
            elif t.text == "Hash":
                h = self.parse_hash()
                ctrl.hashes[h.name] = h
                ctrl.decl_order.append(("hash", h.name))
            elif t.text == "Random":
                r2 = self.parse_random()
                ctrl.randoms[r2.name] = r2
                ctrl.decl_order.append(("random", r2.name))
            elif self.accept("apply"):
                ctrl.apply = self.parse_block()
            elif self._is_type_start():
                ty = self.parse_type()
                vname = self.ident().text
                init = None
                if self.accept("="):
                    init = self.parse_expr()
                self.expect(";")
                ctrl.locals_.append(ast.VarDecl(ty, vname, init))
            else:
                raise self.fail(f"unexpected {t.text!r} in control", t)
        self.prog.controls[name] = ctrl

    def parse_action(self) -> ast.ActionDecl:
        self.expect("action")
        name = self.ident().text
        self.expect("(")
        params: list[tuple[ast.P4Type, str]] = []
        while not self.accept(")"):
            if self.peek().text in ("in", "out", "inout"):
                self.next()
            ty = self.parse_type()
            pname = self.ident().text
            params.append((ty, pname))
            self.accept(",")
        body = self.parse_block()
        return ast.ActionDecl(name, params, body)

    def parse_table(self) -> ast.TableDecl:
        self.expect("table")
        name = self.ident().text
        self.expect("{")
        tbl = ast.TableDecl(name, [], [])
        while not self.accept("}"):
            prop = self.ident().text
            if prop == "const":
                prop = self.ident().text
                if prop not in ("entries", "default_action"):
                    raise self.fail(f"unexpected const {prop}")
                if prop == "entries":
                    tbl.const_entries = True
            if prop == "key":
                self.expect("=")
                self.expect("{")
                while not self.accept("}"):
                    e = self.parse_expr()
                    self.expect(":")
                    kind = self.ident().text
                    self.expect(";")
                    tbl.keys.append((e, kind))
            elif prop == "actions":
                self.expect("=")
                self.expect("{")
                while not self.accept("}"):
                    self.accept("@")  # annotations like @defaultonly
                    self.accept("defaultonly")
                    tbl.actions.append(self.ident().text)
                    self.accept(";")
                    self.accept(",")
                self.accept(";")
            elif prop == "default_action":
                self.expect("=")
                tbl.default_action = self._action_call()
                self.expect(";")
            elif prop == "entries":
                self._parse_entries(tbl)
            elif prop == "size":
                self.expect("=")
                tbl.size = self.number()
                self.expect(";")
            else:
                raise self.fail(f"unknown table property {prop!r}")
        return tbl

    def _action_call(self) -> tuple[str, list[int]]:
        """``name`` or ``name(args…)`` with constant arguments."""
        name = self.ident().text
        return name, self._list(self.parse_const_expr, ")") if self.accept("(") else []

    def _parse_entries(self, tbl: ast.TableDecl) -> None:
        self.expect("=")
        self.expect("{")
        while not self.accept("}"):
            keys = self._list(self.parse_keyset, ")") if self.accept("(") else [self.parse_keyset()]
            self.expect(":")
            aname, args = self._action_call()
            self.accept(";")
            tbl.entries.append(ast.TableEntry(keys, aname, args))
        self.accept(";")

    def parse_register(self) -> ast.RegisterDecl:
        self.expect("Register")
        self.expect("<")
        vt = self._bit_type("Register value")
        self.expect(",")
        it = self.parse_type()
        self.expect(">")
        self.expect("(")
        size = self.parse_const_expr()
        if self.accept(","):
            self.parse_const_expr()  # initial value (must be 0 in our model)
        self.expect(")")
        name = self.ident().text
        self.expect(";")
        return ast.RegisterDecl(name, vt, it, size)

    def parse_register_action(self) -> ast.RegisterActionDecl:
        self.expect("RegisterAction")
        self.expect("<")
        self.parse_type()
        self.expect(",")
        self.parse_type()
        self.expect(",")
        self.parse_type()
        self.expect(">")
        self.expect("(")
        reg = self.ident().text
        self.expect(")")
        name = self.ident().text
        self.expect("=")
        self.expect("{")
        self.expect("void")
        self.expect("apply")
        self.expect("(")
        # (inout bit<W> value [, out bit<W> rv])
        self.expect("inout")
        self.parse_type()
        value_param = self.ident().text
        rv_param = None
        if self.accept(","):
            self.expect("out")
            self.parse_type()
            rv_param = self.ident().text
        self.expect(")")
        body = self.parse_block()
        self.expect("}")
        self.expect(";")
        return ast.RegisterActionDecl(name, reg, body, value_param, rv_param)

    def parse_hash(self) -> ast.HashDecl:
        self.expect("Hash")
        self.expect("<")
        ot = self._bit_type("Hash output")
        self.expect(">")
        self.expect("(")
        self.ident()  # HashAlgorithm_t
        self.expect(".")
        alg = self.ident().text
        self.expect(")")
        name = self.ident().text
        self.expect(";")
        return ast.HashDecl(name, ot, alg)

    def parse_random(self) -> ast.RandomDecl:
        self.expect("Random")
        self.expect("<")
        ot = self._bit_type("Random output")
        self.expect(">")
        self.expect("(")
        self.expect(")")
        name = self.ident().text
        self.expect(";")
        return ast.RandomDecl(name, ot)

    # statements ----------------------------------------------------------------------------
    def parse_block(self) -> list[ast.Stmt]:
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> ast.Stmt:
        t = self.peek()
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block() if self.peek().text == "{" else [self.parse_statement()]
            els = None
            if self.accept("else"):
                els = self.parse_block() if self.peek().text == "{" else [self.parse_statement()]
            return ast.If(cond, then, els)
        if self.accept("exit"):
            self.expect(";")
            return ast.Exit()
        if self.accept("switch"):
            self.expect("(")
            run = self.parse_expr()
            if not (isinstance(run, ast.ApplyResult) and run.member == "action_run"):
                raise self.fail("switch must be on table.apply().action_run", t)
            self.expect(")")
            self.expect("{")
            cases = []
            while not self.accept("}"):
                label = "default" if self.accept("default") else self.ident().text
                self.expect(":")
                cases.append((label, self.parse_block()))
            return ast.Switch(run.table, cases)
        is_decl = False
        if t.text in ("bit", "int") and self.peek(1).text == "<":
            is_decl = True  # `bit<W> name ...` at statement level is a decl
        elif (
            self._is_type_start()
            and self.peek(1).kind is TokenKind.IDENT
            and self.peek(2).text in ("=", ";")
        ):
            is_decl = True
        if is_decl:
            ty = self.parse_type()
            name = self.ident().text
            init = None
            if self.accept("="):
                init = self.parse_expr()
            self.expect(";")
            return ast.VarDecl(ty, name, init)
        # path-based: assignment, method call, or table.apply()
        expr = self.parse_expr()
        if self.accept("="):
            value = self.parse_expr()
            self.expect(";")
            if not isinstance(expr, (ast.Path, ast.Slice)):
                raise self.fail("invalid assignment target", t)
            return ast.Assign(expr, value)
        self.expect(";")
        if isinstance(expr, ast.MethodCall):
            if expr.method == "apply" and not expr.args:
                return ast.ApplyTable(str(expr.target))
            return ast.CallStmt(expr)
        if isinstance(expr, ast.ApplyResult):
            return ast.ApplyTable(expr.table)
        raise self.fail("expression statement has no effect", t)

    # expressions --------------------------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> ast.Expr:
        cond = self.binary(_BINARY_LEVELS)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            els = self.parse_expr()
            return ast.Ternary(cond, then, els)
        return cond

    def parse_unary(self) -> ast.Expr:
        t = self.peek()
        if t.text in ("!", "~", "-") and t.kind is TokenKind.PUNCT:
            self.next()
            return ast.Unary(t.text, self.parse_unary())
        if t.text == "(" :
            # cast or parenthesized
            save = self.pos
            self.next()
            if self._is_type_start():
                try:
                    ty = self.parse_type()
                    if self.accept(")"):
                        return ast.CastExpr(ty, self.parse_unary())
                except P4ParseError:
                    pass
            self.pos = save
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return self.parse_postfix_ops(e)
        if self.accept("{"):
            return ast.TupleExpr(self._list(self.parse_expr, "}"))
        if t.kind is TokenKind.NUMBER:
            self.next()
            assert t.value is not None
            width = None
            m = re.match(r"(\d+)[ws]", t.text)
            if m:
                width = int(m.group(1))
            return ast.Num(t.value, width)
        if t.kind is TokenKind.IDENT:
            if t.text in self.prog.constants and self.peek(1).text not in (".", "("):
                self.next()
                return ast.Num(self.prog.constants[t.text])
            return self.parse_postfix_ops(self.parse_path_or_call())
        raise self.fail(f"unexpected token {t.text!r}", t)

    def parse_path_or_call(self) -> ast.Expr:
        parts = [self.ident().text]
        # direct action/function call: name(args)
        if self.accept("("):
            args = self._list(self.parse_expr, ")")
            return ast.MethodCall(ast.Path(tuple(parts)), "__direct__", args)
        while self.accept("."):
            nxt = self.ident().text
            if self.accept("("):
                # method call on path
                call = ast.MethodCall(ast.Path(tuple(parts)), nxt, self._list(self.parse_expr, ")"))
                # table.apply().hit / .miss
                if nxt == "apply" and self.accept("."):
                    return ast.ApplyResult(".".join(parts), self.ident().text)
                return call
            parts.append(nxt)
        return ast.Path(tuple(parts))

    def parse_postfix_ops(self, e: ast.Expr) -> ast.Expr:
        while self.accept("["):
            hi = self.parse_const_expr()
            self.expect(":")
            lo = self.parse_const_expr()
            self.expect("]")
            e = ast.Slice(e, hi, lo)
        return e


def _const_eval(e: ast.Expr, consts: dict[str, int]) -> Optional[int]:
    if isinstance(e, ast.Num):
        return e.value
    if isinstance(e, ast.Path) and len(e.parts) == 1:
        return consts.get(e.parts[0])
    if isinstance(e, ast.Unary):
        return fold(e.op, _const_eval(e.value, consts))
    if isinstance(e, ast.Binary):
        return fold(e.op, _const_eval(e.left, consts), _const_eval(e.right, consts))
    return None


def parse_p4(source: str) -> ast.Program:
    """Parse P4-16 source text (the subset our baselines use)."""
    return _Parser(source).parse()
