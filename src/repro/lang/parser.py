"""Recursive-descent parser for the NetCL C/C++ subset."""

from __future__ import annotations

from typing import Optional

from repro.lang import ast
from repro.lang.errors import CompileError
from repro.lang.lexer import NETCL, Lexer
from repro.syntax import Cursor, Token, TokenKind, fold, precedence

# Fundamental type spellings -> (width, signed).  ``char`` is unsigned on
# the device (bytes in message fields), matching the generated bit<8>.
_TYPE_NAMES: dict[str, tuple[int, bool]] = {
    "bool": (1, False),
    "char": (8, False),
    "short": (16, True),
    "int": (32, True),
    "long": (64, True),
    "uint8_t": (8, False),
    "uint16_t": (16, False),
    "uint32_t": (32, False),
    "uint64_t": (64, False),
    "int8_t": (8, True),
    "int16_t": (16, True),
    "int32_t": (32, True),
    "int64_t": (64, True),
    "u8": (8, False),
    "u16": (16, False),
    "u32": (32, False),
    "u64": (64, False),
    "i8": (8, True),
    "i16": (16, True),
    "i32": (32, True),
    "i64": (64, True),
    "size_t": (32, False),
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_BINARY_LEVELS = precedence(
    [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="], ["<", "<=", ">", ">="], ["<<", ">>"],
     ["+", "-"], ["*", "/", "%"]]
)


class Parser(Cursor):
    lexicon = NETCL

    def __init__(self, lexer: Lexer) -> None:
        super().__init__(lexer.tokens)

    # -- program -----------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        prog = ast.Program(line=1)
        while self.peek().kind != TokenKind.EOF:
            prog.decls.append(self.parse_top_level())
        return prog

    def parse_top_level(self):
        specs = self.parse_specifiers()
        ty = self.parse_type()
        name_tok = self.ident()
        if self.peek().is_punct("("):
            return self.parse_function(specs, ty, name_tok)
        return self.finish_var_decl(specs, ty, name_tok, top_level=True)

    # -- specifiers -----------------------------------------------------------------
    def parse_specifiers(self) -> ast.Specifiers:
        specs = ast.Specifiers()
        while True:
            if self.accept("_kernel"):
                self.expect("(")
                specs.kernel = self.number()
                self.expect(")")
            elif self.accept("_net_"):
                specs.net = True
            elif self.accept("_managed_"):
                specs.managed = True
            elif self.accept("_lookup_"):
                specs.lookup = True
            elif self.accept("_at"):
                self.expect("(")
                locs = [self.number()]
                while self.accept(","):
                    locs.append(self.number())
                self.expect(")")
                specs.at = tuple(locs)
            elif self.accept("static"):
                specs.static = True
            elif self.accept("const"):
                specs.const = True
            else:
                return specs

    # -- types --------------------------------------------------------------------------
    def _is_type_start(self, tok: Token) -> bool:
        if tok.kind == TokenKind.KEYWORD and tok.text in (
            "void",
            "bool",
            "char",
            "short",
            "int",
            "long",
            "unsigned",
            "signed",
            "auto",
            "const",
        ):
            return True
        if tok.kind == TokenKind.IDENT and tok.text in _TYPE_NAMES:
            return True
        if tok.kind == TokenKind.IDENT and tok.text == "ncl":
            nxt, nxt2 = self.peek(1), self.peek(2)
            return nxt.is_punct("::") and nxt2.kind == TokenKind.IDENT and nxt2.text in ("kv", "rv")
        return False

    def parse_type(self) -> ast.SrcType:
        self.accept("const")
        if self.accept("void"):
            return ast.VoidSrcType()
        if self.accept("auto"):
            return ast.AutoType()
        if self.accept("ncl"):
            # ncl::kv<K,V> / ncl::rv<R,V>
            self.expect("::")
            kind_tok = self.ident()
            if kind_tok.text not in ("kv", "rv"):
                raise self.fail(f"unknown ncl type ncl::{kind_tok.text}", kind_tok)
            self.expect("<")
            key = self._require_scalar(self.parse_type(), kind_tok)
            self.expect(",")
            value = self._require_scalar(self.parse_type(), kind_tok)
            self.expect(">")
            return ast.LookupPairType(kind_tok.text, key, value)
        # (unsigned|signed)? (char|short|int|long)* | typedef name
        signedness: Optional[bool] = None
        if self.accept("unsigned"):
            signedness = False
        elif self.accept("signed"):
            signedness = True
        tok = self.peek()
        base: Optional[str] = None
        if tok.kind == TokenKind.KEYWORD and tok.text in ("char", "short", "int", "long", "bool"):
            base = tok.text
            self.next()
            if base == "long" and self.peek().is_keyword("long"):
                self.next()
            if base in ("short", "long") and self.peek().is_keyword("int"):
                self.next()
        elif tok.kind == TokenKind.IDENT and tok.text in _TYPE_NAMES:
            base = tok.text
            self.next()
        elif signedness is not None:
            base = "int"  # bare "unsigned"/"signed"
        else:
            raise self.fail(f"expected type, found {tok.text!r}", tok)
        width, signed = _TYPE_NAMES[base]
        if signedness is not None:
            signed = signedness
        self.accept("const")
        return ast.ScalarType(width, signed, base)

    def _require_scalar(self, ty: ast.SrcType, tok: Token) -> ast.ScalarType:
        if not isinstance(ty, ast.ScalarType):
            raise self.fail("kv/rv type parameters must be fundamental types", tok)
        return ty

    # -- variable declarations ---------------------------------------------------------------
    def finish_var_decl(
        self, specs: ast.Specifiers, ty: ast.SrcType, name_tok: Token, *, top_level: bool
    ) -> ast.VarDecl:
        dims: list[int] = []
        inferred_outer = False
        while self.accept("["):
            if self.accept("]"):
                if dims:
                    raise self.fail("only the outermost dimension may be inferred", name_tok)
                dims.append(-1)
                inferred_outer = True
            else:
                dims.append(self._const_expr())
                self.expect("]")
        init: Optional[ast.Expr] = None
        if self.accept("="):
            init = self.parse_initializer()
        self.expect(";")
        if inferred_outer:
            if not isinstance(init, ast.InitList):
                raise self.fail("array with inferred size requires an initializer list", name_tok)
            dims[0] = len(init.items)
        return ast.VarDecl(
            line=name_tok.line, col=name_tok.col,
            specs=specs,
            type=ty,
            name=name_tok.text,
            dims=tuple(dims),
            init=init,
        )

    def _const_expr(self) -> int:
        """Evaluate a constant expression in a dimension/spec position."""
        expr = self.parse_ternary()
        value = _eval_const(expr)
        if value is None:
            raise CompileError("expected a constant expression", expr.line)
        return value

    def parse_initializer(self) -> ast.Expr:
        brace = self.accept("{")
        if brace:
            items: list[ast.Expr] = []
            if not self.peek().is_punct("}"):
                items.append(self.parse_initializer())
                while self.accept(","):
                    if self.peek().is_punct("}"):
                        break  # trailing comma
                    items.append(self.parse_initializer())
            self.expect("}")
            return ast.InitList(line=brace.line, col=brace.col, items=items)
        return self.parse_assignment()

    # -- functions -------------------------------------------------------------------------------
    def parse_function(self, specs: ast.Specifiers, ret: ast.SrcType, name_tok: Token) -> ast.FuncDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.peek().is_punct(")"):
            params.append(self.parse_param())
            while self.accept(","):
                params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return ast.FuncDecl(
            line=name_tok.line, col=name_tok.col,
            specs=specs,
            ret_type=ret,
            name=name_tok.text,
            params=params,
            body=body,
        )

    def parse_param(self) -> ast.Param:
        tail = bool(self.accept("_tail_"))
        ty = self.parse_type()
        spec: Optional[int] = None
        if self.accept("_spec"):
            self.expect("(")
            spec = self._const_expr()
            self.expect(")")
        ptr = bool(self.accept("*"))
        byref = bool(self.accept("&")) if not ptr else False
        name_tok = self.ident()
        dims: list[int] = []
        while self.accept("["):
            dims.append(self._const_expr())
            self.expect("]")
        return ast.Param(
            line=name_tok.line, col=name_tok.col,
            type=ty,
            name=name_tok.text,
            byref=byref,
            ptr=ptr,
            spec=spec,
            dims=tuple(dims),
            tail=tail,
        )

    # -- statements ----------------------------------------------------------------------------------
    def parse_block(self) -> ast.Block:
        brace = self.expect("{")
        block = ast.Block(line=brace.line, col=brace.col)
        while not self.peek().is_punct("}"):
            if self.peek().kind == TokenKind.EOF:
                raise self.fail("unterminated block", brace)
            block.stmts.append(self.parse_statement())
        self.expect("}")
        return block

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("for"):
            return self.parse_for()
        if self.accept("return"):
            value = None if self.peek().is_punct(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(line=tok.line, col=tok.col, value=value)
        if tok.is_keyword("while") or tok.is_keyword("do"):
            raise self.fail(
                "while/do loops are not supported in device code; use a "
                "fully-unrollable for loop (§V-D)",
                tok,
            )
        if tok.is_keyword("goto"):
            raise self.fail("goto is not supported in device code (§V-D)", tok)
        if tok.is_keyword("switch"):
            raise self.fail("switch is not supported; use if/else chains", tok)
        if tok.is_keyword("break") or tok.is_keyword("continue"):
            raise self.fail(
                f"{tok.text} is not supported: loops must be fully unrollable (§V-D)", tok
            )
        if self._is_type_start(tok) or tok.is_keyword("const") or tok.is_keyword("static"):
            return self.parse_local_decl()
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(line=tok.line, col=tok.col, expr=expr)

    def parse_local_decl(self) -> ast.Stmt:
        specs = self.parse_specifiers()
        ty = self.parse_type()
        name_tok = self.ident()
        if self.peek().is_punct("("):
            raise self.fail("nested function declarations are not allowed", name_tok)
        return self.finish_var_decl(specs, ty, name_tok, top_level=False)

    def parse_if(self) -> ast.If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then = self.parse_statement()
        els = None
        if self.accept("else"):
            els = self.parse_statement()
        return ast.If(line=tok.line, col=tok.col, cond=cond, then=then, els=els)

    def parse_for(self) -> ast.For:
        tok = self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if self._is_type_start(self.peek()):
            init = self.parse_local_decl()
        elif not self.accept(";"):
            expr = self.parse_expression()
            self.expect(";")
            init = ast.ExprStmt(line=tok.line, col=tok.col, expr=expr)
        cond = None if self.peek().is_punct(";") else self.parse_expression()
        self.expect(";")
        step = None if self.peek().is_punct(")") else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.For(line=tok.line, col=tok.col, init=init, cond=cond, step=step, body=body)

    # -- expressions (precedence climbing) ----------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_ternary()
        tok = self.peek()
        if tok.kind == TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self.next()
            rhs = self.parse_assignment()
            return ast.Assign(line=tok.line, col=tok.col, op=tok.text, target=lhs, value=rhs)
        return lhs

    def parse_ternary(self) -> ast.Expr:
        cond = self.binary(_BINARY_LEVELS)
        tok = self.accept("?")
        if tok:
            then = self.parse_assignment()
            self.expect(":")
            els = self.parse_assignment()
            return ast.Ternary(line=tok.line, col=tok.col, cond=cond, then=then, els=els)
        return cond

    def binary_node(self, tok: Token, left: ast.Expr, right: ast.Expr) -> ast.Expr:
        return ast.Binary(line=tok.line, col=tok.col, op=tok.text, left=left, right=right)

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == TokenKind.PUNCT and tok.text in ("!", "~", "-", "+", "&", "*"):
            self.next()
            if tok.text == "*":
                raise self.fail("pointer dereference is not supported in device code (§V-D)", tok)
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=operand)
        if tok.kind == TokenKind.PUNCT and tok.text in ("++", "--"):
            self.next()
            operand = self.parse_unary()
            return ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=operand, prefix=True)
        # C-style cast: '(' type ')' unary
        if tok.is_punct("(") and self._is_type_start(self.peek(1)):
            self.next()
            ty = self.parse_type()
            self.expect(")")
            operand = self.parse_unary()
            call = ast.Call(line=tok.line, col=tok.col, name="__cast__", args=[operand], is_ncl=False)
            call.template_args = [ty]
            return call
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(line=tok.line, col=tok.col, base=expr, index=index)
            elif tok.kind == TokenKind.PUNCT and tok.text in ("++", "--"):
                self.next()
                expr = ast.Unary(line=tok.line, col=tok.col, op=tok.text, operand=expr, prefix=False)
            elif self.accept("."):
                field_tok = self.ident()
                if not isinstance(expr, ast.Ident):
                    raise self.fail(
                        "member access is only supported on builtins "
                        "(device.id, msg.src, ...)",
                        tok,
                    )
                expr = ast.Member(line=tok.line, col=tok.col, base=expr.name, field_name=field_tok.text)
            elif tok.is_punct("->"):
                raise self.fail("pointer member access is not supported", tok)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind in (TokenKind.NUMBER, TokenKind.CHARLIT):
            self.next()
            assert tok.value is not None
            return ast.Num(line=tok.line, col=tok.col, value=tok.value)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if tok.kind == TokenKind.IDENT:
            self.next()
            name = tok.text
            is_ncl = False
            if name == "ncl" and self.accept("::"):
                parts = [self.ident().text]
                while self.accept("::"):
                    parts.append(self.ident().text)
                name = ".".join(parts)
                is_ncl = True
            template_args: list[object] = []
            if is_ncl and self.accept("<"):
                template_args.append(self._parse_template_arg())
                while self.accept(","):
                    template_args.append(self._parse_template_arg())
                self.expect(">")
            if self.accept("("):
                args: list[ast.Expr] = []
                if not self.peek().is_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept(","):
                        args.append(self.parse_assignment())
                self.expect(")")
                call = ast.Call(line=tok.line, col=tok.col, name=name, args=args, is_ncl=is_ncl)
                call.template_args = template_args
                return call
            if is_ncl:
                raise self.fail(f"ncl::{name} must be called", tok)
            return ast.Ident(line=tok.line, col=tok.col, name=name)
        raise self.fail(f"unexpected token {tok.text!r}", tok)

    def _parse_template_arg(self) -> object:
        tok = self.peek()
        if tok.kind == TokenKind.NUMBER:
            self.next()
            return tok.value
        return self.parse_type()


def _eval_const(expr: ast.Expr) -> Optional[int]:
    """Best-effort constant evaluation of a parse-time expression."""
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.operand is not None:
        return fold(expr.op, _eval_const(expr.operand))
    if isinstance(expr, ast.Binary) and expr.left is not None and expr.right is not None:
        return fold(expr.op, _eval_const(expr.left), _eval_const(expr.right))
    return None


def parse_source(source: str, extra_defines: Optional[dict[str, int]] = None) -> ast.Program:
    """Parse NetCL source text into an AST."""
    return Parser(Lexer(source, extra_defines)).parse_program()
