"""The frontend core shared by the NetCL and P4-16 parsers.

Both languages are read with the same pieces, each with its own tables and
its own grammar on top: one :class:`Token` type, :func:`strip_comments`,
one compiled-regex scanner (:func:`scan`) driven by a language's
:class:`Lexicon`, the recursive-descent base :class:`Cursor` (with one
precedence-climbing loop) and one constant-folding operator table
(:func:`fold`).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Optional, Union


class TokenKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    CHARLIT = auto()
    STRING = auto()
    PUNCT = auto()
    KEYWORD = auto()
    EOF = auto()


@dataclass(slots=True)
class Token:
    kind: TokenKind
    text: str
    value: Optional[int]  # numeric value for NUMBER / CHARLIT
    line: int
    col: int

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def at(self, line: int, col: int) -> Token:
        """This token as written at ``line:col`` (a macro expansion's use site)."""
        return Token(self.kind, self.text, self.value, line, col)


_COMMENT = re.compile(r"//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)")


def strip_comments(source: str) -> str:
    """``source`` with every comment blanked: each character of a ``//`` or
    ``/* */`` comment but a newline becomes a space, so what follows keeps
    its line and column.  An unterminated ``/*`` runs to the end."""
    return _COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group()), source)


# -- scanner -----------------------------------------------------------------------

#: what a rule does with its match: ``None`` skips it, a :class:`TokenKind`
#: makes a token of that kind (``IDENT`` first looks the text up in the word
#: table), a function returns ``(kind, text, value)`` or raises
#: ``ValueError(message)`` for a malformed literal
Action = Union[None, TokenKind, Callable[[str], tuple]]


def _unexpected(text: str) -> tuple:
    raise ValueError(f"unexpected character {text!r}")


class Lexicon:
    """One language's lexical rules: ``(name, pattern, action)`` rules where
    the first pattern to match at a position wins (so longer punctuators
    come first), the ``words`` an identifier-shaped match may stand for
    (keywords, ``true``) as ``(kind, text, value)``, and ``error(message,
    line, col)``, which builds the language's exception."""

    def __init__(
        self,
        rules: list[tuple[str, str, Action]],
        words: dict[str, tuple],
        error: Callable[[str, int, int], Exception],
    ) -> None:
        rules = [*rules, ("unexpected", r"[\s\S]", _unexpected)]
        self.regex = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern, _ in rules))
        self.actions = {name: action for name, _, action in rules}
        self.words = words
        self.error = error


def scan(source: str, lexicon: Lexicon) -> list[Token]:
    """The tokens of ``source``, ending in an ``EOF`` token; lines and
    columns are 1-based and a tab is one column."""
    tokens: list[Token] = []
    append = tokens.append
    actions, words = lexicon.actions, lexicon.words
    line, bol = 1, 0  # bol: offset of the current line's first character
    for m in lexicon.regex.finditer(source):
        action = actions[m.lastgroup]
        text = m.group()
        start = m.start()
        if action is not None:
            if action is TokenKind.IDENT:
                kind, spelling, value = words.get(text) or (action, text, None)
            elif isinstance(action, TokenKind):
                kind, spelling, value = action, text, None
            else:
                try:
                    kind, spelling, value = action(text)
                except ValueError as exc:
                    raise lexicon.error(str(exc), line, start - bol + 1) from None
            append(Token(kind, spelling, value, line, start - bol + 1))
        if "\n" in text:
            line += text.count("\n")
            bol = start + text.rindex("\n") + 1
    append(Token(TokenKind.EOF, "", None, line, len(source) - bol + 1))
    return tokens


def integer(text: str, digits: str, base: int) -> int:
    """``int(digits, base)`` for the literal ``text``; a malformed one
    (``0x``, ``0b_``) is a ``ValueError`` naming it."""
    try:
        return int(digits, base)
    except ValueError:
        raise ValueError(f"malformed number {text!r}") from None


# -- recursive descent -------------------------------------------------------------

_NAMED = (TokenKind.PUNCT, TokenKind.KEYWORD, TokenKind.IDENT)


def precedence(levels: list[list[str]]) -> dict[str, int]:
    """Binary operators by level, loosest first, as :meth:`Cursor.binary`
    takes them: operator -> level."""
    return {op: level for level, ops in enumerate(levels) for op in ops}


class Cursor:
    """A position in a token list that ends in ``EOF`` (never consumed).

    A grammar subclasses it and sets ``lexicon``, whose ``error`` makes
    every exception :meth:`fail` returns; to use :meth:`binary` it provides
    ``parse_unary()`` and ``binary_node(op_token, left, right)``.
    """

    lexicon: Lexicon

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str, tok: Optional[Token] = None) -> Exception:
        """The language's error for ``message`` at ``tok`` (default: the next token)."""
        tok = tok or self.peek()
        return self.lexicon.error(message, tok.line, tok.col)

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[Token]:
        """Consume the punctuator, keyword or name ``text`` if it is next."""
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in _NAMED:
            self.pos += 1
            return tok
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise self.fail(f"expected {text!r}, found {self.peek().text!r}")
        return tok

    def ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENT:
            raise self.fail(f"expected identifier, found {tok.text!r}")
        self.pos += 1
        return tok

    def number(self) -> int:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.NUMBER and tok.kind is not TokenKind.CHARLIT:
            raise self.fail(f"expected number, found {tok.text!r}")
        self.pos += 1
        return tok.value

    def binary(self, levels: dict[str, int], lowest: int = 0):
        """Left-associative binary operators of level ``lowest`` and tighter
        (``levels`` from :func:`precedence`), by precedence climbing."""
        left = self.parse_unary()
        while True:
            tok = self.tokens[self.pos]
            level = levels.get(tok.text)
            if level is None or level < lowest or tok.kind is not TokenKind.PUNCT:
                return left
            self.pos += 1
            left = self.binary_node(tok, left, self.binary(levels, level + 1))


# -- constant folding ----------------------------------------------------------------

_UNARY = {"-": operator.neg, "~": operator.invert, "!": lambda v: int(not v)}
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.floordiv,
    "%": operator.mod, "<<": operator.lshift, ">>": operator.rshift,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}


def fold(op: str, *operands: Optional[int]) -> Optional[int]:
    """``op`` applied to one (unary) or two (binary) constant operands, or
    None: an operand is not constant (None), ``op`` does not fold, or the
    result does not exist (``/ 0``, ``% 0``, a negative shift)."""
    fn = (_UNARY if len(operands) == 1 else _BINARY).get(op)
    if fn is None or None in operands:
        return None
    try:
        return fn(*operands)
    except (ArithmeticError, ValueError):
        return None
