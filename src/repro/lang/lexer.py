"""Lexer for the NetCL C/C++ subset, with a tiny object-macro preprocessor.

The preprocessor supports ``//`` and ``/* */`` comments and object-like
``#define NAME value`` macros (the only preprocessor feature the paper's
applications use — e.g. ``CMS_HASHES``, ``NUM_SLOTS``, ``THRESH``).
Function-like macros are intentionally unsupported: NetCL's whole pitch is
that loop unrolling and code generation replace P4's preprocessor abuse
(§II, [53] [54]).  Scanning is :func:`repro.syntax.scan` over this
module's rule table.
"""

from __future__ import annotations

import copy
import re
from typing import Iterator, Optional

from repro.lang.errors import CompileError
from repro.syntax import Lexicon, Token, TokenKind, integer, scan, strip_comments


KEYWORDS = {
    "if",
    "else",
    "for",
    "while",
    "do",
    "return",
    "break",
    "continue",
    "goto",
    "struct",
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
    "static",
    "true",
    "false",
    "sizeof",
    "switch",
    "case",
    "default",
    # NetCL specifiers (Table I)
    "_kernel",
    "_net_",
    "_managed_",
    "_lookup_",
    "_at",
    "_spec",
    "_tail_",
}

# Multi-character punctuators, longest first so maximal munch works.
PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "::",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "=",
    "?",
    ":",
    ".",
]


def preprocess(src: str, extra_defines: Optional[dict[str, int]] = None) -> tuple[str, dict[str, str]]:
    """Strip comments and collect ``#define`` macros.

    Returns the source with directive lines blanked, plus the macro table.
    ``extra_defines`` lets callers (e.g. benchmark parameter sweeps) inject
    compile-time constants, like ``-D`` on a C compiler command line.
    """
    src = strip_comments(src)
    macros: dict[str, str] = {}
    if extra_defines:
        macros.update({k: str(v) for k, v in extra_defines.items()})
    lines = src.split("\n")
    out_lines: list[str] = []
    # Conditional-inclusion stack: each entry is True when the enclosing
    # #if(n)def branch is active.
    cond_stack: list[bool] = []

    def active() -> bool:
        return all(cond_stack)

    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split(None, 2)
            if not parts:
                out_lines.append("")
                continue
            directive = parts[0]
            if directive == "ifdef":
                cond_stack.append(len(parts) > 1 and parts[1] in macros)
            elif directive == "ifndef":
                cond_stack.append(not (len(parts) > 1 and parts[1] in macros))
            elif directive == "else":
                if not cond_stack:
                    raise CompileError("#else without #if", lineno)
                cond_stack[-1] = not cond_stack[-1]
            elif directive == "endif":
                if not cond_stack:
                    raise CompileError("#endif without #if", lineno)
                cond_stack.pop()
            elif not active():
                pass  # directive inside an inactive branch
            elif directive == "define":
                if len(parts) < 2:
                    raise CompileError("malformed #define", lineno)
                name = parts[1]
                if "(" in name:
                    raise CompileError(
                        "function-like macros are not supported in NetCL", lineno
                    )
                macros[name] = parts[2].strip() if len(parts) > 2 else "1"
            elif directive == "undef":
                if len(parts) > 1:
                    macros.pop(parts[1], None)
            elif directive in ("include", "pragma", "if"):
                pass  # tolerated and ignored: NetCL headers are implicit
            else:
                raise CompileError(f"unsupported directive #{directive}", lineno)
            out_lines.append("")
        elif not active():
            out_lines.append("")
        else:
            out_lines.append(line)
    if cond_stack:
        raise CompileError("unterminated #if/#ifdef/#ifndef block", len(lines))
    return "\n".join(out_lines), macros


_ESCAPES = {"n": 10, "t": 9, "0": 0, "r": 13, "\\": 92, "'": 39}


def _charlit(text: str) -> tuple:
    """``'c'`` or ``'\\e'``; the pattern also matches what there is of a
    broken literal (``'``, ``'\\`` at the end, ``'ab``), reported here."""
    escaped = text.startswith("'\\")
    if escaped and len(text) > 2 and text[2] not in _ESCAPES:
        raise ValueError(f"unsupported escape '\\{text[2]}'")
    if len(text) != (4 if escaped else 3):
        raise ValueError("unterminated character literal")
    return TokenKind.CHARLIT, text, _ESCAPES[text[2]] if escaped else ord(text[1])


def _unterminated_string(text: str) -> tuple:
    raise ValueError("unterminated string literal")


def _integer(base: int):
    """A C integer literal in ``base``; ``u`` / ``l`` suffixes are swallowed."""
    return lambda text: (TokenKind.NUMBER, text, integer(text, text.rstrip("uUlL"), base))


NETCL = Lexicon(
    [
        ("space", r"\s+", None),
        ("word", r"[^\W\d]\w*", TokenKind.IDENT),
        ("hex", r"0[xX][0-9a-fA-F]*[uUlL]*", _integer(16)),
        ("bin", r"0[bB][01]*[uUlL]*", _integer(2)),
        ("dec", r"\d+[uUlL]*", _integer(10)),
        ("char", r"'(?:\\[\s\S]?|[\s\S])?'?", _charlit),
        ("string", r'"(?:\\[\s\S]|[^"\\])*"', TokenKind.STRING),
        ("open_string", '"', _unterminated_string),
        ("punct", "|".join(re.escape(p) for p in PUNCTUATORS), TokenKind.PUNCT),
    ],
    words={
        **{kw: (TokenKind.KEYWORD, kw, None) for kw in KEYWORDS},
        "true": (TokenKind.NUMBER, "1", 1),
        "false": (TokenKind.NUMBER, "0", 0),
    },
    error=CompileError,
)


class Lexer:
    """The token stream of a NetCL source, object-like macros expanded.

    A macro body is scanned once, here; its tokens take the line:col of
    each use.  Macros apply to the whole file with their final definition.
    """

    def __init__(self, source: str, extra_defines: Optional[dict[str, int]] = None) -> None:
        self.source, self.macros = preprocess(source, extra_defines)
        lexicon = NETCL
        if not self.macros.keys().isdisjoint(NETCL.words):
            # a macro spelled like a keyword (or true/false) is expanded
            lexicon = copy.copy(NETCL)
            lexicon.words = {w: t for w, t in NETCL.words.items() if w not in self.macros}
        self.tokens = scan(self.source, lexicon)
        if self.macros:
            self._bodies = {name: scan(body, NETCL)[:-1] for name, body in self.macros.items()}
            self.tokens = list(self._expand(self.tokens))

    def _expand(self, tokens, at=None, active=frozenset()) -> Iterator[Token]:
        """``tokens`` with every macro replaced by its body, placed ``at`` the
        line:col of the outermost use."""
        for tok in tokens:
            if tok.kind is TokenKind.IDENT and tok.text in self._bodies:
                use = at or (tok.line, tok.col)
                if tok.text in active:
                    raise CompileError(f"recursive macro {tok.text}", *use)
                yield from self._expand(self._bodies[tok.text], use, active | {tok.text})
            else:
                yield tok.at(*at) if at else tok
