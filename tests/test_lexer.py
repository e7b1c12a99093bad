"""Unit tests for the NetCL lexer and preprocessor."""

import pytest

from repro.lang.errors import CompileError
from repro.lang.lexer import Lexer, TokenKind, preprocess


def toks(src, **kw):
    return [t for t in Lexer(src, **kw).tokens if t.kind != TokenKind.EOF]


class TestTokens:
    def test_identifiers_and_keywords(self):
        ts = toks("int foo _net_ _kernel bar2")
        assert [t.kind for t in ts] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]

    def test_decimal_hex_binary_numbers(self):
        ts = toks("42 0x2A 0b101010 7u 9UL")
        assert [t.value for t in ts] == [42, 42, 42, 7, 9]

    def test_char_literals(self):
        ts = toks(r"'+' 'a' '\n' '\0'")
        assert [t.value for t in ts] == [ord("+"), ord("a"), 10, 0]

    def test_true_false_become_numbers(self):
        ts = toks("true false")
        assert [t.value for t in ts] == [1, 0]

    def test_maximal_munch_operators(self):
        ts = toks("a<<=b >>= :: && || ++ <=")
        texts = [t.text for t in ts if t.kind == TokenKind.PUNCT]
        assert texts == ["<<=", ">>=", "::", "&&", "||", "++", "<="]

    def test_line_and_column_tracking(self):
        ts = toks("a\n  b")
        assert (ts[0].line, ts[0].col) == (1, 1)
        assert (ts[1].line, ts[1].col) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            toks("int a = $;")

    @pytest.mark.parametrize("literal", ["0x", "0b", "0X", "'", "'\\"])
    def test_malformed_literal_is_a_compile_error_at_its_start(self, literal):
        with pytest.raises(CompileError) as exc:
            toks(f"\nint a = {literal}")
        assert (exc.value.first.line, exc.value.first.col) == (2, 9)


class TestComments:
    def test_line_comment(self):
        assert [t.text for t in toks("a // comment\n b")] == ["a", "b"]

    def test_block_comment_preserves_lines(self):
        ts = toks("a /* x\n y */ b")
        assert ts[1].line == 2

    def test_inline_block_comment_preserves_columns(self):
        with pytest.raises(CompileError) as exc:
            toks("int a = 1 /* x */ + $;")
        assert (exc.value.first.line, exc.value.first.col) == (1, 21)

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            toks('"abc')


class TestPreprocessor:
    def test_object_macro(self):
        ts = toks("#define N 42\nint a[N];")
        assert any(t.value == 42 for t in ts)

    def test_macro_expands_recursively(self):
        ts = toks("#define A B\n#define B 7\nA")
        assert ts[0].value == 7

    def test_recursive_macro_rejected(self):
        with pytest.raises(CompileError):
            toks("#define A A\nA")

    def test_function_like_macro_rejected(self):
        with pytest.raises(CompileError):
            preprocess("#define F(x) x")

    def test_extra_defines_override_ifndef(self):
        src = "#ifndef N\n#define N 2\n#endif\nN"
        assert toks(src)[0].value == 2
        assert toks(src, extra_defines={"N": 9})[0].value == 9

    def test_ifdef_else(self):
        src = "#ifdef X\n1\n#else\n2\n#endif"
        assert toks(src)[0].value == 2
        assert toks(src, extra_defines={"X": 1})[0].value == 1

    def test_unterminated_conditional(self):
        with pytest.raises(CompileError):
            preprocess("#ifndef A\nint x;")

    def test_undef(self):
        src = "#define N 1\n#undef N\n#ifdef N\n1\n#else\n2\n#endif"
        assert toks(src)[0].value == 2

    def test_macro_body_with_expression(self):
        ts = toks("#define M 1 << 4\nM")
        assert [t.text for t in ts] == ["1", "<<", "4"]
