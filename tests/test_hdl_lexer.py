"""Tests for the mini-Verilog lexer."""

import time

import pytest

from repro.hdl.errors import LexError, SourceLocation
from repro.hdl.lexer import TokKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokKind.EOF

    def test_keywords_vs_identifiers(self):
        toks = tokenize("module foo")
        assert toks[0].kind is TokKind.KEYWORD
        assert toks[1].kind is TokKind.IDENT

    def test_identifier_with_dollar_and_digits(self):
        toks = tokenize("a1_b$2")
        assert toks[0].text == "a1_b$2"

    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_directive_skipped(self):
        assert texts("`timescale 1ns/1ps\na") == ["a"]

    def test_location_tracking(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2 and toks[1].loc.column == 3


class TestNumbers:
    def test_plain_decimal(self):
        tok = tokenize("42")[0]
        assert tok.kind is TokKind.NUMBER and tok.value == 42

    def test_underscores_in_decimal(self):
        assert tokenize("1_000")[0].value == 1000

    def test_sized_hex(self):
        tok = tokenize("8'hFF")[0]
        assert tok.kind is TokKind.SIZED_NUMBER
        assert tok.value == (8, 0xFF, 0)

    def test_sized_binary_with_x(self):
        width, value, xmask = tokenize("4'b1x0z")[0].value
        assert width == 4
        assert xmask == 0b0101
        assert value == 0b1000

    def test_sized_decimal(self):
        assert tokenize("10'd512")[0].value == (10, 512, 0)

    def test_sized_octal(self):
        assert tokenize("6'o77")[0].value == (6, 0o77, 0)

    def test_value_masked_to_width(self):
        width, value, _ = tokenize("4'hFF")[0].value
        assert width == 4 and value == 0xF

    def test_bad_base_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'q12")

    def test_missing_digits_rejected(self):
        with pytest.raises(LexError):
            tokenize("8'h ;")

    def test_non_decimal_digits_in_sized_decimal_rejected(self):
        # Used to escape as a bare ValueError from int("else", 10).
        with pytest.raises(LexError) as info:
            tokenize("8'delse;")
        assert info.value.loc == SourceLocation(1, 1)
        assert "invalid digit 'e' for base 10" in str(info.value)

    def test_sized_decimal_of_only_underscores_rejected(self):
        with pytest.raises(LexError, match="missing digits"):
            tokenize("x = 8'd_;")

    @pytest.mark.parametrize("source,column",
                             [("1²", 1), ("²", 1), ("x = 1²;", 5)])
    def test_non_decimal_digit_run_rejected(self, source, column):
        # str.isdigit runs such as "1²" used to escape as a bare ValueError
        # from int().
        with pytest.raises(LexError, match="invalid digit '²' in number") \
                as info:
            tokenize(source)
        assert info.value.loc == SourceLocation(1, column)

    def test_non_decimal_digit_size_rejected(self):
        with pytest.raises(LexError, match="invalid digit '²' in number") \
                as info:
            tokenize("a = ²'h1;")
        assert info.value.loc == SourceLocation(1, 5)

    def test_decimal_too_long_for_int_rejected(self):
        with pytest.raises(LexError, match="number too long") as info:
            tokenize("a = " + "1" * 5000 + ";")
        assert info.value.loc == SourceLocation(1, 5)

    @pytest.mark.parametrize("size", ["10000000", "99999999999", "1_0000_000"])
    def test_huge_literal_width_rejected(self, size):
        # Sizes of 10**7 and up used to build a ``1 << width`` mask of up
        # to gigabytes before any error could surface.
        start = time.perf_counter()
        with pytest.raises(LexError, match="literal width must be below") \
                as info:
            tokenize(f"x = 1;\n  a = {size}'h1;")
        assert time.perf_counter() - start < 0.5
        assert info.value.loc == SourceLocation(2, 7)

    def test_largest_literal_width_accepted(self):
        tok = tokenize("9999999'h1")[0]
        assert tok.kind is TokKind.SIZED_NUMBER
        assert tok.value == (9_999_999, 1, 0)


class TestOperatorsAndStrings:
    def test_multichar_operators_greedy(self):
        assert texts("a <<< b") == ["a", "<<<", "b"]
        assert texts("a === b") == ["a", "===", "b"]
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_string_literal(self):
        tok = tokenize('"hello"')[0]
        assert tok.kind is TokKind.STRING and tok.value == "hello"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb"')[0].value == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_system_task(self):
        tok = tokenize("$display")[0]
        assert tok.kind is TokKind.SYSTASK

    def test_unknown_system_task(self):
        with pytest.raises(LexError):
            tokenize("$bogus")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a £ b")
