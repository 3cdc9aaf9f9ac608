"""The master-regex lexer against the character-at-a-time reference.

Both lexers must produce the same ``(kind, text, value, line, column)``
stream, or the same ``LexError`` message and location: error text feeds
the seeded repair prompts, so a changed message would shift the goldens.
Where the reference leaks another exception type, the new lexer must
raise ``LexError`` instead.  Parsing with either lexer must also pickle
to the same bytes, because the compile cache and the store persist those
pickles and count their bytes.
"""

from __future__ import annotations

import pickle
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bench.problems import all_problems
from repro.hdl import parser as parser_mod
from repro.hdl.errors import LexError, SourceLocation
from repro.hdl.lexer import TokKind, tokenize

from . import hdl_lexer_reference as reference

SOURCES = [src for p in all_problems() for src in (p.reference, p.testbench)]

FIXED = [
    "é", "٣", "²", "½", "\x00", "\r", "a\tb\t\tc", '"two\nlines" x',
    '"escape at eof\\', "/* never\n ends\n", "8'", "'s", "a\r\nb",
    "é1 x٣ ٣'h1", "8'sİ", "8'S", "8'sh1_f 'b1x 4'd? 1_0", "'", "'h",
    "12abc", "a<<=b", "x/ /y", "`define X\nq", "a//c", '"a\\q\\n\\\\"',
    "3'q1", "0'h1", "$bogus", "$", "8'h ;", "8'delse;", "8'd_;",
]

# A literal size of eight or more digits makes both lexers build a
# ``1 << width`` mask of up to gigabytes; hypothesis text skips such sizes
# (and only those: long plain numbers and long digit strings stay in).
_HUGE_SIZE = re.compile(r"(?:\d_*){8}[\d_]*'")


def _stream(tokenize_fn, source: str):
    try:
        return [(t.kind.name, t.text, t.value, t.loc.line, t.loc.column)
                for t in tokenize_fn(source)]
    except LexError as exc:
        return ("LexError", exc.message, exc.loc)


def assert_same(source: str) -> None:
    try:
        want = _stream(reference.tokenize, source)
    except Exception:        # the reference leaks: the new lexer must not
        with pytest.raises(LexError):
            tokenize(source)
        return
    assert _stream(tokenize, source) == want, repr(source)


def _mutants(rng: random.Random, source: str, count: int) -> list[str]:
    """Token delete, duplicate and splice mutants of ``source``."""
    lines = source.split("\n")
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    offsets = sorted({starts[t.loc.line - 1] + t.loc.column - 1
                      for t in reference.tokenize(source)})
    spans = list(zip(offsets, offsets[1:]))
    out = []
    for _ in range(count):
        a, b = rng.choice(spans)
        c, d = rng.choice(spans)
        out.append(source[:a] + source[b:])                        # delete
        out.append(source[:b] + source[a:b] + source[b:])          # duplicate
        out.append(source[:a] + source[c:d] + source[b:])          # splice
    return out


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_problem_sources(index):
    assert_same(SOURCES[index])


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_problem_source_mutants(index):
    rng = random.Random(index)
    for mutant in _mutants(rng, SOURCES[index], 6):
        assert_same(mutant)


@pytest.mark.parametrize("source", FIXED)
def test_fixed_inputs(source):
    assert_same(source)


_VERILOG_CHARS = st.sampled_from(list(
    "abhsxz_$019'\"\\/*`+-<>=!&|^~?:;,.()[]{}#@ \t\r\n") + [
    "é", "٣", "²", "½", "\x00", "İ", "//", "/*", "*/", "8'h", "'b",
    "module", "$display"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_VERILOG_CHARS, max_size=40).map("".join))
def test_hypothesis_verilog_like_text(source):
    assume(not _HUGE_SIZE.search(source))
    assert_same(source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_hypothesis_any_text(source):
    assume(not _HUGE_SIZE.search(source))
    assert_same(source)


def _reference_tokens(source: str):
    """Reference tokens with this package's ``TokKind`` for the parser."""
    return [reference.Token(TokKind[t.kind.name], t.text, t.loc, t.value)
            for t in reference.tokenize(source)]


@pytest.mark.parametrize("index", range(len(SOURCES)))
def test_parse_pickles_identically(index, monkeypatch):
    source = SOURCES[index]
    new = pickle.dumps(parser_mod.parse(source), pickle.HIGHEST_PROTOCOL)
    monkeypatch.setattr(parser_mod, "tokenize", _reference_tokens)
    old = pickle.dumps(parser_mod.parse(source), pickle.HIGHEST_PROTOCOL)
    assert new == old


def test_token_fields_and_loc():
    tok = tokenize("\n  foo")[0]
    assert (tok.kind, tok.text, tok.line, tok.column) == \
        (TokKind.IDENT, "foo", 2, 3)
    assert tok.loc == SourceLocation(2, 3) and tok.loc is tok.loc
    assert repr(tok) == "Token(IDENT, 'foo')"
    assert tok == tokenize("\n  foo")[0]
    assert tok != tokenize("\n foo")[0]
