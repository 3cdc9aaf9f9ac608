"""Tokenizer for the mini-Verilog subset.

One master regex scans the source; each match is a token, a newline or
trivia (spaces, comments, `` ` `` directives), and columns count from the
current line's start.  :func:`_fallback` takes what the regex leaves, one
token at a time: starts outside ASCII (``str.isalpha``/``isdigit`` have no
regex class), numbers other than plain ASCII decimals, and errors.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .errors import LexError, SourceLocation

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "if", "else", "case",
    "casez", "endcase", "default", "posedge", "negedge", "or", "for",
    "integer", "parameter", "localparam", "function", "endfunction",
    "signed", "repeat", "while", "genvar", "generate", "endgenerate",
}

# System tasks the simulator understands.
SYSTEM_TASKS = {
    "$display", "$write", "$finish", "$stop", "$time", "$error",
    "$monitor", "$random", "$signed", "$unsigned",
}


class TokKind(Enum):
    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()       # plain decimal integer
    SIZED_NUMBER = auto() # e.g. 8'hff — value is (width, value, xmask)
    STRING = auto()
    OP = auto()
    SYSTASK = auto()
    EOF = auto()


class _TokenFields(NamedTuple):
    kind: TokKind
    text: str
    line: int
    column: int
    value: object = None  # SIZED_NUMBER: (width, value, xmask); NUMBER: int


class _Loc:
    """``Token.loc``: built on first use, then found in the instance dict.
    Unlike ``functools.cached_property`` on Python 3.11, it takes no lock."""

    def __get__(self, tok: Token | None, owner: type) -> SourceLocation:
        if tok is None:
            return self
        loc = tok.__dict__["loc"] = SourceLocation(tok.line, tok.column)
        return loc


class Token(_TokenFields):
    """Fields plus a lazy ``loc``: AST nodes from one token share one
    location object, as pickles expect."""

    loc = _Loc()

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


_MULTI_OPS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
]
_SINGLE_OPS = "+-*/%&|^~!<>=?:(),;.[]{}#@"
# One string object per operator, as the old scanner returned: pickles of
# the AST memoize strings by identity, so sharing fixes their bytes.
_OP_TEXT = {op: op for op in [*_MULTI_OPS, *_SINGLE_OPS]}

# Alternatives of the master regex, one group each, in match priority
# order (the first alternative that matches wins, as in the old scanner).
_IDENT, _OP, _NL, _DEC, _STR, _SYS, _SKIP, _OTHER = range(1, 9)
_MASTER = re.compile("[ \t\r]*+(?:" + "|".join((
    r"([A-Za-z_][\w$]*+)",
    "(" + "|".join(map(re.escape, _MULTI_OPS))
    + "|/(?![/*])|[" + re.escape(_SINGLE_OPS.replace("/", "")) + "])",
    r"(\n)",
    # Plain decimals only; ``_`` runs, sizes, non-ASCII digits (``1²``)
    # and runs too long for ``int`` take the fallback.
    r"([0-9]{1,600}+)(?![0-9_']|[^\x00-\x7f])",
    r'("(?:[^"\\]++|\\.)*+")',
    r"(\$\w*+)",
    r"(//[^\n]*+|`[^\n]*+|/\*.*?\*/)",
    r"(.)",
)) + ")", re.S)
_DIGIT_RUN = re.compile(r"[\d_]*+")     # \d is exactly str.isdecimal
_BASED_RUN = re.compile(r"[\w?]*+")     # \w is exactly isalnum() or "_"
_IDENT_RUN = re.compile(r"[\w$]*+")
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t"}
_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}
_MAX_WIDTH = 10**7
_WORD_KIND = dict.fromkeys(KEYWORDS, TokKind.KEYWORD)


def _parse_based_digits(digits: str, base: int, width: int, loc: SourceLocation) -> tuple[int, int]:
    """Return (value, xmask) for a based literal's digit string."""
    value = 0
    xmask = 0
    bits_per = {2: 1, 8: 3, 16: 4}.get(base)
    digits = digits.replace("_", "")
    if base == 10:
        if "x" in digits.lower() or "z" in digits.lower():
            if len(digits) != 1:
                raise LexError(f"bad decimal literal digits '{digits}'", loc)
            return 0, (1 << width) - 1
        try:
            return int(digits, 10), 0
        except ValueError:
            bad = next((ch for ch in digits if not ch.isdecimal()), None)
            if bad is None:
                raise LexError("missing digits in sized literal", loc) from None
            raise LexError(f"invalid digit '{bad}' for base 10", loc) from None
    for ch in digits:
        value <<= bits_per
        xmask <<= bits_per
        cl = ch.lower()
        if cl in "xz?":
            xmask |= (1 << bits_per) - 1
        else:
            try:
                value |= int(ch, base)
            except ValueError:
                raise LexError(f"invalid digit '{ch}' for base {base}", loc) from None
    return value, xmask


def _decimal(text: str, loc: SourceLocation) -> int:
    """``int(text)`` for a ``str.isdigit`` run, as a :class:`LexError`."""
    try:
        return int(text)
    except ValueError:
        bad = next((ch for ch in text if not ch.isdecimal()), None)
        raise LexError(f"invalid digit '{bad}' in number" if bad else
                       f"number too long ({len(text)} digits)", loc) from None


def _number(src: str, start: int, line: int, col: int) -> tuple[Token, int]:
    """Scan the number at ``start``: a ``str.isdigit``/``_`` run, then
    optionally ``'``, an optional ``s``, a base letter and digits."""
    loc = SourceLocation(line, col)
    end = _DIGIT_RUN.match(src, start).end()
    while end < len(src) and src[end].isdigit():    # e.g. "²": not decimal
        end = _DIGIT_RUN.match(src, end + 1).end()
    size = src[start:end].replace("_", "")
    if not src.startswith("'", end):
        return Token(TokKind.NUMBER, size, line, col, _decimal(size, loc)), end
    width = _decimal(size, loc) if size else 32
    if width <= 0:
        raise LexError(f"literal width must be positive, got {width}", loc)
    if width >= _MAX_WIDTH:     # its mask alone would take megabytes
        raise LexError(f"literal width must be below {_MAX_WIDTH}, "
                       f"got a {len(size)}-digit size", loc)
    # A signed base like 'sd is treated as unsigned.
    pos = end + 2 if src[end + 1:end + 2] in ("s", "S") else end + 1
    base_ch = (src[pos:pos + 1] or "\x00").lower()
    base = _BASES.get(base_ch)
    if base is None:
        raise LexError(f"invalid number base '{base_ch}'", loc)
    end = _BASED_RUN.match(src, pos + 1).end()
    digits = src[pos + 1:end]
    if not digits:
        raise LexError("missing digits in sized literal", loc)
    value, xmask = _parse_based_digits(digits, base, width, loc)
    mask = (1 << width) - 1
    return Token(TokKind.SIZED_NUMBER, src[start:end], line, col,
                 (width, value & mask, xmask & mask)), end


def _fallback(src: str, pos: int, line: int, col: int) -> tuple[Token, int]:
    """The token at ``pos`` that the master regex left to Python."""
    ch = src[pos]
    if ch.isdigit() or (ch == "'" and src[pos + 1:pos + 2].lower() in _BASES):
        return _number(src, pos, line, col)
    if ch.isalpha():
        end = _IDENT_RUN.match(src, pos + 1).end()
        text = src[pos:end]
        return Token(_WORD_KIND.get(text, TokKind.IDENT), text, line, col), end
    msg = ("unterminated string literal" if ch == '"' else
           "unterminated block comment" if src.startswith("/*", pos) else
           f"unexpected character '{ch}'")
    raise LexError(msg, SourceLocation(line, col))


class Lexer:
    """Converts mini-Verilog source text into a token stream."""

    def __init__(self, source: str):
        self.src = source

    def tokens(self) -> list[Token]:
        src = self.src
        out: list[Token] = []
        append = out.append
        new = tuple.__new__
        ident, op, number = TokKind.IDENT, TokKind.OP, TokKind.NUMBER
        string = TokKind.STRING
        line, base, pos = 1, -1, 0     # base: offset of the line's "\n"
        while True:
            for m in _MASTER.finditer(src, pos):
                i = m.lastindex
                text = m[i]
                if i == _NL:
                    line += 1
                    base = m.end() - 1
                    continue
                start = m.end() - len(text)
                col = start - base
                if i == _IDENT:
                    tok = (_WORD_KIND.get(text, ident), text, line, col, None)
                elif i == _OP:
                    tok = (op, _OP_TEXT[text], line, col, None)
                elif i == _DEC:
                    tok = (number, text, line, col, int(text))
                elif i == _SYS:
                    if text not in SYSTEM_TASKS:
                        raise LexError(f"unknown system task '{text}'",
                                       SourceLocation(line, col))
                    tok = (TokKind.SYSTASK, text, line, col, None)
                elif i == _OTHER:
                    tok, pos = _fallback(src, start, line, col)
                    append(tok)
                    break
                else:                   # a string or trivia: may span lines
                    if i == _STR:
                        value = _ESCAPE.sub(
                            lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1])
                        append(new(Token, (string, value, line, col, value)))
                    if "\n" in text:
                        line += text.count("\n")
                        base = start + text.rindex("\n")
                    continue
                append(new(Token, tok))
            else:
                append(Token(TokKind.EOF, "", line, len(src) - base))
                return out


def tokenize(source: str) -> list[Token]:
    return Lexer(source).tokens()
