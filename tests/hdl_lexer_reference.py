"""The character-at-a-time mini-Verilog lexer: the reference the
master-regex lexer in ``repro.hdl.lexer`` must match token for token.

This is the scanner ``repro.hdl.lexer`` replaced, kept verbatim apart from
this docstring and the absolute import.  ``tests/test_hdl_lexer_identity.py``
checks that both produce the same ``(kind, text, value, line, column)``
stream and the same ``LexError`` message and location.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from repro.hdl.errors import LexError, SourceLocation

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


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    loc: SourceLocation
    # For SIZED_NUMBER: (width, value, xmask); for NUMBER: int value.
    value: object = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"


_MULTI_OPS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
]
_SINGLE_OPS = "+-*/%&|^~!<>=?:(),;.[]{}#@"


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


class Lexer:
    """Converts mini-Verilog source text into a token stream."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.line, self.col)

    def _peek(self, ahead: int = 0) -> str:
        # Returns NUL at EOF: it fails every membership test ("" would
        # pathologically satisfy `x in "abc"` and loop the scanners forever).
        i = self.pos + ahead
        return self.src[i] if i < len(self.src) else "\x00"

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.src):
                if self.src[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.src) and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.src):
                    raise LexError("unterminated block comment", start)
                self._advance(2)
            elif ch == "`":
                # Compiler directives (`timescale etc.) are skipped to end of line.
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self.next_token()
            out.append(tok)
            if tok.kind is TokKind.EOF:
                return out

    def next_token(self) -> Token:
        self._skip_trivia()
        loc = self._loc()
        if self.pos >= len(self.src):
            return Token(TokKind.EOF, "", loc)
        ch = self._peek()

        if ch == '"':
            return self._string(loc)
        if ch.isdigit() or (ch == "'" and self._peek(1).lower() in "bdoh"):
            return self._number(loc)
        if ch.isalpha() or ch == "_":
            return self._ident(loc)
        if ch == "$":
            return self._systask(loc)
        for op in _MULTI_OPS:
            if self.src.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokKind.OP, op, loc)
        if ch in _SINGLE_OPS:
            self._advance()
            return Token(TokKind.OP, ch, loc)
        raise LexError(f"unexpected character '{ch}'", loc)

    def _string(self, loc: SourceLocation) -> Token:
        self._advance()
        chars: list[str] = []
        while self.pos < len(self.src) and self._peek() != '"':
            ch = self._peek()
            if ch == "\\":
                self._advance()
                esc = self._peek()
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        if self.pos >= len(self.src):
            raise LexError("unterminated string literal", loc)
        self._advance()
        return Token(TokKind.STRING, "".join(chars), loc, value="".join(chars))

    def _number(self, loc: SourceLocation) -> Token:
        start = self.pos
        # Optional size prefix.
        while self._peek().isdigit() or self._peek() == "_":
            self._advance()
        if self._peek() == "'":
            size_text = self.src[start:self.pos].replace("_", "")
            width = int(size_text) if size_text else 32
            if width <= 0:
                raise LexError(f"literal width must be positive, got {width}",
                               loc)
            self._advance()
            base_ch = self._peek().lower()
            if base_ch == "s":  # signed base like 'sd — treat as unsigned
                self._advance()
                base_ch = self._peek().lower()
            base = {"b": 2, "o": 8, "d": 10, "h": 16}.get(base_ch)
            if base is None:
                raise LexError(f"invalid number base '{base_ch}'", loc)
            self._advance()
            dstart = self.pos
            while self._peek().isalnum() or self._peek() in "_xXzZ?":
                self._advance()
            digits = self.src[dstart:self.pos]
            if not digits:
                raise LexError("missing digits in sized literal", loc)
            value, xmask = _parse_based_digits(digits, base, width, loc)
            mask = (1 << width) - 1
            return Token(TokKind.SIZED_NUMBER, self.src[start:self.pos], loc,
                         value=(width, value & mask, xmask & mask))
        text = self.src[start:self.pos].replace("_", "")
        return Token(TokKind.NUMBER, text, loc, value=int(text))

    def _ident(self, loc: SourceLocation) -> Token:
        start = self.pos
        while self._peek().isalnum() or self._peek() in "_$":
            self._advance()
        text = self.src[start:self.pos]
        kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        return Token(kind, text, loc)

    def _systask(self, loc: SourceLocation) -> Token:
        start = self.pos
        self._advance()  # $
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.src[start:self.pos]
        if text not in SYSTEM_TASKS:
            raise LexError(f"unknown system task '{text}'", loc)
        return Token(TokKind.SYSTASK, text, loc)


def tokenize(source: str) -> list[Token]:
    return Lexer(source).tokens()
