"""Tokenizer for the mini-C subset consumed by the HLS frontend.

Preprocessor handling is minimal but real: ``#include`` lines are skipped,
object-like ``#define`` macros are substituted, and ``#pragma HLS ...``
lines are preserved as first-class tokens — pragmas are the paper's main
optimization lever (Fig. 2 stage 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class CTokKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    CHAR = auto()
    STRING = auto()
    OP = auto()
    PRAGMA = auto()   # one token per '#pragma' line, text = full directive
    EOF = auto()


CKEYWORDS = {
    "int", "unsigned", "char", "short", "long", "void", "float", "double",
    "if", "else", "for", "while", "do", "return", "break", "continue",
    "const", "static", "struct", "union", "typedef", "sizeof", "goto",
    "switch", "case", "default", "enum", "extern", "volatile", "bool",
}


@dataclass(frozen=True)
class CToken:
    kind: CTokKind
    text: str
    line: int
    value: object = None

    def __repr__(self) -> str:
        return f"CToken({self.kind.name}, {self.text!r})"


class CLexError(Exception):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"[C-LEX] {message} (line {line})")


_MULTI = ["<<=", ">>=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->"]
_SINGLE = "+-*/%&|^~!<>=?:;,.(){}[]"


def _strip_preprocessor(source: str) -> tuple[str, list[tuple[int, str]]]:
    """Remove preprocessor lines; apply #define; collect #pragma directives."""
    defines: dict[str, str] = {}
    pragmas: list[tuple[int, str]] = []
    out_lines: list[str] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#pragma"):
            pragmas.append((lineno, stripped))
            out_lines.append(f"\0PRAGMA{len(pragmas) - 1}\0")
            continue
        if stripped.startswith("#define"):
            parts = stripped.split(None, 2)
            if len(parts) >= 2 and "(" not in parts[1]:
                defines[parts[1]] = parts[2] if len(parts) == 3 else "1"
            out_lines.append("")
            continue
        if stripped.startswith("#"):
            out_lines.append("")
            continue
        out_lines.append(line)
    text = "\n".join(out_lines)
    # Whole-word macro substitution (iterate to allow simple chains).
    import re
    for _ in range(4):
        changed = False
        for name, body in defines.items():
            new = re.sub(rf"\b{re.escape(name)}\b", body, text)
            if new != text:
                text = new
                changed = True
        if not changed:
            break
    return text, pragmas


class CLexer:
    def __init__(self, source: str):
        self.text, self.pragmas = _strip_preprocessor(source)
        self.pos = 0
        self.line = 1

    def _peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                self.pos += 1

    def tokens(self) -> list[CToken]:
        out: list[CToken] = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.kind is CTokKind.EOF:
                return out

    def _next(self) -> CToken:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                self._advance(2)
            else:
                break
        if self.pos >= len(self.text):
            return CToken(CTokKind.EOF, "", self.line)
        line = self.line
        ch = self._peek()

        if ch == "\0":  # pragma placeholder
            self._advance()
            digits = []
            while self._peek().isalnum():
                digits.append(self._peek())
                self._advance()
            self._advance()  # trailing \0
            idx = "".join(d for d in digits if d.isdigit())
            if not idx.isdecimal() or int(idx) >= len(self.pragmas):
                raise CLexError("unexpected NUL character", line)
            pline, ptext = self.pragmas[int(idx)]
            return CToken(CTokKind.PRAGMA, ptext, pline)

        if ch == '"':
            self._advance()
            chars: list[str] = []
            while self.pos < len(self.text) and self._peek() != '"':
                c = self._peek()
                if c == "\\":
                    self._advance()
                    esc = self._peek()
                    chars.append({"n": "\n", "t": "\t", "0": "\0",
                                  '"': '"', "\\": "\\"}.get(esc, esc))
                    self._advance()
                else:
                    chars.append(c)
                    self._advance()
            if self.pos >= len(self.text):
                raise CLexError("unterminated string", line)
            self._advance()
            return CToken(CTokKind.STRING, "".join(chars), line, "".join(chars))

        if ch == "'":
            self._advance()
            c = self._peek()
            if c == "\\":
                self._advance()
                c = {"n": "\n", "t": "\t", "0": "\0", "'": "'",
                     "\\": "\\"}.get(self._peek(), self._peek())
            self._advance()
            if self._peek() != "'":
                raise CLexError("unterminated char literal", line)
            self._advance()
            return CToken(CTokKind.CHAR, c, line, ord(c) if c else 0)

        if ch.isdigit():
            start = self.pos
            is_hex = ch == "0" and self._peek(1).lower() == "x"
            if is_hex:
                self._advance(2)
                while self._peek() and self._peek().lower() in "0123456789abcdef":
                    self._advance()
                if self.pos - start == 2:
                    raise CLexError(f"hex literal '{self.text[start:self.pos]}' "
                                    "has no digits", line)
                value = int(self.text[start:self.pos], 16)
            else:
                while self._peek().isdigit():
                    self._advance()
                if self._peek() == "." and self._peek(1).isdigit():
                    raise CLexError("floating-point literals are not supported "
                                    "by the mini-C subset", line)
                try:
                    value = int(self.text[start:self.pos])
                except ValueError:  # str.isdigit admits e.g. superscripts
                    raise CLexError(f"invalid integer literal "
                                    f"'{self.text[start:self.pos]}'", line) from None
            while self._peek() and self._peek().lower() in "ul":  # suffixes
                self._advance()
            return CToken(CTokKind.NUMBER, self.text[start:self.pos], line, value)

        if ch.isalpha() or ch == "_":
            start = self.pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            text = self.text[start:self.pos]
            return CToken(CTokKind.IDENT, text, line)

        for op in _MULTI:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                return CToken(CTokKind.OP, op, line)
        if ch in _SINGLE:
            self._advance()
            return CToken(CTokKind.OP, ch, line)
        raise CLexError(f"unexpected character '{ch}'", line)


def ctokenize(source: str) -> list[CToken]:
    return CLexer(source).tokens()
