"""Tokenizer for the Verilog-2001 / SVA subset used throughout the project.

The lexer is deliberately strict: anything outside the supported subset is
reported as a :class:`~repro.hdl.errors.LexError` with a line/column, which
is exactly what the data-augmentation pipeline needs from its "compiler"
stage (accept/reject plus a diagnostic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hdl.errors import LexError


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SYSTEM_IDENT = "system_ident"  # $error, $past, $display ...
    NUMBER = "number"  # 12, 4'b1010, 8'hFF
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


#: Keywords recognised by the parser.  Everything else that looks like an
#: identifier is an identifier.
KEYWORDS: frozenset[str] = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "logic",
        "integer",
        "parameter",
        "localparam",
        "assign",
        "always",
        "always_ff",
        "always_comb",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "for",
        "posedge",
        "negedge",
        "or",
        "property",
        "endproperty",
        "assert",
        "assume",
        "cover",
        "disable",
        "iff",
        "not",
        "signed",
        "genvar",
        "generate",
        "endgenerate",
        "function",
        "endfunction",
        "task",
        "endtask",
    }
)

#: Multi-character operators, longest first so that maximal munch works.
_MULTI_CHAR_OPERATORS: tuple[str, ...] = (
    "|=>",
    "|->",
    "<<<",
    ">>>",
    "===",
    "!==",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "<<",
    ">>",
    "##",
    "+:",
    "-:",
    "::",
    "**",
)

_SINGLE_CHAR_OPERATORS: frozenset[str] = frozenset("+-*/%&|^~!<>=?:#")

_PUNCTUATION: frozenset[str] = frozenset("()[]{},;.@'")


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (1-based)."""

    kind: TokenKind
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value in names

    def is_op(self, *ops: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.value in ops

    def is_punct(self, *puncts: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value in puncts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind.value}, {self.value!r}, {self.line}:{self.column})"


class Lexer:
    """Converts Verilog source text into a list of :class:`Token` objects."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1
        self._tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        """Tokenize the whole input, raising :class:`LexError` on bad input."""
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch in " \t\r":
                self._advance(1)
            elif ch == "\n":
                self._advance_newline()
            elif ch == "/" and self._peek(1) == "/":
                self._skip_line_comment()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            elif ch == "`":
                self._skip_directive()
            elif ch == '"':
                self._lex_string()
            elif ch == "$":
                self._lex_system_ident()
            elif "0" <= ch <= "9" or (ch == "'" and self._peek(1) in "bBdDhHoO"):
                self._lex_number()
            elif ch.isalpha() or ch == "_" or ch == "\\":
                self._lex_identifier()
            else:
                self._lex_operator_or_punct()
        self._tokens.append(Token(TokenKind.EOF, "", self._line, self._column))
        return self._tokens

    # ------------------------------------------------------------------ #
    # low-level cursor helpers
    # ------------------------------------------------------------------ #

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._text):
            return self._text[index]
        return ""

    def _advance(self, count: int) -> None:
        self._pos += count
        self._column += count

    def _advance_newline(self) -> None:
        self._pos += 1
        self._line += 1
        self._column = 1

    def _emit(self, kind: TokenKind, value: str, line: int, column: int) -> None:
        self._tokens.append(Token(kind, value, line, column))

    # ------------------------------------------------------------------ #
    # token scanners
    # ------------------------------------------------------------------ #

    def _skip_line_comment(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos] != "\n":
            self._pos += 1
            self._column += 1

    def _skip_block_comment(self) -> None:
        start_line, start_col = self._line, self._column
        self._advance(2)
        while self._pos < len(self._text):
            if self._text[self._pos] == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            if self._text[self._pos] == "\n":
                self._advance_newline()
            else:
                self._advance(1)
        raise LexError("unterminated block comment", start_line, start_col, "unterminated-comment")

    def _skip_directive(self) -> None:
        """Skip a compiler directive (`timescale, `define ...) to end of line."""
        while self._pos < len(self._text) and self._text[self._pos] != "\n":
            self._pos += 1
            self._column += 1

    def _lex_string(self) -> None:
        start_line, start_col = self._line, self._column
        self._advance(1)
        chars: list[str] = []
        while True:
            if self._pos >= len(self._text):
                raise LexError("unterminated string literal", start_line, start_col, "unterminated-string")
            ch = self._text[self._pos]
            if ch == '"':
                self._advance(1)
                break
            if ch == "\n":
                raise LexError("newline in string literal", start_line, start_col, "newline-in-string")
            if ch == "\\":
                nxt = self._peek(1)
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
                self._advance(2)
                continue
            chars.append(ch)
            self._advance(1)
        self._emit(TokenKind.STRING, "".join(chars), start_line, start_col)

    def _lex_system_ident(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        self._advance(1)
        while self._pos < len(self._text) and (self._text[self._pos].isalnum() or self._text[self._pos] == "_"):
            self._advance(1)
        value = self._text[start : self._pos]
        if value == "$":
            raise LexError("stray '$' in source", start_line, start_col, "stray-dollar")
        self._emit(TokenKind.SYSTEM_IDENT, value, start_line, start_col)

    def _lex_number(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        # Optional decimal size prefix.
        while self._pos < len(self._text) and ("0" <= self._text[self._pos] <= "9" or self._text[self._pos] == "_"):
            self._advance(1)
        if self._pos < len(self._text) and self._text[self._pos] == "'":
            self._advance(1)
            if self._pos < len(self._text) and self._text[self._pos] in "sS":
                self._advance(1)
            if self._pos >= len(self._text) or self._text[self._pos] not in "bBdDhHoO":
                raise LexError("malformed based literal", start_line, start_col, "bad-literal")
            self._advance(1)
            digits_start = self._pos
            while self._pos < len(self._text) and (
                self._text[self._pos].isascii() and self._text[self._pos].isalnum()
                or self._text[self._pos] in "_?xXzZ"
            ):
                self._advance(1)
            if self._pos == digits_start:
                raise LexError("based literal missing digits", start_line, start_col, "bad-literal")
        value = self._text[start : self._pos]
        self._emit(TokenKind.NUMBER, value, start_line, start_col)

    def _lex_identifier(self) -> None:
        start_line, start_col = self._line, self._column
        start = self._pos
        if self._text[self._pos] == "\\":
            # Escaped identifier: terminated by whitespace.
            self._advance(1)
            while self._pos < len(self._text) and not self._text[self._pos].isspace():
                self._advance(1)
            value = self._text[start + 1 : self._pos]
            self._emit(TokenKind.IDENT, value, start_line, start_col)
            return
        while self._pos < len(self._text) and (
            self._text[self._pos].isalnum() or self._text[self._pos] in "_$"
        ):
            self._advance(1)
        value = self._text[start : self._pos]
        kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
        self._emit(kind, value, start_line, start_col)

    def _lex_operator_or_punct(self) -> None:
        start_line, start_col = self._line, self._column
        for op in _MULTI_CHAR_OPERATORS:
            if self._text.startswith(op, self._pos):
                self._advance(len(op))
                self._emit(TokenKind.OPERATOR, op, start_line, start_col)
                return
        ch = self._text[self._pos]
        if ch in _SINGLE_CHAR_OPERATORS:
            self._advance(1)
            self._emit(TokenKind.OPERATOR, ch, start_line, start_col)
            return
        if ch in _PUNCTUATION:
            self._advance(1)
            self._emit(TokenKind.PUNCT, ch, start_line, start_col)
            return
        raise LexError(f"unexpected character {ch!r}", start_line, start_col, "unexpected-character")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` and return the token list (including the EOF token)."""
    return Lexer(text).tokenize()
