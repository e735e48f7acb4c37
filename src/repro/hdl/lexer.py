"""Tokenizer for the Verilog-2001 / SVA subset used throughout the project.

The lexer is deliberately strict: anything outside the supported subset is
reported as a :class:`~repro.hdl.errors.LexError` with a line/column, which
is exactly what the data-augmentation pipeline needs from its "compiler"
stage (accept/reject plus a diagnostic).

:func:`tokenize` is a per-line scanner over a memo.  The pipeline compiles
thousands of one-line mutants of a few designs, so almost every line it
reads it has read before, at the same line number.  Each line is scanned
with one master regex and its tokens are kept, keyed by ``(line number,
line text)``, as a tuple of shared frozen :class:`Token` objects; a repeated
line costs one dict lookup.  Text the per-line scanner cannot reproduce
exactly goes to the character-level :class:`Lexer` instead: block comments
and backslashes (escaped identifiers, string escapes) can span lines, and a
line the scanner does not fully consume (non-ASCII identifiers, malformed
literals, stray characters) is an error or an edge case.  So every
diagnostic, and every token stream the scanner does not know, is the
:class:`Lexer`'s; ``hdl.lex.scalar[<reason>]`` counts those texts.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional

from repro.hdl.errors import LexError
from repro.obs import get_registry, labeled


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
                if nxt == "\n":
                    # A backslash-newline continues the literal on the next
                    # line; both characters are dropped (IEEE 1800-2017 5.9).
                    self._pos += 1
                    self._advance_newline()
                    continue
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


# ---------------------------------------------------------------------- #
# the per-line scanner
# ---------------------------------------------------------------------- #

#: One alternative per token class, tried in the order :class:`Lexer`
#: dispatches.  Only ASCII is matched outside comments and strings, and no
#: alternative can stop short of what :class:`Lexer` would consume: a
#: decimal run followed by an incomplete based literal (``4'x``) matches
#: nothing, so the line, and with it the text, goes to :class:`Lexer`.
_LINE_SCANNER = re.compile(
    r"(?P<skip>[ \t\r]+|//.*|`.*)"
    r'|(?P<string>"[^"]*")'
    r"|(?P<system>\$[A-Za-z0-9_]+)"
    r"|(?P<number>[0-9][0-9_]*(?:'[sS]?[bBdDhHoO][A-Za-z0-9_?]+|(?![0-9_']))"
    r"|'[bBdDhHoO][A-Za-z0-9_?]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_$]*)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in _MULTI_CHAR_OPERATORS)
    + r"|[-+*/%&|^~!<>=?:#])"
    r"|(?P<punct>[()\[\]{},;.@]|'(?![bBdDhHoO]))"
)

_GROUP_KINDS = {
    "string": TokenKind.STRING,
    "system": TokenKind.SYSTEM_IDENT,
    "number": TokenKind.NUMBER,
    "op": TokenKind.OPERATOR,
    "punct": TokenKind.PUNCT,
}

#: Entries of the ``(line number, line text)`` memo before it is cleared.
#: A 16-design pipeline run fills ~1.3k; a full memo of pipeline lines
#: traces at 5.3 MB (tracemalloc, ~1.3 kB an entry).
LINE_MEMO_LIMIT = 1 << 12

_line_memo: dict[tuple[int, str], tuple[Token, ...]] = {}


def _scan_line(number: int, line: str) -> Optional[tuple[Token, ...]]:
    """The tokens of one line, or ``None`` when the scanner cannot consume it."""
    tokens: list[Token] = []
    match = _LINE_SCANNER.match
    pos, end = 0, len(line)
    while pos < end:
        found = match(line, pos)
        if found is None:
            return None
        group = found.lastgroup
        if group != "skip":
            value = found.group()
            if group == "word":
                kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
            else:
                kind = _GROUP_KINDS[group]
                if kind is TokenKind.STRING:
                    value = value[1:-1]
            tokens.append(Token(kind, value, number, pos + 1))
        pos = found.end()
    return tuple(tokens)


def _scan(text: str) -> Optional[list[Token]]:
    """Tokenize ``text`` line by line through the memo (``None``: not scannable)."""
    if text.endswith("'"):
        return None  # Lexer reads a final quote as a based literal cut short
    tokens: list[Token] = []
    memo = _line_memo
    lines = text.split("\n")
    for number, line in enumerate(lines, 1):
        key = (number, line)
        line_tokens = memo.get(key)
        if line_tokens is None:
            line_tokens = _scan_line(number, line)
            if line_tokens is None:
                return None
            if len(memo) >= LINE_MEMO_LIMIT:
                memo.clear()
            memo[key] = line_tokens
        tokens.extend(line_tokens)
    tokens.append(Token(TokenKind.EOF, "", len(lines), len(lines[-1]) + 1))
    return tokens


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` and return the token list (including the EOF token).

    Equal to ``Lexer(text).tokenize()`` on every input, errors included.
    """
    if "/*" in text:
        reason = "block_comment"
    elif "\\" in text:
        reason = "backslash"
    else:
        tokens = _scan(text)
        if tokens is not None:
            return tokens
        reason = "unscanned"
    get_registry().inc(labeled("hdl.lex.scalar", reason))
    return Lexer(text).tokenize()
