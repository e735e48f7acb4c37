"""Differential tests: the per-line memoised ``tokenize`` against the scalar ``Lexer``.

``tokenize`` must return exactly ``Lexer(text).tokenize()`` -- kinds,
values, lines, columns and the EOF position -- or raise a ``LexError`` with
the same message, line, column and code.  It is checked on the fixed corpora
(every template family, their bug-grammar mutants, the human-crafted split
and syntax garbles) and on generated line soups over the token alphabet.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bugs.injector import BugInjector
from repro.bugs.mutators import enumerate_mutations
from repro.corpus import human_crafted_designs
from repro.corpus.corruptor import SyntaxCorruptor
from repro.corpus.templates import all_families
from repro.hdl import lexer
from repro.hdl.errors import LexError
from repro.hdl.lexer import Lexer, Token, TokenKind, tokenize
from repro.hdl.source import SourceFile
from repro.obs import scoped_registry


def _outcome(tokenizer, text: str):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in tokenizer(text)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line, exc.column, exc.code)


def assert_same_as_scalar(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(lambda t: Lexer(t).tokenize(), text), text


def _family_sources() -> list[str]:
    return [
        family.build(f"lex_{family.name}_{index}", **params).source
        for family in all_families()
        for index, params in enumerate(family.parameter_grid)
    ]


FAMILY_SOURCES = _family_sources()


def test_template_families_match_scalar_lexer():
    assert len(all_families()) >= 27
    for source in FAMILY_SOURCES:
        assert_same_as_scalar(source)


def test_bug_grammar_mutants_match_scalar_lexer():
    injector = BugInjector()
    checked = 0
    for family in all_families():
        source = family.build(f"mut_{family.name}", **family.parameter_grid[0]).source
        source_file = SourceFile(source)
        for number in injector.mutable_lines(source):
            for mutation in enumerate_mutations(source_file.line(number), ["a", "q"]):
                assert_same_as_scalar(source_file.with_line_replaced(number, mutation.buggy_line).text)
                checked += 1
    assert checked > 1000


def test_human_crafted_sources_match_scalar_lexer():
    cases = human_crafted_designs()
    for case in cases:
        assert_same_as_scalar(case.golden_source)
        assert_same_as_scalar(case.buggy_source)
    assert 2 * len(cases) >= 82


def test_syntax_garbles_match_scalar_lexer():
    corruptor = SyntaxCorruptor(seed=5)
    for source in FAMILY_SOURCES:
        for _ in range(4):
            assert_same_as_scalar(corruptor.corrupt(source).source)


# ---------------------------------------------------------------------- #
# generated line soups
# ---------------------------------------------------------------------- #

#: Pieces that stress every scanner alternative and every fallback reason.
ALPHABET = (
    "module", "endmodule", "always", "assign", "begin", "end", "if", "else",
    "posedge", "a", "b_1", "x$y", "_t", "q9", "é", "ñx", "x٣", "ß",
    "$display", "$past", "$", "$$", "$é",
    "0", "12", "1_000", "4'b1010", "8'hFF", "4'b", "1_'b1", "'sd3", "4'sd3",
    "'b01", "'h", "3'x", "12'sx", "8'b1x?z", "'", "٣",
    "\"\"", "\"s\"", "\"a\\\"b\"", "\"a\\nb\"", "\"a\\\\\"", "\"open",
    "\"a\\\nb\"", "\\esc+id ", "\\", "/* c */", "/*\n*/", "/* open",
    "// note", "//", "`timescale 1ns/1ps", "`",
    "|->", "|=>", "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "&&",
    "||", "<<", ">>", "##", "+:", "-:", "::", "**", "+", "-", "*", "/", "%",
    "&", "|", "^", "~", "!", "<", ">", "=", "?", ":", "#",
    "(", ")", "[", "]", "{", "}", ",", ";", ".", "@",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\x00",
)

line_soups = st.lists(
    st.one_of(st.sampled_from(ALPHABET), st.text(max_size=2)), max_size=40
).map("".join)


@given(line_soups)
def test_line_soups_match_scalar_lexer(text):
    assert_same_as_scalar(text)


@pytest.mark.parametrize(
    "text",
    [
        "'",  # a final quote is a based literal cut short, not punctuation
        "a '",
        "x = y '\n'",
        "12'x",  # no backtracking into the decimal run
        "1_2_'sx",
        "a$ $b\t$c_1",
    ],
)
def test_shrunk_counterexamples(text):
    assert_same_as_scalar(text)


# ---------------------------------------------------------------------- #
# the memo and the scalar path
# ---------------------------------------------------------------------- #


def test_memo_returns_equal_tokens_on_repeat_calls():
    source = FAMILY_SOURCES[0]
    first = tokenize(source)
    second = tokenize(source)
    assert first == second
    assert first is not second
    assert all(a is b for a, b in zip(first[:-1], second[:-1])), "repeated lines share tokens"


def test_line_reused_at_another_line_number_gets_its_own_line():
    line = "assign y = a & 4'b1;"
    assert [t.line for t in tokenize(line)] == [1] * 8
    moved = tokenize("\n\n" + line)
    assert [t.line for t in moved[:-1]] == [3] * 7
    assert [t.column for t in moved[:-1]] == [1, 8, 10, 12, 14, 16, 20]
    assert moved[-1] == Token(TokenKind.EOF, "", 3, len(line) + 1)


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(lexer, "LINE_MEMO_LIMIT", 4)
    monkeypatch.setattr(lexer, "_line_memo", {})
    text = "\n".join(f"wire w{i};" for i in range(10))
    assert_same_as_scalar(text)
    assert len(lexer._line_memo) <= 4


@pytest.mark.parametrize(
    "text, reason",
    [
        ("wire a; /* c */", "block_comment"),
        ("wire \\a+b ;", "backslash"),
        ('initial $display("a\\n");', "backslash"),
        ("wire é;", "unscanned"),
        ("x = 4'q1;", "unscanned"),
    ],
)
def test_scalar_path_counted_once_per_call(text, reason):
    with scoped_registry() as registry:
        assert_same_as_scalar(text)
        tokenize("wire a;\nwire b;\n")
    assert registry.counters == {f"hdl.lex.scalar[{reason}]": 1}


def test_backslash_newline_in_string_continues_the_literal():
    text = 'module m;\ninitial $display("a\\\nb");\nwire w;\nendmodule\n'
    tokens = tokenize(text)
    string = next(t for t in tokens if t.kind is TokenKind.STRING)
    assert (string.value, string.line, string.column) == ("ab", 2, 18)
    close = tokens[tokens.index(string) + 1]
    assert (close.value, close.line, close.column) == (")", 3, 3)
    wire = next(t for t in tokens if t.value == "wire")
    assert (wire.line, wire.column) == (4, 1)
    assert tokens[-1] == Token(TokenKind.EOF, "", 6, 1)
