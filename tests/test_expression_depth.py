"""The parser's expression nesting bound.

Deeply nested expressions used to crash the front end and both simulators
with ``RecursionError`` (parentheses and ternary chains in the parser, long
binary sums in ``Expression.walk``, the simulators' recursive evaluators).
The parser now rejects anything nested deeper than
:data:`~repro.hdl.parser.MAX_EXPRESSION_DEPTH` with a located
``expression-too-deep`` diagnostic, and everything under the bound runs
through every recursive consumer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analyze.dfg import build_dfg
from repro.artifacts import design_fingerprint
from repro.bugs.injector import BugInjector
from repro.bugs.mutators import enumerate_mutations
from repro.corpus import human_crafted_designs
from repro.corpus.templates import all_families
from repro.hdl import ast
from repro.hdl.lint import compile_source
from repro.hdl.parser import MAX_EXPRESSION_DEPTH, parse_source
from repro.hdl.source import SourceFile
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, Simulator
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker


def module(expr: str) -> str:
    return (
        "module m(input wire clk, input wire c, input wire [7:0] a, output wire [7:0] y);\n"
        f"  assign y = {expr};\n"
        "endmodule\n"
    )


def expression_depth(expr: ast.Expression) -> int:
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children())
    return deepest


def deepest_expression(source: str) -> int:
    """Deepest expression tree anywhere in a parsed source (iterative walk)."""
    deepest = 0
    stack: list = [parse_source(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Expression):
            deepest = max(deepest, expression_depth(node))
        elif dataclasses.is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
    return deepest


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 197 + "a" + ")" * 197,
        "c ? a : " * 1000 + "a",
        " + ".join(["a"] * 1000),
        " + ".join(["a"] * 600),
        "~" * 300 + "a",
        "{" * 200 + "a" + "}" * 200,
        "a" + "[0]" * 200,
    ],
    ids=["parens-197", "ternary-1000", "sum-1000", "sum-600", "unary-300", "concat-200", "select-200"],
)
def test_too_deep_expressions_get_a_located_diagnostic(expr):
    result = compile_source(module(expr))
    assert not result.ok
    (error,) = result.errors
    assert error.code == "expression-too-deep"
    assert error.line == 2 and error.column > 1
    assert f"deeper than {MAX_EXPRESSION_DEPTH} levels" in error.render()


#: Expression text nested exactly ``n`` levels deep, per construct.
DEPTH_CASES = {
    "sum": lambda n: " + ".join(["a"] * n),
    "ternary": lambda n: "c ? a : " * (n - 1) + "a",
    "unary": lambda n: "~" * (n - 1) + "a",
    "parens": lambda n: "(" * (n - 1) + "a" + ")" * (n - 1),
}


@pytest.mark.parametrize("name", sorted(DEPTH_CASES))
def test_the_bound_is_exact(name):
    make = DEPTH_CASES[name]
    assert compile_source(module(make(MAX_EXPRESSION_DEPTH))).ok
    (error,) = compile_source(module(make(MAX_EXPRESSION_DEPTH + 1))).errors
    assert error.code == "expression-too-deep"


@pytest.mark.parametrize("name", sorted(DEPTH_CASES))
def test_expressions_at_the_bound_run_through_every_consumer(name):
    make = DEPTH_CASES[name]
    source = module(make(MAX_EXPRESSION_DEPTH)).replace(
        "endmodule",
        f"  a_deep: assert property (@(posedge clk) ({make(MAX_EXPRESSION_DEPTH - 4)}) == y);\n"
        "endmodule",
    )
    result = compile_source(source)
    assert result.ok, result.render()
    design = result.design
    design_fingerprint(design)
    build_dfg(design)
    vectors = [{"a": (i * 37) & 255, "c": i & 1} for i in range(6)]
    oracle = InterpSimulator(design).run(vectors)
    trace = Simulator(design).run(vectors)
    assert trace.materialized() == oracle.materialized()
    compiled = CompiledAssertionChecker(design).check(trace)
    reference = AssertionChecker(design).check(oracle)
    assert [o.comparison_key() for o in compiled.outcomes.values()] == [
        o.comparison_key() for o in reference.outcomes.values()
    ]


def test_sum_just_under_the_bound_simulates_identically_on_both_engines():
    design = compile_source(module(" + ".join(["a"] * (MAX_EXPRESSION_DEPTH - 1)))).design
    vectors = [{"a": value} for value in (0, 1, 7, 255, 128)]
    compiled = CompiledSimulator(design).run(vectors)
    oracle = InterpSimulator(design).run(vectors)
    assert compiled.materialized() == oracle.materialized()
    assert compiled[3].sampled("y").to_int() == (255 * (MAX_EXPRESSION_DEPTH - 1)) & 255


def test_real_sources_are_far_below_the_bound():
    """Deepest expression across the families, their mutants and the human sources."""
    sources = [fam.build(f"d_{fam.name}", **fam.parameter_grid[0]).source for fam in all_families()]
    deepest_family = max(deepest_expression(source) for source in sources)
    injector = BugInjector()
    deepest_mutant = 0
    for source in sources:
        source_file = SourceFile(source)
        for number in injector.mutable_lines(source):
            for mutation in enumerate_mutations(source_file.line(number), ["a", "q"]):
                mutant = source_file.with_line_replaced(number, mutation.buggy_line).text
                if compile_source(mutant).ok:
                    deepest_mutant = max(deepest_mutant, deepest_expression(mutant))
    human = human_crafted_designs()
    deepest_human = max(
        deepest_expression(text) for case in human for text in (case.golden_source, case.buggy_source)
    )
    deepest = max(deepest_family, deepest_mutant, deepest_human)
    # Recorded in CHANGES.md: families 4, mutants 4, human sources 5.
    assert (deepest_family, deepest_mutant, deepest_human) == (4, 4, 5)
    assert deepest * 8 < MAX_EXPRESSION_DEPTH
