"""Copy-on-write elaboration: designs share unrewritten statements with the unit.

Elaboration rebuilds only what it rewrites (the path to an unrolled ``for``,
every node of an instance's renamed body) and shares the rest with the
parsed unit.  That is sound only while nothing downstream mutates a
design's statements, which the round trip below pins: compile, simulate on
both backends, check on both engines and relower a mutant, then the unit's
and the design's canonical renderings must be what they were.
"""

from __future__ import annotations

import pytest

from repro.artifacts.canon import canon_expr, canon_stmt, design_canonical_text
from repro.bugs.mutators import enumerate_mutations
from repro.corpus.templates import all_families
from repro.hdl import ast
from repro.hdl.lint import compile_source
from repro.hdl.parser import parse_source
from repro.sim.compile import CompiledSimulator, compile_design
from repro.sim.engine import InterpSimulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, template_assertion_blocks

HIERARCHY = """module sub #(parameter W = 4) (input wire clk, input wire [W-1:0] d, output reg [W-1:0] q);
  integer i;
  initial begin
    q = 1'b0;
  end
  always @(posedge clk) begin
    for (i = 0; i < W; i = i + 1) begin
      if (d[i]) q[i] <= ~q[i]; else q[i] <= q[i];
    end
    case (d)
      4'd1: q <= d;
      default: ;
    endcase
    $display("q=%d", q);
  end
endmodule
module top(input wire clk, input wire [3:0] a, output wire [3:0] y, output reg [3:0] r);
  integer j;
  sub #(.W(4)) u0 (.clk(clk), .d(a), .q(y));
  initial r = 4'd0;
  always @(posedge clk) begin
    r <= a;
    for (j = 0; j < 2; j = j + 1) r[j] <= a[j] ^ r[j];
  end
endmodule
"""


def family_source(family) -> str:
    artifact = family.build(f"cow_{family.name}", **family.parameter_grid[0])
    blocks = template_assertion_blocks(artifact.template_svas, artifact.family)
    return insert_assertions(artifact.source, blocks) if blocks else artifact.source


def unit_canon(unit: ast.SourceUnit) -> list[str]:
    rendered = []
    for module in unit.modules:
        for item in module.items:
            if isinstance(item, (ast.AlwaysBlock, ast.InitialBlock)):
                rendered.append(canon_stmt(item.body))
            elif isinstance(item, ast.ContinuousAssign):
                rendered.append(f"{canon_expr(item.target)}={canon_expr(item.value)}")
    return rendered


def first_compiling_mutant(source: str, signals: list[str]):
    lines = source.split("\n")
    for number, line in enumerate(lines):
        for candidate in enumerate_mutations(line, signals):
            mutated = lines[:number] + [candidate.buggy_line] + lines[number + 1 :]
            result = compile_source("\n".join(mutated))
            if result.ok and result.design is not None:
                return result.design
    return None


SOURCES = [HIERARCHY] + [family_source(family) for family in all_families()[::4]]


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.split()[1])
def test_round_trip_leaves_unit_and_design_unchanged(source):
    result = compile_source(source)
    assert result.ok, result.render()
    unit, design = result.unit, result.design
    unit_before, design_before = unit_canon(unit), design_canonical_text(design)

    vectors = StimulusGenerator(design, seed=3).mixed_stimulus(random_cycles=16).vectors
    base = compile_design(design)
    trace = CompiledSimulator(design, compiled=base).run(vectors)
    InterpSimulator(design).run(vectors)
    base_checker = CompiledAssertionChecker(design)
    base_checker.check(trace)
    AssertionChecker(design).check(trace)
    mutant = first_compiling_mutant(source, sorted(design.signals))
    if mutant is not None:
        compile_design(mutant, base=base)
        CompiledAssertionChecker(mutant, base=base_checker)

    assert unit_canon(unit) == unit_before
    assert design_canonical_text(design) == design_before
    assert unit == parse_source(source)


def test_top_level_blocks_without_for_share_the_units_statements():
    result = compile_source(family_source(all_families()[0]))
    bodies = [item.body for item in result.unit.top.items if isinstance(item, ast.AlwaysBlock)]
    elaborated = [block.body for block in result.design.comb_blocks + result.design.seq_blocks]
    assert bodies and all(any(body is e for e in elaborated) for body in bodies)


def test_initial_blocks_are_shared_at_top_level_and_renamed_in_instances():
    result = compile_source(HIERARCHY)
    top_initial = next(i for i in result.unit.top.items if isinstance(i, ast.InitialBlock))
    sub = result.unit.find_module("sub")
    sub_initial = next(i for i in sub.items if isinstance(i, ast.InitialBlock))
    by_text = {canon_stmt(block.body): block.body for block in result.design.initial_blocks}
    assert by_text.keys() == {"{u0__q=#0w1x0}", "r=#0w4x0"}
    assert by_text["r=#0w4x0"] is top_initial.body
    assert by_text["{u0__q=#0w1x0}"] is not sub_initial.body
    assert canon_stmt(sub_initial.body) == "{q=#0w1x0}"


def test_instance_blocks_are_renamed_copies_and_the_unit_keeps_its_names():
    result = compile_source(HIERARCHY)
    design = result.design
    sub = result.unit.find_module("sub")
    sub_always = next(item for item in sub.items if isinstance(item, ast.AlwaysBlock))
    assert "u0__" not in canon_stmt(sub_always.body)
    instance_block = next(b for b in design.seq_blocks if b.sensitivity[0].signal == "u0__clk")
    rendered = canon_stmt(instance_block.body)
    assert "u0__q[#3w?x0]<=(~u0__q[#3w?x0])" in rendered  # unrolled, then renamed
    assert rendered.endswith("$display(#0w?x0,q)}")  # system task arguments keep their names
    top_block = next(b for b in design.seq_blocks if b.sensitivity[0].signal == "clk")
    assert canon_stmt(top_block.body) == (
        "{r<=a;{r[#0w?x0]<=(a[#0w?x0]^r[#0w?x0]);r[#1w?x0]<=(a[#1w?x0]^r[#1w?x0])}}"
    )
