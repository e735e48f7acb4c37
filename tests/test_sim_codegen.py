"""Safety of the compiled simulator's generated code.

Emitted node functions name signals only by slot index and take every
literal from a Python int, so hostile or escaped Verilog identifiers cannot
change the generated source; and generated code Python refuses to compile
(nesting past CPython's indentation limit) becomes a :class:`CompileError`,
which the :func:`Simulator` factory turns into an interpreter fallback.
"""

from __future__ import annotations

import pytest

from repro.artifacts import reset_process_stores
from repro.hdl.lint import compile_source
from repro.hdl.parser import MAX_EXPRESSION_DEPTH
from repro.sim import compile as sim_compile
from repro.sim.compile import CompiledSimulator, CompileError, compile_design
from repro.sim.engine import InterpSimulator, Simulator
from repro.sim.values import LogicValue

HOSTILE_NAMES = ["V", "X", "nba", "sim", "def", "lambda", "__import__", "\\a+b "]


def hostile_source() -> str:
    a, b, c, d, e, f, g, h = HOSTILE_NAMES
    return (
        f"module m(input wire clk, input wire rst_n, input wire [3:0] {a}, input wire [3:0] {b},\n"
        f"         output reg [3:0] {c}, output wire [3:0] {d});\n"
        f"  wire [3:0] {e};\n  reg [3:0] {f};\n  reg [3:0] {g};\n  wire [3:0] {h};\n"
        f"  assign {e} = {a} ^ {b};\n"
        f"  assign {h} = {e} + 4'd1;\n"
        f"  always_comb begin {g} = {h}; if ({a}[0]) {g} = {g} + {b}; end\n"
        f"  always @(posedge clk or negedge rst_n)\n"
        f"    if (!rst_n) begin {c} <= 4'd0; {f} <= 4'd0; end\n"
        f"    else begin {c} <= {g}; {f} <= {c} | {e}; end\n"
        f"  assign {d} = {f} & {c};\n"
        "endmodule\n"
    )


def test_hostile_signal_names_simulate_like_the_interpreter():
    reset_process_stores()
    result = compile_source(hostile_source())
    assert result.ok, result.render()
    design = result.design
    vectors = [{"rst_n": 0}] + [
        {"rst_n": 1, "V": i & 15, "X": (i * 5) & 15} for i in range(12)
    ] + [{"V": LogicValue(0, 0b0101, 4)}, {"X": 3}]
    simulator = Simulator(design)
    assert isinstance(simulator, CompiledSimulator)
    trace = simulator.run(vectors)
    assert trace.materialized() == InterpSimulator(design).run(vectors).materialized()
    sources = "\n".join(sim_compile._CODE_MEMO)
    for needle in ("nba", "sim", "lambda", "__import__", "a+b", "\\"):
        assert needle not in sources


def nested_ternary(depth: int) -> str:
    return "c ? a : " * depth + "a"


def nested_ifs(depth: int) -> str:
    return "if (c) " * depth + "y <= a;"


@pytest.mark.parametrize(
    "source",
    [
        "module m(input wire clk, input wire c, input wire [7:0] a, output wire [7:0] y);\n"
        f"  assign y = {nested_ternary(110)};\nendmodule\n",
        "module m(input wire clk, input wire c, input wire [7:0] a, output reg [7:0] y);\n"
        f"  always @(posedge clk) {nested_ifs(110)}\nendmodule\n",
        # A mask too wide for int-to-str conversion.
        "module m(input wire clk, input wire c, input wire [7:0] a, output wire [19999:0] y);\n"
        "  assign y = {2500{a}} + c;\nendmodule\n",
    ],
    ids=["ternary-110", "if-110", "width-20000"],
)
def test_code_python_cannot_compile_falls_back_to_the_interpreter(source):
    assert 110 < MAX_EXPRESSION_DEPTH
    result = compile_source(source)
    assert result.ok, result.render()
    design = result.design
    with pytest.raises(CompileError):
        compile_design(design)
    simulator = Simulator(design)
    assert isinstance(simulator, InterpSimulator)
    vectors = [{"c": i & 1, "a": i * 3} for i in range(5)] + [{"c": LogicValue(0, 1, 1)}]
    assert simulator.run(vectors) == InterpSimulator(design).run(vectors)


def test_code_memo_is_bounded_and_cleared_with_the_process_stores(monkeypatch):
    design = compile_source(hostile_source()).design
    compile_design(design)
    assert sim_compile._CODE_MEMO
    reset_process_stores()
    assert not sim_compile._CODE_MEMO
    # Memoised functions are shared, stateless and interchangeable.
    first = compile_design(design)
    second = compile_design(design)
    assert all(a is b for a, b in zip(first.nodes, second.nodes))
    monkeypatch.setattr(sim_compile, "CODE_MEMO_LIMIT", 2)
    sim_compile.clear_code_memo()
    compile_design(design)
    assert len(sim_compile._CODE_MEMO) <= 2
