"""Differential fuzz: the compiled simulator against the interpreter oracle.

A ``hypothesis`` strategy builds random designs over the subset the parser
accepts -- parameters and continuous assigns; ``always_ff`` with
asynchronous resets on either edge; ``always_comb`` / ``always @*`` with
``case``/``casez``/``casex`` and blocking temporaries; ternaries,
concatenation and replication, constant and dynamic selects; widths on both
sides of 63 bits; literal operands -- and drives them with random stimulus
that includes x-valued :class:`LogicValue` inputs.  The property: the
:class:`CompiledSimulator`'s samples equal the :class:`InterpSimulator`'s,
cycle by cycle, or both raise :class:`SimulationError` with equal messages.

The tier-1 run is derandomised (``tests/conftest.py``); CI runs a longer
seeded leg with ``--hypothesis-profile=ci --hypothesis-seed=<n>``.  Every
shrunk counterexample is kept below as a named regression test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator
from repro.sim.engine import InterpSimulator, SimulationError, SimulatorOptions
from repro.sim.values import LogicValue

WIDTHS = (1, 1, 2, 3, 4, 5, 8, 13, 16, 31, 32, 33, 62, 63, 64, 65, 70)
#: The tier-1 profile runs few examples (each simulates two engines); the
#: ci profile scales up with it.
EXAMPLES = max(40, settings.default.max_examples // 4)


# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #


def literal(draw, width):
    kind = draw(st.sampled_from(("sized", "sized", "unsized", "xbits")))
    if kind == "unsized":
        return str(draw(st.integers(0, 40)))
    if kind == "xbits":
        bits = "".join(draw(st.lists(st.sampled_from("01xz?"), min_size=1, max_size=min(width, 8))))
        return f"{len(bits)}'b{bits}"
    value = draw(st.integers(0, (1 << width) - 1))
    return f"{width}'h{value:x}" if draw(st.booleans()) else f"{width}'d{value}"


def expression(draw, readable, params, depth):
    """A random expression over ``readable`` ({name: width}) and ``params``."""
    names = sorted(readable)
    if depth <= 0 or draw(st.integers(0, 4)) == 0:
        choice = draw(st.integers(0, 9))
        if choice < 6 and names:
            return draw(st.sampled_from(names))
        if choice < 7 and params:
            return draw(st.sampled_from(sorted(params)))
        return literal(draw, draw(st.sampled_from(WIDTHS)))

    def sub():
        return expression(draw, readable, params, depth - 1)

    form = draw(st.integers(0, 11))
    if form == 0:
        return f"{draw(st.sampled_from(('~', '!', '-', '&', '|', '^', '+')))}({sub()})"
    if form in (1, 2, 3):
        op = draw(st.sampled_from((
            "+", "-", "*", "&", "|", "^", "==", "!=", "===", "!==", "<", "<=",
            ">", ">=", "&&", "||", "<<", ">>", ">>>", "/", "%",
        )))
        return f"({sub()} {op} {sub()})"
    if form == 4:
        return f"({sub()} ? {sub()} : {sub()})"
    if form == 5:
        parts = [sub() for _ in range(draw(st.integers(1, 3)))]
        return "{" + ", ".join(parts) + "}"
    if form == 6:
        return "{" + str(draw(st.integers(1, 4))) + "{" + sub() + "}}"
    if form in (7, 8) and names:
        name = draw(st.sampled_from(names))
        width = readable[name]
        if form == 7:
            if draw(st.booleans()):
                return f"{name}[{draw(st.integers(0, width + 1))}]"
            return f"{name}[{sub()}]"  # dynamic bit select
        if draw(st.booleans()):
            lsb = draw(st.integers(0, width))
            msb = draw(st.integers(lsb, width + 2))
            return f"{name}[{msb}:{lsb}]"
        # Dynamic part select; an index narrower than the 32-bit literal
        # cannot wrap, so msb >= lsb (a reversed runtime slice raises
        # ValueError in the interpreter but SimulationError here).
        index = draw(st.sampled_from([n for n in names if readable[n] < 32] or ["0"]))
        return f"{name}[{index} + 1:{index}]"
    if form == 9:
        call = draw(st.sampled_from(("$countones", "$onehot", "$onehot0", "$clog2", "$signed")))
        return f"{call}({sub()})"
    return sub()


# --------------------------------------------------------------------------- #
# statements and designs
# --------------------------------------------------------------------------- #


def case_statement(draw, readable, params, targets, depth):
    variant = draw(st.sampled_from(("case", "casez", "casex")))
    subject = expression(draw, readable, params, 1)
    lines = [f"{variant} ({subject})"]
    for _ in range(draw(st.integers(1, 4))):
        labels = [literal(draw, draw(st.sampled_from((1, 2, 3, 4)))) for _ in range(draw(st.integers(1, 2)))]
        if draw(st.integers(0, 5)) == 0:
            labels[0] = expression(draw, readable, params, 1)
        lines.append(f"  {', '.join(labels)}: {statement(draw, readable, params, targets, depth - 1)}")
    if draw(st.booleans()):
        lines.append(f"  default: {statement(draw, readable, params, targets, depth - 1)}")
    lines.append("endcase")
    return "\n".join(lines)


def statement(draw, readable, params, targets, depth, blocking=False):
    op = "=" if blocking else "<="
    target, width = draw(st.sampled_from(sorted(targets.items())))
    choice = draw(st.integers(0, 5)) if depth > 0 else 0
    if choice <= 2:
        if width > 1 and draw(st.integers(0, 4)) == 0:
            lsb = draw(st.integers(0, width - 1))
            target = f"{target}[{draw(st.integers(lsb, width - 1))}:{lsb}]"
        return f"{target} {op} {expression(draw, readable, params, 2)};"
    if choice == 3:
        then = statement(draw, readable, params, targets, depth - 1, blocking)
        if draw(st.booleans()):
            other = statement(draw, readable, params, targets, depth - 1, blocking)
            return f"if ({expression(draw, readable, params, 1)}) {then} else {other}"
        return f"if ({expression(draw, readable, params, 1)}) {then}"
    if choice == 4:
        return case_statement(draw, readable, params, targets, depth)
    body = [statement(draw, readable, params, targets, depth - 1, blocking) for _ in range(2)]
    return "begin " + " ".join(body) + " end"


@st.composite
def designs(draw):
    inputs = {f"i{k}": draw(st.sampled_from(WIDTHS)) for k in range(draw(st.integers(1, 3)))}
    params = {f"P{k}": draw(st.integers(0, 9)) for k in range(draw(st.integers(0, 2)))}
    reset = draw(st.sampled_from(("negedge rst_n", "posedge rst", None)))
    lines = ["module fz(input wire clk, input wire rst_n, input wire rst,"]
    lines.append(",\n".join(f"  input wire [{w - 1}:0] {n}" for n, w in inputs.items()) + ",")
    lines.append("  output wire done);")
    for name, value in params.items():
        lines.append(f"  parameter {name} = {value};")
    readable = dict(inputs, rst_n=1)
    regs = {f"r{k}": draw(st.sampled_from(WIDTHS)) for k in range(draw(st.integers(1, 3)))}
    for name, width in regs.items():
        lines.append(f"  reg [{width - 1}:0] {name};")
    readable.update(regs)
    # Combinational signals read only inputs, registers and earlier ones:
    # the generated logic has no combinational loop.
    for k in range(draw(st.integers(0, 3))):
        name, width = f"w{k}", draw(st.sampled_from(WIDTHS))
        lines.append(f"  wire [{width - 1}:0] {name};")
        lines.append(f"  assign {name} = {expression(draw, readable, params, 3)};")
        readable[name] = width
    for k in range(draw(st.integers(0, 2))):
        name, temp = f"c{k}", f"t{k}"
        width = draw(st.sampled_from(WIDTHS))
        lines.append(f"  reg [{width - 1}:0] {name};")
        lines.append(f"  reg [{width - 1}:0] {temp};")
        header = draw(st.sampled_from(("always_comb", "always @*", "always @(*)")))
        first = f"{temp} = {expression(draw, readable, params, 2)};"
        rest = statement(draw, dict(readable, **{temp: width}), params, {name: width, temp: width}, 2, True)
        lines.append(f"  {header} begin {name} = {expression(draw, readable, params, 1)}; {first} {rest} end")
        readable[name] = width
    for name, width in regs.items():
        body = statement(draw, readable, params, {name: width}, 3)
        if reset is None:
            lines.append(f"  always_ff @(posedge clk) {body}")
        else:
            active = "!rst_n" if reset.startswith("negedge") else "rst"
            lines.append(
                f"  always_ff @(posedge clk or {reset}) if ({active}) {name} <= {literal(draw, width)};"
                f" else {body}"
            )
    lines.append(f"  assign done = |{draw(st.sampled_from(sorted(readable)))};")
    lines.append("endmodule")
    return "\n".join(lines), inputs


def stimulus_values(draw, inputs, cycles):
    vectors = []
    for _ in range(cycles):
        vector = {}
        for name, width in inputs.items():
            roll = draw(st.integers(0, 9))
            if roll == 0:
                vector[name] = LogicValue(
                    value=draw(st.integers(0, (1 << width) - 1)),
                    xmask=draw(st.integers(1, (1 << width) - 1)),
                    width=width,
                )
            elif roll < 8:
                vector[name] = draw(st.integers(0, (1 << width) - 1))
        roll = draw(st.integers(0, 9))
        if roll == 0:
            vector["rst_n"] = LogicValue(value=0, xmask=1, width=1)
        elif roll < 4:
            vector["rst_n"] = draw(st.integers(0, 1))
            vector["rst"] = draw(st.integers(0, 1))
        vectors.append(vector)
    return vectors


def run_engine(engine, design, vectors):
    try:
        simulator = engine(design)
        return simulator.run(vectors).materialized(), None
    except SimulationError as exc:
        return None, str(exc)


def assert_engines_agree(source, vectors):
    result = compile_source(source)
    assert result.ok and result.design is not None, result.render()
    design = result.design
    compiled, compiled_error = run_engine(CompiledSimulator, design, vectors)
    oracle, oracle_error = run_engine(InterpSimulator, design, vectors)
    assert compiled_error == oracle_error, (compiled_error, oracle_error)
    if oracle is None:
        return
    assert len(compiled) == len(oracle)
    for cycle, (mine, reference) in enumerate(zip(compiled.samples, oracle.samples)):
        for name, value in reference.pre_edge.items():
            assert mine.pre_edge[name].equals(value), (cycle, name, "pre", mine.pre_edge[name], value)
            assert mine.post_edge[name].equals(reference.post_edge[name]), (cycle, name, "post")


@settings(max_examples=EXAMPLES)
@given(st.data())
def test_compiled_matches_interpreter_on_random_designs(data):
    source, inputs = data.draw(designs())
    vectors = stimulus_values(data.draw, inputs, data.draw(st.integers(1, 12)))
    assert_engines_agree(source, vectors)


# --------------------------------------------------------------------------- #
# shrunk counterexamples
# --------------------------------------------------------------------------- #


def test_literal_operand_of_a_method_call_is_parenthesised():
    """``^4'd0`` and ``$countones(3)`` emit a method call on a literal operand."""
    source = (
        "module fz(input wire clk, input wire [3:0] i0, output wire done);\n"
        "  wire [7:0] w0;\n"
        "  assign w0 = {^(i0 & 4'd0), $countones(i0 | 3), $onehot(i0 ^ 1)};\n"
        "  assign done = |w0;\nendmodule\n"
    )
    assert_engines_agree(source, [{"i0": 5}, {"i0": LogicValue(0, 0b1111, 4)}, {"i0": 2}])


@pytest.mark.parametrize("variant", ["case", "casez", "casex"])
def test_case_with_x_labels_and_computed_labels(variant):
    source = (
        "module fz(input wire clk, input wire [3:0] i0, input wire [3:0] i1, output reg [3:0] c0);\n"
        f"  always_comb begin c0 = 4'd0; {variant} (i0)\n"
        "    4'b1x0?: c0 = 4'd1;\n"
        "    i1 + 4'd1, 4'd3: c0 = 4'd2;\n"
        "    default: c0 = i1;\n"
        "  endcase end\nendmodule\n"
    )
    vectors = [{"i0": v, "i1": (v * 7) & 15} for v in range(16)]
    vectors.append({"i0": LogicValue(0b1000, 0b0001, 4), "i1": 2})
    assert_engines_agree(source, vectors)


def test_mismatched_width_ternary_with_unknown_condition():
    source = (
        "module fz(input wire clk, input wire s, input wire [69:0] a, input wire [2:0] b,\n"
        "          output wire [69:0] y);\n"
        "  assign y = (s ? a : b) + {2{b[1:0]}} + a[b + 1:b];\nendmodule\n"
    )
    vectors = [
        {"s": 1, "a": (1 << 69) | 5, "b": 6},
        {"s": 0, "a": 3, "b": 7},
        {"s": LogicValue(0, 1, 1), "a": 3, "b": 3},
        {"s": LogicValue(0, 1, 1), "a": 2, "b": 2},
    ]
    assert_engines_agree(source, vectors)


MIXED_SCHEDULING = """
module fz(input wire clk, input wire rst_n, input wire [3:0] a, input wire [3:0] b,
          output reg [3:0] q, output reg [3:0] n, output wire [7:0] y);
  reg [3:0] t;
  reg [3:0] u;
  reg [1:0] hi;
  reg [1:0] lo;
  reg [3:0] c;
  wire [1:0] p;
  wire [1:0] r;
  initial begin t = 4'd3; u <= t + 4'd1; t = t + 4'd2; end
  assign {p, r} = a ^ b;
  always @* begin c <= a; c[0] <= b[1]; {hi, lo} = {b[1:0], a[3:2]}; end
  always @(posedge clk or negedge rst_n)
    if (!rst_n) q <= 4'd0;
    else begin t = q + a; q <= t; t = t ^ b; u <= t; end
  always @(posedge clk) begin t = a; n <= t + {hi, lo}; end
  always @(negedge clk) n[3] <= c[2];
  assign y = {q, n} + {u, t} + {p, r, c};
endmodule
"""


@pytest.mark.parametrize("x_initial", [False, True])
def test_blocking_seq_blocks_negedge_initial_and_concat_targets(x_initial):
    design = compile_source(MIXED_SCHEDULING).design
    vectors = [{"rst_n": 0, "a": 1, "b": 2}] + [
        {"rst_n": 1, "a": (i * 5) & 15, "b": (i * 3) & 15} for i in range(10)
    ] + [{"a": LogicValue(0, 0b0110, 4)}, {"rst_n": LogicValue(0, 1, 1)}, {"rst_n": 0}]
    options = SimulatorOptions(x_initial_state=x_initial)
    compiled = CompiledSimulator(design, options).run(vectors).materialized()
    oracle = InterpSimulator(design, options).run(vectors)
    assert compiled == oracle
