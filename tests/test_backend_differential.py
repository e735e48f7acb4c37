"""Differential tests: the compiled backend must match the interpreter.

Every template family's representative design (and a set of injected
mutants) is simulated by both backends on identical stimulus; the traces
must be ``equals()``-identical signal by signal, cycle by cycle, for both
the preponed and the post-edge sampling points.
"""

import pytest

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.sim.compile import CompiledSimulator, CompileError
from repro.sim.engine import InterpSimulator, Simulator, SimulatorOptions
from repro.sim.stimulus import StimulusGenerator

FAMILIES = all_families()


def assert_traces_identical(design, vectors, options=None) -> None:
    interp_trace = InterpSimulator(design, options=options).run(vectors)
    compiled_trace = CompiledSimulator(design, options=options).run(vectors)
    assert len(interp_trace) == len(compiled_trace)
    for cycle in range(len(interp_trace)):
        expected = interp_trace[cycle]
        actual = compiled_trace[cycle]
        assert set(expected.pre_edge) == set(actual.pre_edge)
        for name in expected.pre_edge:
            assert expected.pre_edge[name].equals(actual.pre_edge[name]), (
                f"pre-edge mismatch: cycle {cycle}, signal {name}: "
                f"{expected.pre_edge[name]} != {actual.pre_edge[name]}"
            )
            assert expected.post_edge[name].equals(actual.post_edge[name]), (
                f"post-edge mismatch: cycle {cycle}, signal {name}: "
                f"{expected.post_edge[name]} != {actual.post_edge[name]}"
            )


def design_for(family):
    artifact = family.build(f"dut_{family.name}", **family.parameter_grid[0])
    result = compile_source(artifact.source)
    assert result.ok and result.design is not None, result.render()
    return result.design


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_family_traces_identical(family):
    design = design_for(family)
    vectors = StimulusGenerator(design, seed=3).mixed_stimulus(random_cycles=24).vectors
    assert_traces_identical(design, vectors)


@pytest.mark.parametrize("family", FAMILIES[:6], ids=[f.name for f in FAMILIES[:6]])
def test_family_traces_identical_with_x_initial_state(family):
    design = design_for(family)
    vectors = StimulusGenerator(design, seed=5).mixed_stimulus(random_cycles=16).vectors
    assert_traces_identical(design, vectors, options=SimulatorOptions(x_initial_state=True))


@pytest.mark.parametrize("seed", [17, 42])
def test_mutant_traces_identical(seed):
    """Buggy (mutated) designs must also behave identically on both backends.

    Seed 42 is a regression case: it mutates round_robin_arbiter into a
    design where a clocked block writes a comb-driven signal, which the
    dirty-set scheduler must re-settle exactly like the interpreter.
    """
    injector = BugInjector(InjectionConfig(seed=seed, max_bugs_per_design=4))
    checked = 0
    for family in FAMILIES[:24]:
        artifact = family.build(f"mut_{family.name}", **family.parameter_grid[0])
        golden = compile_source(artifact.source)
        if not golden.ok or golden.design is None:
            continue
        for bug in injector.inject(artifact.name, artifact.source, golden.design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            vectors = StimulusGenerator(buggy.design, seed=9).mixed_stimulus(random_cycles=12).vectors
            assert_traces_identical(buggy.design, vectors)
            checked += 1
    assert checked >= 3, "expected at least three simulatable mutants"


def test_seq_write_to_comb_driven_signal_matches_interpreter():
    """A clocked write to a comb-driven signal loses the settle, as in the oracle.

    Lint only rejects continuous+procedural mixes, so comb-block/seq-block
    double drivers reach simulation (bug-injected mutants produce them).
    """
    source = (
        "module m(input wire clk, input wire rst_n, input wire a, output reg y);\n"
        "    always @(*) y = a;\n"
        "    always @(posedge clk or negedge rst_n) begin\n"
        "        if (!rst_n) y <= 1'b0;\n"
        "        else y <= 1'b1;\n"
        "    end\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok and result.design is not None
    vectors = [{"rst_n": 0, "a": 0}, {"rst_n": 1, "a": 0}, {"rst_n": 1, "a": 1}, {"rst_n": 1, "a": 0}]
    assert_traces_identical(result.design, vectors)
    sim = Simulator(result.design)
    sim.run(vectors)
    assert sim.peek("y") == 0, "the combinational driver must win the settle"


def test_stimulus_write_to_comb_driven_signal_matches_interpreter():
    """Forcing a continuously-driven signal via step() loses to its driver."""
    source = (
        "module f(input wire clk, input wire a, input wire b, output wire y);\n"
        "    assign y = a & b;\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok and result.design is not None
    for backend in (InterpSimulator, CompiledSimulator):
        sim = backend(result.design)
        sim.step({"a": 1, "b": 1, "y": 0})
        assert sim.peek("y") == 1, f"{backend.__name__}: the continuous driver must win"
    assert_traces_identical(result.design, [{"a": 1, "b": 1, "y": 0}, {"a": 0, "b": 1, "y": 1}])


def test_difftrace_supports_slice_indexing():
    design = design_for(FAMILIES[0])
    sim = Simulator(design)
    trace = sim.run([{"rst_n": 0}] + [{"rst_n": 1}] * 4)
    window = trace[1:3]
    assert len(window) == 2
    assert window[0].cycle == 1


def test_factory_prefers_compiled_backend():
    design = design_for(FAMILIES[0])
    assert isinstance(Simulator(design), CompiledSimulator)


def test_factory_falls_back_to_interpreter_on_compile_error():
    # Lint-clean, but the compiled backend only clocks on 1-bit signals: the
    # factory's one selection rule is CompileError -> InterpSimulator.
    source = (
        "module m(input [1:0] clk, input a, output reg y);\n"
        "    always @(posedge clk) y <= a;\n"
        "endmodule\n"
    )
    result = compile_source(source)
    assert result.ok and result.design is not None, result.render()
    with pytest.raises(CompileError, match="not a 1-bit signal"):
        CompiledSimulator(result.design)
    sim = Simulator(result.design)
    assert isinstance(sim, InterpSimulator)
    trace = sim.run([{"a": 1}, {"a": 0}, {"a": 1}])
    assert len(trace) == 3
    assert sim.peek("y") == 1
