"""Tests for the columnar trace layer and the attempt-tensor checking engine.

Four contracts are pinned here:

* ``Trace.columns()`` / ``DiffTrace.columns()`` (diff-derived and
  simulator-recorded) agree element-for-element with the row-oriented
  sampled values, are memoised per trace (invalidated on append), and a
  quiet design's DiffTrace builds its columns without materialising
  per-cycle sample dicts;
* the compiled checker's attempt tensor is outcome-identical to the
  tree-walking oracle across every template family and for injected
  mutants (including failing reports), and the tensor actually engages
  (this suite fails if the lowering silently refuses everything);
* assertions the tensor refuses (>63-bit operands, dynamic part selects)
  are checked by the oracle, with the reason recorded and counted;
* adversarial attempt shapes (dense antecedent starts, attempts spanning
  the trace end, ``disable iff`` pulses mid-attempt, pre-trace ``$past``)
  and ragged-length stacked batches stay verdict-identical too;
* the ``Trace.render`` fixes: no name truncation, clear error for unknown
  names.
"""

import pickle

import numpy as np
import pytest

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.corpus.templates import all_families
from repro.hdl.lint import compile_source
from repro.obs.metrics import labeled, scoped_registry
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sim.trace import INT64_COLUMN_MAX_WIDTH
from repro.sva.checker import AssertionChecker
from repro.sva.compile import CompiledAssertionChecker
from repro.sva.generator import insert_assertions, mine_assertions, template_assertion_blocks

FAMILIES = all_families()


def augmented_design(family, prefix="col"):
    artifact = family.build(f"{prefix}_{family.name}", **family.parameter_grid[0])
    golden = compile_source(artifact.source)
    if not golden.ok or golden.design is None:
        return None, None
    mining_trace = Simulator(golden.design).run(
        StimulusGenerator(golden.design, seed=7).mixed_stimulus(random_cycles=24).vectors
    )
    candidates = template_assertion_blocks(artifact.template_svas, artifact.family)
    candidates.extend(mine_assertions(golden.design, mining_trace, max_assertions=5))
    if not candidates:
        return None, None
    augmented = insert_assertions(artifact.source, candidates)
    result = compile_source(augmented)
    if not result.ok or result.design is None:
        return None, None
    return augmented, result.design


def simulate(design, seed=11, cycles=24):
    vectors = StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=cycles).vectors
    return Simulator(design).run(vectors)


def assert_columns_match_samples(trace, names):
    columns = trace.columns(names)
    reference = trace.materialized()
    assert columns.cycles == len(reference)
    for name in names:
        expected_v = [s.sampled(name).value for s in reference.samples]
        expected_x = [s.sampled(name).xmask for s in reference.samples]
        assert columns.values[name].tolist() == expected_v, name
        assert columns.xmasks[name].tolist() == expected_x, name
        assert columns.widths[name] == reference.samples[0].sampled(name).width


# --------------------------------------------------------------------------- #
# columns differential
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family", FAMILIES[:10], ids=[f.name for f in FAMILIES[:10]])
def test_columns_match_sampled_values(family):
    """Event-log and dict-backed columns both equal the samples."""
    _, design = augmented_design(family)
    if design is None:
        pytest.skip("family yields no augmented design")
    names = sorted(design.signals)
    # DiffTrace, columns built from the recorded event log.
    diff_trace = simulate(design)
    assert_columns_match_samples(diff_trace, names)
    # Fully materialised dict-backed trace.
    assert_columns_match_samples(simulate(design).materialized(), names)


def test_recorded_and_derived_columns_identical():
    _, design = augmented_design(FAMILIES[0], prefix="rec")
    if design is None:
        pytest.skip("family yields no augmented design")
    names = sorted(design.signals)
    # The event log's numpy build against the dict-backed per-sample build.
    recorded = simulate(design).columns(names)
    derived = simulate(design).materialized().columns(names)
    for name in names:
        assert np.array_equal(derived.values[name], recorded.values[name])
        assert np.array_equal(derived.xmasks[name], recorded.xmasks[name])


QUIET_SOURCE = """
module quiet(input wire clk, input wire [3:0] a, output reg [3:0] b);
    always @(posedge clk) begin
        b <= a;
    end
endmodule
"""


def test_difftrace_columns_do_not_densify():
    """A quiet design's columns must come from events, not materialised dicts."""
    design = compile_source(QUIET_SOURCE).design
    assert design is not None
    # Constant input: after the first cycle nothing changes.
    trace = Simulator(design).run([{"a": 5}] * 40)
    columns = trace.columns(["a", "b"])
    assert trace._cache == [], "columns() materialised per-cycle samples"
    assert columns.values["a"].tolist() == [5] * 40
    assert columns.values["b"].tolist()[2:] == [5] * 38


def test_columns_unknown_signal_raises_clear_error():
    design = compile_source(QUIET_SOURCE).design
    trace = Simulator(design).run([{"a": 1}] * 4)
    with pytest.raises(KeyError, match="not in trace"):
        trace.columns(["a", "ghost"])
    with pytest.raises(KeyError, match="no column"):
        trace.columns(["a"]).signal("b")


WIDE_SOURCE = """
module wide(
    input wire clk,
    input wire [70:0] a,
    input wire [3:0] n,
    output reg [70:0] b,
    output reg [3:0] m
);
    always @(posedge clk) begin
        b <= a;
        m <= n;
    end
    property p_follow;
        @(posedge clk) 1'b1 |-> $past(a) == b;
    endproperty
    a_follow: assert property (p_follow);
    property p_narrow;
        @(posedge clk) 1'b1 |-> $past(n) == m;
    endproperty
    a_narrow: assert property (p_narrow);
endmodule
"""

DYNAMIC_SELECT_SOURCE = """
module dynsel(
    input wire clk,
    input wire [1:0] i,
    input wire [7:0] a,
    output reg [7:0] b
);
    always @(posedge clk) begin
        b <= a;
    end
    // The slice moves with i, so its bounds are not elaboration-time
    // constants; sampling i one cycle apart makes some attempts fail.
    property p_slice;
        @(posedge clk) 1'b1 |-> $past(a[i*2+1:i*2]) == b[i*2+1:i*2];
    endproperty
    a_slice: assert property (p_slice);
    property p_whole;
        @(posedge clk) 1'b1 |-> $past(a) == b;
    endproperty
    a_whole: assert property (p_whole);
endmodule
"""


def assert_demoted_to_oracle(design, demoted, reason, traces):
    """``demoted`` runs on the tree-walker with ``reason`` recorded and
    counted, every other assertion on the tensor, and outcomes equal the
    oracle under ``check`` and a ragged ``check_batch``."""
    with scoped_registry() as registry:
        checker = CompiledAssertionChecker(design)
    for name, choice in checker.engine_choices.items():
        if name == demoted:
            assert choice == {"engine": "tree_walker", "reason": reason}
        else:
            assert choice == {"engine": "tensor", "reason": None}
    assert registry.counter(labeled("sva.fallback", reason)) == 1
    assert checker.engine_report()["fallback_reasons"] == {reason: 1}
    oracle = AssertionChecker(design)
    references = [oracle.check(trace) for trace in traces]
    assert len({len(trace) for trace in traces}) == len(traces), "batch must be ragged"
    with scoped_registry() as registry:
        batched = checker.check_batch(traces)
    assert registry.counter("sva.check.tree_walker") == len(traces)
    for trace, via_batch, reference in zip(traces, batched, references):
        single = checker.check(trace)
        assert sorted(single.outcomes) == sorted(reference.outcomes)
        for name in reference.outcomes:
            assert (
                single.outcomes[name].comparison_key()
                == via_batch.outcomes[name].comparison_key()
                == reference.outcomes[name].comparison_key()
            ), f"assertion '{name}' diverges from the oracle"
    return references


def test_wide_signals_use_object_columns_and_closure_fallback():
    """>63-bit signals degrade to object columns, and assertions the tensor
    refuses -- wide operands, dynamic part selects -- fall back to the
    tree-walking oracle with the refusing construct as the reason."""
    design = compile_source(WIDE_SOURCE).design
    assert design is not None
    big = (1 << 70) | 3
    trace = Simulator(design).run([{"a": big, "n": 5}] * 8)
    columns = trace.columns(["a"])
    assert columns.values["a"].dtype == object
    assert columns.values["a"].tolist() == [big] * 8
    traces = [
        Simulator(design).run(
            [{"a": (big + 7 * c) if c % 3 else c, "n": c % 16} for c in range(cycles)]
        )
        for cycles in (11, 13, 3)
    ]
    references = assert_demoted_to_oracle(
        design, "a_follow", "width 71 exceeds the int64 column limit", [trace] + traces
    )
    assert references[0].outcomes["a_follow"].passes > 0

    design = compile_source(DYNAMIC_SELECT_SOURCE).design
    assert design is not None
    traces = [simulate(design, seed=seed, cycles=cycles) for seed, cycles in ((3, 30), (4, 17))]
    references = assert_demoted_to_oracle(
        design, "a_slice", "part select bounds are not elaboration-time constants", traces
    )
    slices = [reference.outcomes["a_slice"] for reference in references]
    assert any(outcome.passes for outcome in slices)
    assert any(outcome.failures for outcome in slices)


# --------------------------------------------------------------------------- #
# attempt tensor vs oracle differential
# --------------------------------------------------------------------------- #


def assert_matches_oracle(design, trace):
    """The attempt tensor vs the tree-walking oracle."""
    oracle = AssertionChecker(design).check(trace)
    tensor = CompiledAssertionChecker(design).check(trace)
    assert sorted(oracle.outcomes) == sorted(tensor.outcomes)
    for name in oracle.outcomes:
        assert (
            oracle.outcomes[name].comparison_key()
            == tensor.outcomes[name].comparison_key()
        ), f"assertion '{name}' diverges between the tensor and the oracle"


@pytest.mark.parametrize("family", FAMILIES, ids=[f.name for f in FAMILIES])
def test_vectorised_outcomes_identical(family):
    _, design = augmented_design(family, prefix="vec")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    checker = CompiledAssertionChecker(design)
    assert checker.engine_report()["engines"]["tensor"] > 0, (
        "vector lowering refused every assertion of the family"
    )
    # The tensor must engage on both diff-backed and dict-backed traces
    # (different columns() implementations).
    diff_trace = simulate(design, seed=12, cycles=32)
    assert_matches_oracle(design, diff_trace)
    assert_matches_oracle(design, simulate(design, seed=13, cycles=32).materialized())


def test_vectorised_mutant_outcomes_identical():
    """Buggy designs (where assertions actually fail) must also agree."""
    injector = BugInjector(InjectionConfig(seed=23, max_bugs_per_design=2))
    checked = failing = 0
    for family in FAMILIES[:10]:
        source, design = augmented_design(family, prefix="vmut")
        if design is None or not design.assertions:
            continue
        for bug in injector.inject(f"vmut_{family.name}", source, design):
            buggy = compile_source(bug.buggy_source)
            if not buggy.ok or buggy.design is None:
                continue
            try:
                trace = simulate(buggy.design, seed=9)
            except SimulationError:
                continue
            assert_matches_oracle(buggy.design, trace)
            checked += 1
            if not AssertionChecker(buggy.design).check(trace).passed:
                failing += 1
    assert checked >= 5
    assert failing >= 1, "no mutant produced a failing report; test lost its teeth"


def test_check_assertion_public_entry_point():
    """The oracle's single-assertion entry point is public and consistent."""
    _, design = augmented_design(FAMILIES[0], prefix="pub")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    trace = simulate(design)
    oracle = AssertionChecker(design)
    spec = design.assertions[0]
    outcome = oracle.check_assertion(spec, trace)
    assert outcome.comparison_key() == oracle.check(trace).outcomes[spec.name].comparison_key()


def test_tensor_engages_and_is_observable():
    """Every assertion of a template family lowers to the tensor, and each
    check is counted against the engine that ran it."""
    _, design = augmented_design(FAMILIES[0], prefix="eng")
    if design is None or not design.assertions:
        pytest.skip("family yields no checkable assertions")
    with scoped_registry() as registry:
        tensor = CompiledAssertionChecker(design)
    report = tensor.engine_report()
    assert report["engines"] == {"tensor": len(design.assertions), "tree_walker": 0}
    assert report["fallback_reasons"] == {}
    assert registry.counter("sva.lower.tensor") == len(design.assertions)
    traces = [simulate(design, seed=seed, cycles=16) for seed in (1, 2)]
    with scoped_registry() as registry:
        tensor.check_batch(traces)
    assert registry.counter("sva.check.tensor") == len(design.assertions) * len(traces)
    assert registry.counter("sva.check.tree_walker") == 0


# --------------------------------------------------------------------------- #
# adversarial attempt shapes and ragged stacked batches
# --------------------------------------------------------------------------- #


ADVERSARIAL_SOURCE = """
module adversarial(
    input wire clk,
    input wire rst,
    input wire req,
    input wire [3:0] data,
    output reg [3:0] acc
);
    always @(posedge clk) begin
        if (rst) acc <= 4'd0;
        else acc <= acc + data;
    end
    // Dense antecedent starts: with req held high, every cycle opens an
    // attempt whose multi-element antecedent overlaps its neighbours'.
    property p_dense;
        @(posedge clk) disable iff (rst) req ##1 req |-> ##1 req ##2 req;
    endproperty
    a_dense: assert property (p_dense);
    // Deep $past: the first three cycles compare against pre-trace x.
    property p_past;
        @(posedge clk) disable iff (rst) req |=> data != $past(data, 3);
    endproperty
    a_past: assert property (p_past);
    // Long consequent tail: late attempts always span the trace end.
    property p_tail;
        @(posedge clk) req ##2 req |-> ##1 req ##3 req ##3 req;
    endproperty
    a_tail: assert property (p_tail);
    // No antecedent: every non-disabled cycle is checked directly.
    property p_flat;
        @(posedge clk) disable iff (rst) !req || data <= 4'd15;
    endproperty
    a_flat: assert property (p_flat);
endmodule
"""


def adversarial_design():
    result = compile_source(ADVERSARIAL_SOURCE)
    assert result.ok and result.design is not None, result.render()
    return result.design


def adversarial_trace(design, cycles, hold=True, pulse_at=()):
    """A trace with dense req runs, optional mid-trace disable pulses."""
    vectors = []
    for i in range(cycles):
        vectors.append(
            {
                "rst": 1 if i in pulse_at else 0,
                # hold=True keeps req high (dense overlapping attempts);
                # otherwise req toggles in runs of three against one low.
                "req": 1 if hold or (i % 4) != 3 else 0,
                "data": (5 * i + 2) % 16,
            }
        )
    return Simulator(design).run(vectors)


def test_adversarial_attempt_shapes_match_oracle():
    design = adversarial_design()
    tensor = CompiledAssertionChecker(design)
    assert all(
        choice["engine"] == "tensor" for choice in tensor.engine_choices.values()
    ), tensor.engine_choices
    traces = [
        # Dense starts, attempts spanning the trace end (long tails).
        adversarial_trace(design, 20),
        # Disable pulses mid-attempt: spans crossing cycles 6 and 13 flip
        # from fail/pass to disabled, exactly once per bucket transition.
        adversarial_trace(design, 24, pulse_at=(6, 13)),
        # Sparse req with pulses: vacuous/pending/disabled all populated.
        adversarial_trace(design, 17, hold=False, pulse_at=(2, 15)),
        # Shorter than the deepest $past: pre-trace unknowns dominate.
        adversarial_trace(design, 3),
        # Degenerate single-cycle and empty traces.
        adversarial_trace(design, 1),
        adversarial_trace(design, 0),
    ]
    for trace in traces:
        assert_matches_oracle(design, trace)
    # The shapes must actually exercise every bucket somewhere, or this
    # test has no teeth.
    oracle = AssertionChecker(design)
    totals = {"failures": 0, "vacuous": 0, "pending": 0, "disabled": 0, "passes": 0}
    for trace in traces:
        for outcome in oracle.check(trace).outcomes.values():
            totals["failures"] += len(outcome.failures)
            totals["vacuous"] += outcome.vacuous
            totals["pending"] += outcome.pending
            totals["disabled"] += outcome.disabled
            totals["passes"] += outcome.passes
    assert all(count > 0 for count in totals.values()), totals


def test_ragged_stacked_batch_matches_per_trace_and_oracle():
    """check_batch over ragged-length traces (the stacked 2-D path) must be
    outcome-identical to per-trace checks and to the tree-walker."""
    design = adversarial_design()
    checker = CompiledAssertionChecker(design)
    oracle = AssertionChecker(design)
    traces = [
        adversarial_trace(design, 23, pulse_at=(5,)),
        adversarial_trace(design, 7),
        adversarial_trace(design, 0),
        adversarial_trace(design, 16, hold=False, pulse_at=(9, 10)),
        adversarial_trace(design, 1),
    ]
    batched = checker.check_batch(traces)
    assert len(batched) == len(traces)
    for trace, via_batch in zip(traces, batched):
        single = checker.check(trace)
        reference = oracle.check(trace)
        assert sorted(via_batch.outcomes) == sorted(reference.outcomes)
        for name in reference.outcomes:
            assert (
                via_batch.outcomes[name].comparison_key()
                == single.outcomes[name].comparison_key()
                == reference.outcomes[name].comparison_key()
            ), f"assertion '{name}' diverges on the stacked batch path"


def test_stacked_batch_on_template_families():
    """Seed-stacked batches across template families stay verdict-identical."""
    checked = 0
    for family in FAMILIES[:6]:
        _, design = augmented_design(family, prefix="stack")
        if design is None or not design.assertions:
            continue
        checker = CompiledAssertionChecker(design)
        traces = [
            simulate(design, seed=60 + i, cycles=12 + 9 * i)
            for i in range(3)
        ]
        batched = checker.check_batch(traces)
        oracle = AssertionChecker(design)
        for trace, via_batch in zip(traces, batched):
            reference = oracle.check(trace)
            for name in reference.outcomes:
                assert (
                    via_batch.outcomes[name].comparison_key()
                    == reference.outcomes[name].comparison_key()
                ), f"assertion '{name}' diverges on the stacked batch path"
        checked += 1
    assert checked >= 3


# --------------------------------------------------------------------------- #
# columns memoisation
# --------------------------------------------------------------------------- #


def test_columns_are_memoised_per_name_tuple():
    design = compile_source(QUIET_SOURCE).design
    trace = Simulator(design).run([{"a": 5}] * 10)
    assert trace.columns_cached(["a"]) is None
    first = trace.columns(["a"])
    assert trace.columns(["a"]) is first
    assert trace.columns_cached(["a"]) is first
    # A different name tuple is a different memo entry.
    both = trace.columns(["a", "b"])
    assert both is not first
    assert trace.columns(["a", "b"]) is both
    assert trace.columns(["a"]) is first


def test_columns_memo_invalidated_on_append():
    from repro.sim.trace import Trace, TraceSample
    from repro.sim.values import LogicValue

    def sample(cycle, value):
        held = {"a": LogicValue.from_int(value, 4)}
        return TraceSample(cycle=cycle, pre_edge=held, post_edge=held)

    trace = Trace(signals=["a"])
    trace.append(sample(0, 3))
    first = trace.columns(["a"])
    assert first.values["a"].tolist() == [3]
    trace.append(sample(1, 9))
    rebuilt = trace.columns(["a"])
    assert rebuilt is not first
    assert rebuilt.values["a"].tolist() == [3, 9]


def test_difftrace_columns_memo_invalidated_by_recording():
    design = compile_source(QUIET_SOURCE).design
    sim = Simulator(design)
    trace = sim.run([{"a": 5}] * 6)
    first = trace.columns(["a", "b"])
    assert trace.columns(["a", "b"]) is first
    # Recording one more cycle must invalidate.
    sim.step({"a": 5})
    rebuilt = trace.columns(["a", "b"])
    assert rebuilt is not first
    assert rebuilt.cycles == first.cycles + 1


def test_columns_memo_dropped_on_pickle():
    design = compile_source(QUIET_SOURCE).design
    trace = Simulator(design).run([{"a": 5}] * 6).materialized()
    built = trace.columns(["a"])
    restored = pickle.loads(pickle.dumps(trace))
    assert "_columns_memo" not in restored.__dict__
    assert restored.columns(["a"]).values["a"].tolist() == built.values["a"].tolist()


def test_event_log_columns_memo_dropped_on_pickle():
    design = compile_source(QUIET_SOURCE).design
    trace = Simulator(design).run([{"a": 5}, {"a": 3}] * 4)
    built = trace.columns(["a", "b"])
    restored = pickle.loads(pickle.dumps(trace))
    assert "_columns_memo" not in restored.__dict__
    assert restored.columns(["a", "b"]).values["b"].tolist() == built.values["b"].tolist()
    assert restored.materialized() == trace.materialized()


def test_step_after_run_extends_the_same_trace():
    design = compile_source(QUIET_SOURCE).design
    vectors = [{"a": v} for v in (1, 2, 3, 4, 5, 6)]
    sim = Simulator(design)
    trace = sim.run(vectors[:3])
    early = trace[2]
    for vector in vectors[3:]:
        sample = sim.step(vector)
        assert sample is trace[len(trace) - 1]
    assert sim.trace is trace and len(trace) == 6
    assert trace[2] is early, "extending the trace rebuilt an earlier cycle"
    reference = Simulator(design).run(vectors)
    assert trace.materialized() == reference.materialized()
    assert trace.columns(["b"]).values["b"].tolist() == [0, 1, 2, 3, 4, 5]


def test_vcd_of_every_family_is_unchanged():
    """Byte-identical to the closure-compiled simulator's VCD output."""
    import hashlib

    from repro.sim.vcd import vcd_string

    digest = hashlib.sha256()
    for family in FAMILIES:
        design = compile_source(family.build(f"vcd_{family.name}", **family.parameter_grid[0]).source).design
        vectors = StimulusGenerator(design, seed=5).mixed_stimulus(random_cycles=40).vectors
        digest.update(vcd_string(Simulator(design).run(vectors), module_name=family.name).encode())
    assert digest.hexdigest() == "38e4137c17e2691097423e4a0f4ae5a442f5a616d99176315a57c14eb7b21799"


# --------------------------------------------------------------------------- #
# render fixes
# --------------------------------------------------------------------------- #


LONG_NAMES_SOURCE = """
module longnames(
    input wire clk,
    input wire [3:0] a_very_long_signal_name_one,
    output reg [3:0] a_very_long_signal_name_two
);
    always @(posedge clk) begin
        a_very_long_signal_name_two <= a_very_long_signal_name_one;
    end
endmodule
"""


def test_render_does_not_truncate_long_names():
    design = compile_source(LONG_NAMES_SOURCE).design
    trace = Simulator(design).run([{"a_very_long_signal_name_one": 3}] * 4)
    rendered = trace.materialized().render(
        ["a_very_long_signal_name_one", "a_very_long_signal_name_two"]
    )
    # Both full names must be present and therefore distinguishable.
    assert "a_very_long_signal_name_one" in rendered
    assert "a_very_long_signal_name_two" in rendered


def test_render_unknown_name_raises_value_error():
    design = compile_source(LONG_NAMES_SOURCE).design
    trace = Simulator(design).run([{"a_very_long_signal_name_one": 3}] * 4)
    with pytest.raises(ValueError, match="cannot render"):
        trace.materialized().render(["no_such_signal"])
