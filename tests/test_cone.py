"""Cone-screen soundness: differential tests against real simulation.

The headline invariant of the screened verifier: for every candidate, a
``static_screen`` run's verdict must be byte-identical (modulo the
``provenance`` field) to an unscreened run's -- candidates the screen
skips return the memoised base verdict, and that base verdict must equal
what actually simulating the candidate would have produced.

The sweep crosses every template family with one representative mutant per
mutation kind (the same pool the benchmark's screened leg uses), plus
hand-built adversarial edits -- parameters, clocks, resets, ``disable
iff``, assertion bodies -- that the screen must never skip.
"""

import pytest

from repro.analyze import build_dfg, cone_screen, edit_impact, lint_screen
from repro.bugs.mutators import enumerate_mutations
from repro.corpus.templates import all_families
from repro.eval.verifier import CandidateFix, SemanticVerifier, VerifierConfig
from repro.hdl.lint import compile_source

CYCLES = 24
SEEDS = (101, 102)


def build_family_case(family):
    from test_artifacts import build_family_case as build

    return build(family)


def mutant_fixes(source, design):
    """One (line_number, mutated_line) per mutation kind, compiling only."""
    signals = sorted(design.signals)
    lines = source.splitlines()
    chosen = {}
    for number, line in enumerate(lines, start=1):
        for candidate in enumerate_mutations(line, signals):
            if candidate.edit_kind in chosen:
                continue
            mutated = list(lines)
            mutated[number - 1] = candidate.buggy_line
            if compile_source("\n".join(mutated)).design is not None:
                chosen[candidate.edit_kind] = (number, candidate.buggy_line)
    return list(chosen.values())


def verdict_core(verdict):
    payload = verdict.to_dict()
    payload.pop("provenance")
    return payload


# --------------------------------------------------------------------------- #
# the family x mutation-kind differential sweep
# --------------------------------------------------------------------------- #


def test_screened_verdicts_match_unscreened_across_families():
    """Every mutant of every family: screen=full == screen=off, bytewise."""
    cone_skips = 0
    checked = 0
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        off = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
        screened = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="full"))
        for line_number, mutated_line in mutant_fixes(source, design):
            fix = CandidateFix(line_number=line_number, fixed_line=mutated_line)
            baseline = off.verify(source, fix, SEEDS)
            shadow = screened.verify(source, fix, SEEDS)
            assert verdict_core(baseline) == verdict_core(shadow), (
                family.name,
                line_number,
                mutated_line,
                shadow.provenance,
            )
            checked += 1
            if shadow.provenance == "cone_skip":
                cone_skips += 1
    assert checked > 0
    # The sweep must actually exercise the skip path somewhere, or this
    # differential proves nothing about it.
    assert cone_skips > 0


def test_cone_skip_returns_simulated_base_verdict():
    """A skipped candidate's verdict equals simulating the candidate itself."""
    for family in all_families():
        case = build_family_case(family)
        if case is None:
            continue
        source, design = case
        base_dfg = build_dfg(design)
        verifier = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
        for line_number, mutated_line in mutant_fixes(source, design):
            lines = source.splitlines()
            lines[line_number - 1] = mutated_line
            mutant_source = "\n".join(lines)
            mutant_design = compile_source(mutant_source).design
            if mutant_design is None:
                continue
            decision = cone_screen(base_dfg, build_dfg(mutant_design))
            if not decision.skip:
                continue
            # Soundness, stated directly: simulate both, compare verdicts.
            base_verdict = verifier.verify_source(source, SEEDS, cycles=CYCLES)
            mutant_verdict = verifier.verify_source(mutant_source, SEEDS, cycles=CYCLES)
            assert verdict_core(base_verdict) == verdict_core(mutant_verdict), (
                family.name,
                line_number,
                mutated_line,
            )


# --------------------------------------------------------------------------- #
# adversarial edits the screen must never skip
# --------------------------------------------------------------------------- #

ADVERSARIAL_BASE = """
module adv #(parameter LIMIT = 7) (
    input wire clk,
    input wire rst_n,
    input wire en,
    output reg [3:0] count,
    output wire done
);
    assign done = (count == LIMIT);
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) count <= 4'd0;
        else if (en) count <= count + 4'd1;
    end
    property p_reset;
        @(posedge clk) disable iff (!rst_n) en |=> count != 4'd0 || $past(count) == 4'd15;
    endproperty
    a_reset: assert property (p_reset);
endmodule
"""

ADVERSARIAL_EDITS = [
    ("parameter", "parameter LIMIT = 7", "parameter LIMIT = 3"),
    ("clock-edge", "always @(posedge clk or negedge rst_n)", "always @(negedge clk or negedge rst_n)"),
    ("reset-polarity", "if (!rst_n) count <= 4'd0;", "if (rst_n) count <= 4'd0;"),
    ("disable-iff", "disable iff (!rst_n)", "disable iff (1'b0)"),
    ("assertion-body", "en |=> count != 4'd0", "en |=> count == 4'd0"),
    ("signal-width", "output reg [3:0] count", "output reg [4:0] count"),
]


@pytest.mark.parametrize("label,needle,replacement", ADVERSARIAL_EDITS)
def test_adversarial_edits_are_never_cone_skipped(label, needle, replacement):
    assert needle in ADVERSARIAL_BASE, label
    patched_source = ADVERSARIAL_BASE.replace(needle, replacement)
    base = compile_source(ADVERSARIAL_BASE).design
    patched = compile_source(patched_source).design
    assert base is not None and patched is not None, label
    decision = cone_screen(build_dfg(base), build_dfg(patched))
    assert not decision.skip, (label, decision.reason)


def test_in_cone_edit_is_not_skipped_and_out_of_cone_edit_is():
    base = compile_source(ADVERSARIAL_BASE).design
    dfg = build_dfg(base)

    out_of_cone = ADVERSARIAL_BASE.replace("count == LIMIT", "count >= LIMIT")
    decision = cone_screen(dfg, build_dfg(compile_source(out_of_cone).design))
    assert decision.skip
    assert decision.changed_signals == ("done",)

    in_cone = ADVERSARIAL_BASE.replace("count + 4'd1", "count + 4'd2")
    decision = cone_screen(dfg, build_dfg(compile_source(in_cone).design))
    assert not decision.skip
    assert "count" in decision.overlap


def test_noop_edit_is_skipped():
    base = compile_source(ADVERSARIAL_BASE).design
    # Whitespace-only rewrites produce identical node keys: trivially skippable.
    respaced = ADVERSARIAL_BASE.replace("count <= count + 4'd1;", "count <= count  +  4'd1;")
    patched = compile_source(respaced).design
    impact = edit_impact(build_dfg(base), build_dfg(patched))
    assert impact.comparable and impact.changed_signals == ()
    assert cone_screen(build_dfg(base), build_dfg(patched)).skip


def test_comb_loop_candidates_are_simulated_not_skipped_or_rejected():
    source = ADVERSARIAL_BASE
    looped = source.replace("assign done = (count == LIMIT);",
                            "assign done = done | (count == LIMIT);")
    base = build_dfg(compile_source(source).design)
    patched = build_dfg(compile_source(looped).design)
    decision = cone_screen(base, patched)
    assert not decision.skip
    assert "loop" in decision.reason
    # ... and the lint tier must not reject it either: settling loops
    # simulate to genuine verdicts (see repro.analyze.cone docstring).
    assert lint_screen(base, patched) == ()


# --------------------------------------------------------------------------- #
# the lint screen
# --------------------------------------------------------------------------- #

LINT_BASE = """
module lintcase (input wire clk, input wire a, input wire b, output reg q);
    wire t;
    wire u;
    assign t = a & b;
    assign u = a | b;
    always @(posedge clk) q <= t;
    a_t: assert property (@(posedge clk) q |-> $past(t));
endmodule
"""


def test_lint_screen_rejects_newly_undriven_cone_signal():
    base_design = compile_source(LINT_BASE).design
    assert base_design is not None
    # Retarget t's driver onto u: t (inside a_t's cone) goes undriven.
    patched_source = LINT_BASE.replace("assign t = a & b;", "assign u = a & b;")
    patched_result = compile_source(patched_source)
    assert patched_result.ok, patched_result.render()  # warning-only, still compiles
    rejections = lint_screen(build_dfg(base_design), build_dfg(patched_result.design))
    assert [r.code for r in rejections] == ["undriven-used"]
    assert "'t'" in rejections[0].message

    # Out-of-cone undriven (u never feeds an assertion): no rejection.
    benign = LINT_BASE.replace("assign u = a | b;", "assign t = a | b;")
    benign_result = compile_source(benign)
    assert benign_result.ok
    assert lint_screen(build_dfg(base_design), build_dfg(benign_result.design)) == ()


def test_lint_screen_ignores_preexisting_defects():
    broken = LINT_BASE.replace("assign t = a & b;", "assign u = a & b;")
    broken_design = compile_source(broken).design
    # Base already has t undriven: its own candidates are never rejected for it.
    assert lint_screen(build_dfg(broken_design), build_dfg(broken_design)) == ()


def test_static_reject_verdict_carries_detail_and_keyspace():
    # The edit drops t's driver inside an assertion cone, so the cone tier
    # cannot skip it and the lint tier rejects it.
    verifier = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="full"))
    fix = CandidateFix(
        line_number=6, fixed_line="    assign u = a & b;",
        bug_line="    assign t = a & b;",
    )
    verdict = verifier.verify(LINT_BASE, fix, SEEDS)
    assert verdict.status == "static_reject"
    assert verdict.provenance == "static_reject"
    assert not verdict.passed
    assert "undriven" in verdict.detail

    # The unscreened keyspace is untouched: an off run still simulates.
    off = SemanticVerifier(VerifierConfig(cycles=CYCLES, static_screen="off"))
    baseline = off.verify(LINT_BASE, fix, SEEDS)
    assert baseline.provenance == "simulated"
    assert baseline.status != "static_reject"


def test_unknown_screen_modes_are_rejected():
    # Only "off" and "full" exist; anything else must not silently screen
    # under a verdict-cache keyspace of its own.
    for mode in ("cone", "lint"):
        with pytest.raises(ValueError, match="static_screen"):
            VerifierConfig(static_screen=mode)


# --------------------------------------------------------------------------- #
# stage2 screening
# --------------------------------------------------------------------------- #


def test_stage2_cone_screen_only_reroutes_verilog_bug_classification():
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.dataaug.stage1 import run_stage1
    from repro.dataaug.stage2 import Stage2Config, run_stage2

    corpus = CorpusGenerator(CorpusConfig(seed=5, design_count=6)).generate()
    samples = run_stage1(corpus).compiled[:3]

    def config(mode):
        return Stage2Config(
            seed=5, random_cycles=20, max_bugs_per_design=4, static_screen=mode
        )

    off = run_stage2(samples, config("off"))
    cone = run_stage2(samples, config("cone"))
    cone_again = run_stage2(samples, config("cone"))

    # Deterministic under re-runs.
    assert [e.name for e in cone.sva_bug] == [e.name for e in cone_again.sva_bug]
    assert [e.name for e in cone.verilog_bug] == [e.name for e in cone_again.verilog_bug]

    off_sva = {e.name for e in off.sva_bug}
    off_vb = {e.name for e in off.verilog_bug}
    cone_sva = {e.name for e in cone.sva_bug}
    cone_vb = {e.name for e in cone.verilog_bug}
    # Screening can only move entries from SVA-Bug to Verilog-Bug (a skipped
    # mutant is invisible to every assertion), never invent or drop any.
    assert cone_sva <= off_sva
    assert off_vb <= cone_vb  # indices are preserved across the reroute
    assert len(off_sva) + len(off_vb) == len(cone_sva) + len(cone_vb)
