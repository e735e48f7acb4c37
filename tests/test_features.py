"""Differential tests: the feature extractors against the per-line oracle.

The production extractors read per-case facts computed once (the set of
code lines, the fan-in distance map), memoise line identifiers per text and
score lines through the language model's memo.  The oracle below is the
straightforward per-line code they replaced: it re-reads and re-normalises
source lines for every line and every candidate rewrite, walks the
dependency graph per line, and scores n-grams with ``sum(context.values())``
on every lookup.  Feature matrices, trained weights and ranked candidates
must be byte-identical between the two.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

import numpy as np
import pytest

import repro.model.policy as policy_module
from repro.bugs.mutators import line_identifiers
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.hdl.source import lines_equivalent, strip_comment
from repro.model.assertsolver_model import AssertSolverModel
from repro.model.case import RepairCase
from repro.model.features import (
    FIX_FEATURE_NAMES,
    LOCALISATION_FEATURE_NAMES,
    FixFeatureExtractor,
    LocalisationFeatureExtractor,
)
from repro.model.fixes import FixCandidate, generate_fix_candidates
from repro.model.ngram import NgramLanguageModel
from repro.model.policy import PolicyWeights, RepairPolicy
from repro.model.sft import _case_from_verilog_bug
from repro.model.tokenizer import BOS_TOKEN, EOS_TOKEN, tokenize_line

_DECLARATION_PREFIXES = ("wire", "reg", "logic", "integer", "parameter", "localparam",
                         "input", "output", "inout")


# --------------------------------------------------------------------------- #
# oracle
# --------------------------------------------------------------------------- #


def _oracle_surprisal(model: NgramLanguageModel, line: str) -> float:
    """Per-token surprisal with every context total summed on each lookup."""
    vocabulary = max(1, len(model.unigrams))

    def unigram(token):
        return (model.unigrams.get(token, 0) + model.alpha) / (
            model.total_tokens + model.alpha * vocabulary
        )

    def bigram(previous, token):
        context = model.bigrams.get(previous)
        if not context:
            return unigram(token)
        total = sum(context.values())
        return (context.get(token, 0) + model.alpha) / (total + model.alpha * vocabulary)

    def trigram(previous2, token):
        context = model.trigrams.get(previous2)
        if not context:
            return bigram(previous2[1], token)
        total = sum(context.values())
        return (context.get(token, 0) + model.alpha) / (total + model.alpha * vocabulary)

    tokens = tokenize_line(line)[1:-1]
    if not tokens:
        return 0.0
    padded = [BOS_TOKEN, BOS_TOKEN, *tokens, EOS_TOKEN]
    lambda1, lambda2, lambda3 = model.interpolation
    log_probability = 0.0
    for index in range(2, len(padded)):
        previous2, token = (padded[index - 2], padded[index - 1]), padded[index]
        probability = (
            lambda1 * unigram(token)
            + lambda2 * bigram(previous2[1], token)
            + lambda3 * trigram(previous2, token)
        )
        log_probability += math.log(max(probability, 1e-12))
    return -log_probability / (len(tokens) + 1)


class _OracleScorer:
    """Oracle line scores, computed once per line text (a test-side cache only)."""

    def __init__(self, language_model: Optional[NgramLanguageModel]):
        trained = language_model is not None and language_model.total_tokens > 0
        self.language_model = language_model if trained else None
        self._scores: dict[str, float] = {}

    def surprisal(self, line: str) -> float:
        if line not in self._scores:
            self._scores[line] = _oracle_surprisal(self.language_model, line)
        return self._scores[line]


class OracleLocalisationExtractor:
    def __init__(self, language_model: Optional[NgramLanguageModel] = None):
        self._scorer = _OracleScorer(language_model)

    def extract(self, case: RepairCase, line_numbers: Sequence[int]) -> np.ndarray:
        rows = [self._line_features(case, number) for number in line_numbers]
        if not rows:
            return np.zeros((0, len(LOCALISATION_FEATURE_NAMES)))
        return np.vstack(rows)

    def _line_features(self, case: RepairCase, number: int) -> np.ndarray:
        line = case.line_text(number)
        code = strip_comment(line).strip()
        lowered = code.lower()
        identifiers = set(line_identifiers(code))
        assigned = set(case.assigned_by_line.get(number, []))
        asserted = case.asserted_signals
        cone = case.cone_signals

        assigns_failing = bool(assigned & asserted)
        assigns_cone = bool(assigned & cone)
        proximity = self._cone_proximity(case, assigned)
        mentions_failing = bool(identifiers & asserted)
        is_assignment = ("=" in code) and not lowered.startswith(_DECLARATION_PREFIXES)
        is_conditional = lowered.startswith(("if", "else", "case", "casez", "casex"))
        is_declaration = lowered.startswith(_DECLARATION_PREFIXES) and "=" not in code
        surprisal = self._normalised_surprisal(code)
        spec_overlap = self._spec_overlap(case, identifiers)
        line_length = min(len(code) / 80.0, 1.5)
        distance = self._distance_to_assertion(case, number)
        lint_density = min(case.analysis_diagnostics_by_line.get(number, 0), 3) / 3.0

        return np.array(
            [
                1.0,
                float(assigns_failing),
                float(assigns_cone),
                proximity,
                float(mentions_failing),
                float(is_assignment),
                float(is_conditional),
                float(is_declaration),
                surprisal,
                spec_overlap,
                line_length,
                distance,
                lint_density,
            ]
        )

    def _cone_proximity(self, case: RepairCase, assigned: set[str]) -> float:
        if not assigned or case.design is None or not case.asserted_signals:
            return 0.0
        graph = case.design.dependency_graph
        distance = {name: 0 for name in case.asserted_signals if name in graph}
        frontier = list(distance)
        while frontier:
            next_frontier = []
            for name in frontier:
                for dep in graph.get(name, ()):
                    if dep not in distance:
                        distance[dep] = distance[name] + 1
                        next_frontier.append(dep)
            frontier = next_frontier
        best = min((distance.get(name, 99) for name in assigned), default=99)
        return 1.0 / (1.0 + best)

    def _normalised_surprisal(self, code: str) -> float:
        if self._scorer.language_model is None:
            return 0.0
        return min(self._scorer.surprisal(code) / 8.0, 1.5)

    def _spec_overlap(self, case: RepairCase, identifiers: set[str]) -> float:
        if not identifiers:
            return 0.0
        lowered = {name.lower() for name in identifiers}
        overlap = lowered & case.spec_tokens
        return len(overlap) / len(lowered)

    def _distance_to_assertion(self, case: RepairCase, number: int) -> float:
        region = case.assertion_region_lines
        if not region:
            return 0.0
        nearest = min(abs(number - line) for line in region)
        return 1.0 / (1.0 + nearest)


class OracleFixExtractor:
    def __init__(self, language_model: Optional[NgramLanguageModel] = None):
        self._scorer = _OracleScorer(language_model)

    def extract_batch(
        self, case: RepairCase, line_number: int, candidates: Sequence[str]
    ) -> np.ndarray:
        original_line = case.line_text(line_number)
        rows = [self.extract(case, original_line, candidate) for candidate in candidates]
        if not rows:
            return np.zeros((0, len(FIX_FEATURE_NAMES)))
        return np.vstack(rows)

    def extract(self, case: RepairCase, original_line: str, candidate_line: str) -> np.ndarray:
        original_code = strip_comment(original_line).strip()
        candidate_code = strip_comment(candidate_line).strip()
        lm_gain = self._lm_gain(original_code, candidate_code)
        spec_gain = self._spec_overlap(case, candidate_code) - self._spec_overlap(case, original_code)
        reuses = float(self._reuses_existing_line(case, candidate_code, original_code))
        touches_failing = float(
            bool(set(line_identifiers(candidate_code)) & case.asserted_signals)
        )
        edit_size = self._edit_size(original_code, candidate_code)
        cone_gain = self._cone_overlap_gain(case, original_code, candidate_code)
        return np.array(
            [1.0, lm_gain, spec_gain, reuses, touches_failing, edit_size, cone_gain]
        )

    def _lm_gain(self, original: str, candidate: str) -> float:
        if self._scorer.language_model is None:
            return 0.0
        gain = -self._scorer.surprisal(candidate) - -self._scorer.surprisal(original)
        return float(np.clip(gain, -2.0, 2.0))

    def _spec_overlap(self, case: RepairCase, code: str) -> float:
        identifiers = {name.lower() for name in line_identifiers(code)}
        if not identifiers:
            return 0.0
        return len(identifiers & case.spec_tokens) / len(identifiers)

    @staticmethod
    def _cone_fraction(cone: set[str], code: str) -> float:
        identifiers = set(line_identifiers(code))
        if not identifiers:
            return 0.0
        return len(identifiers & cone) / len(identifiers)

    def _cone_overlap_gain(self, case: RepairCase, original: str, candidate: str) -> float:
        cone = case.failing_cone
        if not cone:
            return 0.0
        return self._cone_fraction(cone, candidate) - self._cone_fraction(cone, original)

    def _reuses_existing_line(self, case: RepairCase, candidate: str, original: str) -> bool:
        normalised = " ".join(candidate.split())
        if not normalised or normalised == " ".join(original.split()):
            return False
        for number in case.code_line_numbers:
            other = " ".join(strip_comment(case.line_text(number)).strip().split())
            if other == normalised:
                return True
        return False

    @staticmethod
    def _edit_size(original: str, candidate: str) -> float:
        original_tokens = original.split()
        candidate_tokens = candidate.split()
        changed = sum(1 for a, b in zip(original_tokens, candidate_tokens) if a != b)
        changed += abs(len(original_tokens) - len(candidate_tokens))
        return min(changed / max(len(original_tokens), 1), 1.5)


def _oracle_candidate_index(policy: RepairPolicy, case, line_number, fixed_line):
    candidates, _, _ = policy.fix_options(case, line_number)
    for index, candidate in enumerate(candidates):
        if lines_equivalent(candidate.fixed_line, fixed_line):
            return index
    return None


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def datasets():
    return DataAugmentationPipeline(PipelineConfig.small()).run()


@pytest.fixture(scope="module")
def language_model(datasets):
    model = AssertSolverModel(seed=2025)
    model.pretrain(datasets.verilog_pt)
    return model.knowledge.language_model


def _cases(datasets) -> list[RepairCase]:
    return (
        [RepairCase.from_entry(entry) for entry in datasets.sva_bug_train]
        + [RepairCase.from_entry(entry) for entry in datasets.sva_eval_machine]
        + [_case_from_verilog_bug(entry) for entry in datasets.verilog_bug]
    )


# --------------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("with_lm", [False, True], ids=["no_lm", "pretrained_lm"])
def test_feature_matrices_match_the_per_line_oracle(datasets, language_model, with_lm):
    lm = language_model if with_lm else None
    localisation, oracle_localisation = (
        LocalisationFeatureExtractor(lm), OracleLocalisationExtractor(lm)
    )
    fix, oracle_fix = FixFeatureExtractor(lm), OracleFixExtractor(lm)
    cases = _cases(datasets)
    assert len(cases) == (
        len(datasets.sva_bug_train) + len(datasets.sva_eval_machine) + len(datasets.verilog_bug)
    )
    rows = 0
    reused = 0
    lm_gains = 0
    for case in cases:
        # Fresh cases for the oracle, so no cached per-case state is shared.
        oracle_case = RepairCase(
            name=case.name, spec=case.spec, buggy_source=case.buggy_source, logs=case.logs
        )
        lines = case.candidate_lines()
        assert lines == oracle_case.candidate_lines()
        produced = localisation.extract(case, lines)
        expected = oracle_localisation.extract(oracle_case, lines)
        assert produced.shape == expected.shape == (len(lines), len(LOCALISATION_FEATURE_NAMES))
        assert produced.tobytes() == expected.tobytes(), case.name
        for number in lines:
            rewrites = [c.fixed_line for c in generate_fix_candidates(case, number)]
            produced = fix.extract_batch(case, number, rewrites)
            expected = oracle_fix.extract_batch(oracle_case, number, rewrites)
            assert produced.shape == expected.shape == (len(rewrites), len(FIX_FEATURE_NAMES))
            assert produced.tobytes() == expected.tobytes(), (case.name, number)
            rows += len(rewrites)
            reused += int(produced[:, FIX_FEATURE_NAMES.index("reuses_existing_line")].sum())
            lm_gains += int(np.count_nonzero(produced[:, FIX_FEATURE_NAMES.index("lm_gain")]))
    # The sweep is not vacuous: thousands of rewrites, some reusing a line,
    # and the language-model column is live exactly when there is a model.
    assert rows > 1000 and reused > 0
    assert (lm_gains > 0) == with_lm


def test_fix_index_matches_first_equivalent_candidate(datasets):
    """The policy's normalised-key lookup returns the first equivalent rewrite."""
    policy = RepairPolicy()
    probes = 0
    for case in _cases(datasets)[:12]:
        for number in case.candidate_lines():
            candidates, _, _ = policy.fix_options(case, number)
            texts = [c.fixed_line for c in candidates] + [
                "  " + candidates[0].fixed_line.replace(" ", "  ") + "  // comment",
                "assign nothing_like_this = 1'b0;",
            ]
            for text in texts:
                assert policy.fix_index(case, number, text) == _oracle_candidate_index(
                    policy, case, number, text
                )
                probes += 1
    assert probes > 100


_HANDWRITTEN = """\
module demo (
    input wire clk,
    input wire rst_n,
    input wire [3:0] a,
    output reg [3:0] q,
    output reg [3:0] r
);
    always @(posedge clk) begin
        q <= a;  // capture the input
        r <= q + 4'd1;
    end
    property p_r;
        @(posedge clk) disable iff (!rst_n) 1'b1 |=> r == $past(q) + 4'd1;
    endproperty
    a_r: assert property (p_r);
endmodule
"""


def _handwritten_case() -> RepairCase:
    return RepairCase(
        name="demo_case", spec="r counts one past the captured input q",
        buggy_source=_HANDWRITTEN, logs="failed assertion demo.a_r at cycle 3\n",
    )


def test_rewrite_reusing_a_commented_line_is_recognised():
    """A rewrite equal to another line's code (comment dropped) reuses it."""
    case = _handwritten_case()
    line = 10
    assert case.line_text(line).strip() == "r <= q + 4'd1;"
    rewrites = ["q <= a;", "q  <=  a;  // other comment", "r <= q + 4'd1;", "r <= q - 4'd1;", ""]
    produced = FixFeatureExtractor().extract_batch(case, line, rewrites)
    expected = OracleFixExtractor().extract_batch(
        _handwritten_case(), line, rewrites
    )
    assert produced.tobytes() == expected.tobytes()
    reuses = produced[:, FIX_FEATURE_NAMES.index("reuses_existing_line")]
    assert reuses.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


def test_fix_index_prefers_the_first_of_equivalent_candidates(monkeypatch):
    """Rewrites that differ only in spacing share a key; the first one wins."""
    case = _handwritten_case()
    original = case.line_text(10)
    spaced = [
        FixCandidate(10, original, "    r <= q - 4'd1;", "op_plus_to_minus", "spaced"),
        FixCandidate(10, original, "    r<=q-4'd1;", "op_plus_to_minus", "tight"),
        FixCandidate(10, original, original, "keep_line", "keep"),
        FixCandidate(10, original, "    r <= q + 4'd1 ;", "keep_line", "keep again"),
    ]
    monkeypatch.setattr(policy_module, "generate_fix_candidates", lambda case, number: spaced)
    policy = RepairPolicy()
    for text in ("r<=q-4'd1;", "r <= q - 4'd1;", "r <= q + 4'd1;", "r <= q;"):
        assert policy.fix_index(case, 10, text) == _oracle_candidate_index(policy, case, 10, text)
    assert policy.fix_index(case, 10, "r<=q-4'd1;") == 0
    assert policy.fix_index(case, 10, "r <= q + 4'd1;") == 2
    assert policy.fix_index(case, 10, "r <= q;") is None


def _train(datasets) -> tuple[AssertSolverModel, PolicyWeights]:
    """PT -> SFT -> mining + DPO; returns the model and its SFT weights."""
    model = AssertSolverModel(seed=2025)
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(datasets.sva_bug_train, datasets.verilog_bug)
    sft = model.policy.weights.copy()
    model.learn_from_errors(datasets.sva_bug_train)
    return model, sft


def _weight_bytes(weights: PolicyWeights) -> list[bytes]:
    return [weights.localisation.tobytes(), weights.fix_features.tobytes(),
            weights.fix_patterns.tobytes()]


def test_training_and_ranking_match_the_oracle(datasets, monkeypatch):
    produced, produced_sft = _train(datasets)
    # Every policy built from here on (the trained one and DPO's frozen
    # reference) extracts features with the oracle.
    monkeypatch.setattr(policy_module, "LocalisationFeatureExtractor", OracleLocalisationExtractor)
    monkeypatch.setattr(policy_module, "FixFeatureExtractor", OracleFixExtractor)
    expected, expected_sft = _train(datasets)
    assert isinstance(expected.policy._fix_extractor, OracleFixExtractor)
    assert expected.history.dpo.pairs > 0
    assert _weight_bytes(produced_sft) == _weight_bytes(expected_sft)
    assert _weight_bytes(produced.policy.weights) == _weight_bytes(expected.policy.weights)
    for entry in datasets.sva_eval_machine:
        left = produced.policy.top_candidates(RepairCase.from_entry(entry), k=5)
        right = expected.policy.top_candidates(RepairCase.from_entry(entry), k=5)
        assert left
        assert [(n, c, p.hex()) for n, c, p in left] == [(n, c, p.hex()) for n, c, p in right]


# --------------------------------------------------------------------------- #
# n-gram memo and totals
# --------------------------------------------------------------------------- #

_TEXTS = [
    "assign sum = a + b;",
    "always_ff @(posedge clk) if (!rst_n) count <= 4'd0; else count <= count + 1;",
    "assign ready = valid && !busy;",
    "assign sum = a - b;",
]
_PROBES = ["assign sum = a + b;", "count <= count + 1;", "assign ready = !valid;", ""]


def _fresh(texts) -> NgramLanguageModel:
    model = NgramLanguageModel()
    model.fit_corpus(texts)
    return model


def test_surprisal_memo_is_cleared_by_every_fit():
    model = _fresh(_TEXTS[:2])
    before = [model.line_surprisal(line) for line in _PROBES]
    assert before == [_fresh(_TEXTS[:2]).line_surprisal(line) for line in _PROBES]
    assert before[0] == model.line_surprisal(_PROBES[0])  # served from the memo
    model.fit_text(_TEXTS[2])
    after = [model.line_surprisal(line) for line in _PROBES]
    assert after == [_fresh(_TEXTS[:3]).line_surprisal(line) for line in _PROBES]
    assert after != before
    model.fit_sequence(["assign", "sum", "=", "a", "-", "b", ";"])
    refit = _fresh(_TEXTS[:3])
    refit.fit_sequence(["assign", "sum", "=", "a", "-", "b", ";"])
    assert [model.line_surprisal(line) for line in _PROBES] == [
        refit.line_surprisal(line) for line in _PROBES
    ]
    assert [model.line_surprisal(line) for line in _PROBES] == [
        _oracle_surprisal(model, line) for line in _PROBES
    ]


def test_context_totals_track_context_counts_after_arbitrary_fits():
    rng = random.Random(7)
    vocabulary = ["a", "b", "c", "<=", "=", ";", "(", ")", "if"]
    model = NgramLanguageModel()
    for _ in range(40):
        if rng.random() < 0.5:
            model.fit_sequence([rng.choice(vocabulary) for _ in range(rng.randrange(0, 9))])
        else:
            model.fit_text(rng.choice(_TEXTS))
        model.line_surprisal(rng.choice(_PROBES))
    assert set(model.bigram_totals) == set(model.bigrams)
    assert set(model.trigram_totals) == set(model.trigrams)
    for context, counts in model.bigrams.items():
        assert model.bigram_totals[context] == sum(counts.values())
    for context, counts in model.trigrams.items():
        assert model.trigram_totals[context] == sum(counts.values())
    for line in _PROBES:
        assert model.line_surprisal(line) == _oracle_surprisal(model, line)
