"""Feature extraction for bug localisation and fix ranking.

The repair policy is linear in these features; they encode exactly the kind
of evidence a verification engineer (or a code LLM) uses when reading a
failing assertion: which signals the assertion samples, which lines drive
those signals (cone of influence), how "unusual" a line looks to a language
model of Verilog, and how well a line matches the vocabulary of the
specification.

Both extractors build their matrix column by column, one named feature per
column.  The per-case facts every line or rewrite consults -- the set of code
lines and the fan-in distance map of the asserted signals -- are computed
once per case, and line identifiers and language-model scores are memoised
per line text, so the cost of a case is linear in its lines plus its
candidate rewrites.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import ne
from typing import Optional, Sequence, Union

import numpy as np

from repro.bugs.mutators import line_identifiers
from repro.hdl.source import strip_comment
from repro.model.case import RepairCase
from repro.model.ngram import NgramLanguageModel

#: names of the localisation features, in vector order.
LOCALISATION_FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "assigns_failing_signal",
    "assigns_cone_signal",
    "cone_proximity",
    "mentions_failing_signal",
    "is_assignment",
    "is_conditional",
    "is_declaration",
    "lm_surprisal",
    "spec_overlap",
    "line_length",
    "distance_to_assertion",
    "lint_density",
)

#: names of the fix-ranking features (pattern weights are handled separately).
FIX_FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "lm_gain",
    "spec_overlap_gain",
    "reuses_existing_line",
    "touches_failing_signal",
    "edit_size",
    "cone_overlap_gain",
)

_DECLARATION_PREFIXES = ("wire", "reg", "logic", "integer", "parameter", "localparam",
                         "input", "output", "inout")
_CONDITIONAL_PREFIXES = ("if", "else", "case", "casez", "casex")


@dataclass
class LocalisationFeatureExtractor:
    """Builds the feature matrix over a case's candidate lines."""

    language_model: Optional[NgramLanguageModel] = None

    def feature_names(self) -> tuple[str, ...]:
        return LOCALISATION_FEATURE_NAMES

    def extract(self, case: RepairCase, line_numbers: Sequence[int]) -> np.ndarray:
        """Return a (len(line_numbers), n_features) matrix."""
        codes = [strip_comment(case.line_text(number)).strip() for number in line_numbers]
        lowered = [code.lower() for code in codes]
        identifiers = [_identifiers(code) for code in codes]
        assigned = [set(case.assigned_by_line.get(number, ())) for number in line_numbers]
        declaration_like = [text.startswith(_DECLARATION_PREFIXES) for text in lowered]
        asserted = case.asserted_signals
        surprisal = 0.0
        language_model = _trained(self.language_model)
        if language_model is not None:
            # Typical per-token surprisal lands in [1, 8]; normalise to roughly [0, 1].
            scores = np.array([language_model.line_surprisal(code) for code in codes])
            surprisal = np.minimum(scores / 8.0, 1.5)
        diagnostics = case.analysis_diagnostics_by_line
        return _matrix(LOCALISATION_FEATURE_NAMES, len(codes), {
            "bias": 1.0,
            "assigns_failing_signal": [not names.isdisjoint(asserted) for names in assigned],
            "assigns_cone_signal": [not names.isdisjoint(case.cone_signals) for names in assigned],
            "cone_proximity": _cone_proximity(case, assigned),
            "mentions_failing_signal": [not names.isdisjoint(asserted) for names in identifiers],
            "is_assignment": [
                "=" in code and not declaration
                for code, declaration in zip(codes, declaration_like)
            ],
            "is_conditional": [text.startswith(_CONDITIONAL_PREFIXES) for text in lowered],
            "is_declaration": [
                declaration and "=" not in code
                for code, declaration in zip(codes, declaration_like)
            ],
            "lm_surprisal": surprisal,
            "spec_overlap": [_spec_fraction(names, case.spec_tokens) for names in identifiers],
            "line_length": np.minimum(np.array([len(code) for code in codes]) / 80.0, 1.5),
            "distance_to_assertion": _assertion_distance(case, line_numbers),
            # Advisory static-analysis diagnostics on the line (dead writes,
            # width truncation, inferred latches, ...): injected bugs trip
            # them far more often than golden lines do.
            "lint_density": np.minimum([diagnostics.get(n, 0) for n in line_numbers], 3) / 3.0,
        })


@dataclass
class FixFeatureExtractor:
    """Features of the candidate rewrites of one line."""

    language_model: Optional[NgramLanguageModel] = None

    def feature_names(self) -> tuple[str, ...]:
        return FIX_FEATURE_NAMES

    def extract_batch(
        self, case: RepairCase, line_number: int, candidates: Sequence[str]
    ) -> np.ndarray:
        """Return a (len(candidates), n_features) matrix for rewrites of one line.

        ``cone_overlap_gain`` measures how far a rewrite moves the line *into*
        the failing assertions' cone of influence (clock and ``disable iff``
        signals included): a fix that swaps cone
        signals for unrelated ones moves the logic away from what the
        assertion observes -- usually the wrong direction.
        ``reuses_existing_line`` flags a rewrite that replicates another line
        of the design (a common idiom).
        """
        original = strip_comment(case.line_text(line_number)).strip()
        original_identifiers = _identifiers(original)
        original_tokens = original.split()
        original_normalised = " ".join(original_tokens)
        codes = [strip_comment(candidate).strip() for candidate in candidates]
        identifiers = [_identifiers(code) for code in codes]
        tokens = [code.split() for code in codes]
        lm_gain = 0.0
        language_model = _trained(self.language_model)
        if language_model is not None:
            naturalness = np.array([language_model.line_naturalness(code) for code in codes])
            lm_gain = np.clip(naturalness - language_model.line_naturalness(original), -2.0, 2.0)
        spec_tokens = case.spec_tokens
        spec_gain = np.array([_spec_fraction(names, spec_tokens) for names in identifiers])
        spec_gain -= _spec_fraction(original_identifiers, spec_tokens)
        cone = case.failing_cone
        cone_gain = 0.0
        if cone:
            cone_gain = np.array([_cone_fraction(names, cone) for names in identifiers])
            cone_gain -= _cone_fraction(original_identifiers, cone)
        code_lines = case.code_line_texts
        normalised = [" ".join(words) for words in tokens]
        return _matrix(FIX_FEATURE_NAMES, len(codes), {
            "bias": 1.0,
            "lm_gain": lm_gain,
            "spec_overlap_gain": spec_gain,
            "reuses_existing_line": [
                text != original_normalised and text in code_lines for text in normalised
            ],
            "touches_failing_signal": [
                not names.isdisjoint(case.asserted_signals) for names in identifiers
            ],
            "edit_size": [_edit_size(original_tokens, words) for words in tokens],
            "cone_overlap_gain": cone_gain,
        })


def _matrix(names: tuple[str, ...], rows: int, columns: dict) -> np.ndarray:
    """Stack named columns -- per-row sequences or scalars -- in ``names`` order."""
    matrix = np.empty((rows, len(names)))
    for index, name in enumerate(names):
        matrix[:, index] = columns[name]
    return matrix


def _cone_proximity(case: RepairCase, assigned: list[set[str]]) -> Union[float, list[float]]:
    """1/(1+d) per line, d the fan-in distance from the signals the line
    assigns to the asserted ones (0 when it assigns an asserted signal)."""
    if case.design is None or not case.asserted_signals:
        return 0.0
    distance = case.signal_distance
    return [
        1.0 / (1.0 + min([distance.get(name, 99) for name in names])) if names else 0.0
        for names in assigned
    ]


def _assertion_distance(case: RepairCase, line_numbers: Sequence[int]) -> Union[float, list[float]]:
    """1/(1+d) per line, d the line distance to the nearest assertion-region line."""
    region = sorted(case.assertion_region_lines)
    if not region:
        return 0.0
    distances = []
    for number in line_numbers:
        # Only the region lines either side of ``number`` can be nearest.
        at = bisect_left(region, number)
        nearest = min([abs(number - line) for line in region[max(at - 1, 0):at + 1]])
        distances.append(1.0 / (1.0 + nearest))
    return distances


@lru_cache(maxsize=4096)
def _identifiers(code: str) -> frozenset[str]:
    """Signal identifiers of a code line.

    Shared across cases: the buggy variants of one design repeat almost every
    line, and so do the candidate rewrites of those lines.
    """
    return frozenset(line_identifiers(code))


def _trained(language_model: Optional[NgramLanguageModel]) -> Optional[NgramLanguageModel]:
    """The language model, or ``None`` when there is none or it saw no tokens."""
    if language_model is None or language_model.total_tokens == 0:
        return None
    return language_model


def _spec_fraction(identifiers: frozenset[str], spec_tokens: frozenset[str]) -> float:
    """Share of a line's (lower-cased) identifiers that the spec mentions."""
    if not identifiers:
        return 0.0
    lowered = {name.lower() for name in identifiers}
    return len(lowered & spec_tokens) / len(lowered)


def _cone_fraction(identifiers: frozenset[str], cone: set[str]) -> float:
    if not identifiers:
        return 0.0
    return len(identifiers & cone) / len(identifiers)


def _edit_size(original_tokens: list[str], candidate_tokens: list[str]) -> float:
    """Rough normalised edit size (smaller edits are more plausible fixes)."""
    changed = sum(map(ne, original_tokens, candidate_tokens))
    changed += abs(len(original_tokens) - len(candidate_tokens))
    return min(changed / max(len(original_tokens), 1), 1.5)
