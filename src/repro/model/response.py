"""Repair responses and the engine interface shared by all models.

Every model in the comparison (AssertSolver, its SFT-only ablation, the base
model, and the proxy engines standing in for the closed/open-source LLMs)
implements :class:`RepairEngine`: given a :class:`~repro.model.case.RepairCase`
it returns ``n`` :class:`RepairResponse` objects, the JSON-shaped output of
Fig. 2 (III).
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass, field

from repro.hdl.source import normalize_line
from repro.model.case import RepairCase


def candidate_key(line_number: int, fixed_line: str) -> str:
    """Canonical identity of one candidate repair (line + normalised rewrite).

    Shared by every dedup site (top-k ranking, exact enumeration,
    challenging-case mining) so `y<=a|b;` and `y <= a | b;` always count as
    the same candidate.
    """
    return f"{line_number}::{normalize_line(fixed_line)}"


@dataclass
class RepairResponse:
    """One proposed repair: the JSON object the paper requires models to emit."""

    bug_line: str
    fixed_line: str
    line_number: int
    explanation: str = ""
    confidence: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialise to the JSON format requested at inference time."""
        return json.dumps(
            {
                "bug_line": self.bug_line.strip(),
                "fixed_line": self.fixed_line.strip(),
                "line_number": self.line_number,
                "explanation": self.explanation,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "RepairResponse":
        """Parse a JSON response (raises ``ValueError`` on malformed input)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON response: {exc}") from exc
        required = ("bug_line", "fixed_line", "line_number")
        missing = [key for key in required if key not in payload]
        if missing:
            raise ValueError(f"JSON response missing fields: {', '.join(missing)}")
        return cls(
            bug_line=str(payload["bug_line"]),
            fixed_line=str(payload["fixed_line"]),
            line_number=int(payload["line_number"]),
            explanation=str(payload.get("explanation", "")),
        )

    @property
    def is_noop(self) -> bool:
        """True when the proposed fix does not change the line at all."""
        return self.bug_line.strip() == self.fixed_line.strip()


class RepairEngine(abc.ABC):
    """Interface implemented by every repair model in the evaluation."""

    #: display name used in tables (e.g. "AssertSolver", "o1-preview (proxy)").
    name: str = "engine"

    @abc.abstractmethod
    def propose(
        self, case: RepairCase, samples: int = 20, temperature: float = 0.2, seed: int = 0
    ) -> list[RepairResponse]:
        """Produce ``samples`` candidate repairs for one case."""

    def propose_one(self, case: RepairCase, seed: int = 0) -> RepairResponse:
        """Convenience: a single (greedy-ish) response."""
        responses = self.propose(case, samples=1, temperature=0.05, seed=seed)
        return responses[0]

    def propose_topk(
        self,
        case: RepairCase,
        k: int = 5,
        samples: int = 20,
        temperature: float = 0.2,
        seed: int = 0,
    ) -> list[RepairResponse]:
        """Up to ``k`` *distinct* candidate repairs, best first.

        The default implementation draws ``samples`` responses, merges the
        duplicates (same line, equivalent rewrite) and ranks the survivors by
        how often they were sampled, then by confidence -- the empirical
        ranking used for pass@k when an engine has no exact candidate
        enumeration.  Engines with tractable candidate spaces should override
        this with an exact top-k.
        """
        budget = max(samples, 2 * k)
        responses = self.propose(case, samples=budget, temperature=temperature, seed=seed)
        merged: dict[str, tuple[int, float, int, RepairResponse]] = {}
        for index, response in enumerate(responses):
            key = candidate_key(response.line_number, response.fixed_line)
            count, best_confidence, first_index, first = merged.get(
                key, (0, response.confidence, index, response)
            )
            merged[key] = (
                count + 1,
                max(best_confidence, response.confidence),
                first_index,
                first,
            )
        ranked = sorted(
            merged.values(), key=lambda item: (-item[0], -item[1], item[2])
        )
        return [item[3] for item in ranked[:k]]
