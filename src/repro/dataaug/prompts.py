"""Question/answer text formatting for the training datasets (Fig. 2 datasets b/c).

The paper stores SVA-Bug entries as question/answer pairs:

    Question: There is a <Buggy SV> and will trigger assertions, <Logs>.
              The specification is <Spec>, please give me a solution
              ("step by step" when a validated CoT is available).
    Answer:   the buggy line, the corrected code, and optionally the CoT.

The repair model and the baselines consume the structured
:class:`~repro.dataaug.datasets.SvaBugEntry` directly, but the textual form
is what an LLM fine-tuning run would see, so it is produced faithfully here
(and exercised by the examples and tests).
"""

from __future__ import annotations

from repro.dataaug.datasets import SvaBugEntry


def format_question(entry: SvaBugEntry, step_by_step: bool = False) -> str:
    """The 'Question' text of one SVA-Bug entry."""
    suffix = " (step by step)" if step_by_step else ""
    return (
        "There is a buggy SystemVerilog design that will trigger assertions when simulated.\n"
        f"Buggy SystemVerilog:\n{entry.buggy_source}\n"
        f"Logs:\n{entry.logs}\n"
        f"The specification is:\n{entry.spec}\n"
        f"Please give me a solution{suffix}."
    )


def format_answer(entry: SvaBugEntry, include_cot: bool = True) -> str:
    """The 'Answer' text of one SVA-Bug entry."""
    lines = [
        f"Buggy line {entry.line_number}: {entry.buggy_line.strip()}",
        f"Corrected code: {entry.golden_line.strip()}",
    ]
    if include_cot and entry.cot_valid and entry.cot:
        lines.append("Reasoning:")
        lines.append(entry.cot)
    return "\n".join(lines)
