"""One execution policy for every stage of the data-augmentation pipeline.

A :class:`RunPolicy` says *how* a stage runs its jobs -- pool size,
failure handling, per-job timeout, retry budget, injected faults -- and
never *what* they compute.  ``PipelineConfig.run`` holds one, and corpus
generation and Stages 1-3 each take it as a single argument, so one policy
reaches every fan-out with no per-stage copies to keep in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.runtime.executor import check_failure_options
from repro.runtime.faults import FaultPlan


@dataclass(frozen=True)
class RunPolicy:
    """How a stage executes its jobs through :func:`repro.runtime.run_jobs`.

    Attributes:
        workers: pool size; ``<= 1`` runs in-process.
        on_error: ``"raise"`` aborts on the first failed job;
            ``"quarantine"`` skips it and reports a skip record.
        job_timeout: per-job wall-clock budget in seconds (None: unlimited).
        max_attempts: executions charged to a job before it is raised or
            quarantined.
        fault_plan: deterministic fault injection (tests only).

    Only ``job_timeout`` and ``max_attempts`` can change a cached result (a
    cached-through failure is valid only for the budget that produced it),
    which is why the Stage-2 result key covers those two and nothing else.
    """

    workers: int = 1
    on_error: str = "raise"
    job_timeout: Optional[float] = None
    max_attempts: int = 1
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        check_failure_options(self.on_error, self.job_timeout, self.max_attempts)

    def job_options(self) -> dict:
        """The :func:`~repro.runtime.run_jobs` keyword arguments of this policy."""
        return {
            "workers": self.workers,
            "on_error": self.on_error,
            "timeout": self.job_timeout,
            "max_attempts": self.max_attempts,
            "fault_plan": self.fault_plan,
        }

    def unwrap(
        self, results: list, stage: str, names: Iterable[str]
    ) -> tuple[list[Any], list[dict]]:
        """Positional results and skip records of one ``run_jobs`` call.

        Under ``on_error="raise"`` the results are returned as they are.
        Under ``"quarantine"`` each :class:`~repro.runtime.faults.JobOutcome`
        becomes its result, or ``None`` for a failed job, which also gets a
        ``{"stage", "name", **failure.summary()}`` skip record (``names``
        gives one name per job, in job order).
        """
        if self.on_error != "quarantine":
            return results, []
        skipped = [
            {"stage": stage, "name": name, **outcome.failure.summary()}
            for name, outcome in zip(names, results)
            if not outcome.ok
        ]
        return [outcome.result if outcome.ok else None for outcome in results], skipped
