"""The three repair-loop workloads, driven only through the public ``repro`` API.

Corpus, training and stimulus all use seed 2025, as in ``python -m
repro.eval``.  The benchmark's ``--seed`` permutes the order in which the
held-out cases reach :class:`~repro.eval.EvalHarness`, whose report is
order-invariant.  It does not pick the stimulus seeds: pass@k and the
known-answer check depend on them.  Over evaluation seeds 0-9, pass@1 of
the 16-design recipe moved between 0.25 and 0.375, and the known-answer
check failed for 3 of the 10.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import repro.runtime
from repro.dataaug.datasets import DatasetStatistics, SvaBugEntry
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.eval import (
    CandidateFix,
    EvalConfig,
    EvalHarness,
    EvalReport,
    SemanticVerifier,
    VerdictCache,
    VerificationJob,
    derive_verification_seeds,
    run_verification_jobs,
)
from repro.model.assertsolver_model import AssertSolverModel

SEED = 2025
#: Corpus size of the recipe workloads.  At 16 designs a cold run fits
#: three times into one measuring window on two cores.
RECIPE_DESIGNS = 16
LONG_CYCLES = 4000
LONG_SEEDS = 4


@dataclass
class Context:
    workers: int
    order_seed: int
    cache_dir: Optional[Path] = None
    tracer: Any = None

    def order(self, entries: list[SvaBugEntry]) -> list[SvaBugEntry]:
        shuffled = list(entries)
        random.Random(self.order_seed).shuffle(shuffled)
        return shuffled


@dataclass
class Outcome:
    report: EvalReport
    config: EvalConfig
    entries: list[SvaBugEntry]
    statistics: DatasetStatistics


def count_pipeline_jobs() -> list[int]:
    """Count the jobs corpus and data-augmentation stages hand to ``run_jobs``.

    Returns a one-element list that the wrapped bindings keep incrementing.
    """
    submitted = [0]
    original = repro.runtime.run_jobs

    def counting(jobs, *args, **kwargs):
        jobs = list(jobs)
        submitted[0] += len(jobs)
        return original(jobs, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith(("repro.corpus", "repro.dataaug")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, counting)
    return submitted


def train_sft(datasets) -> AssertSolverModel:
    model = AssertSolverModel(seed=SEED)
    model.pretrain(datasets.verilog_pt)
    model.supervised_finetune(datasets.sva_bug_train, datasets.verilog_bug)
    return model


def no_setup(ctx: Context) -> None:
    return None


def recipe(ctx: Context, state: None) -> Outcome:
    """Pipeline -> PT -> SFT -> learning from errors -> pass@k on the held-out split.

    Stage 2 and the verdict cache both live under ``ctx.cache_dir``: an
    empty directory makes the cold run, a filled one the warm re-run.
    """
    verdicts = ctx.cache_dir / "verdicts"
    pipeline = PipelineConfig.default(
        seed=SEED, design_count=RECIPE_DESIGNS, workers=ctx.workers,
        cache_dir=str(ctx.cache_dir / "stage2"),
    )
    datasets = DataAugmentationPipeline(pipeline, tracer=ctx.tracer).run()
    model = train_sft(datasets)
    model.learn_from_errors(
        datasets.sva_bug_train, verifier=SemanticVerifier(cache=VerdictCache(verdicts))
    )
    config = EvalConfig(seed=SEED, workers=ctx.workers, cache_dir=verdicts)
    report = EvalHarness(config, tracer=ctx.tracer).run(
        model, ctx.order(datasets.sva_eval_machine)
    )
    return Outcome(report, config, datasets.sva_eval_machine, datasets.statistics)


def sft_policy(ctx: Context):
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=SEED, workers=ctx.workers)).run()
    return datasets, train_sft(datasets)


def verify_long(ctx: Context, state) -> Outcome:
    """Verify an SFT policy's top-5 on long stimulus: 4000 cycles x 4 seeds."""
    datasets, model = state
    config = EvalConfig(
        seed=SEED, cycles=LONG_CYCLES, verification_seeds=LONG_SEEDS, workers=ctx.workers
    )
    report = EvalHarness(config, tracer=ctx.tracer).run(
        model, ctx.order(datasets.sva_eval_machine)
    )
    return Outcome(report, config, datasets.sva_eval_machine, datasets.statistics)


#: name -> (untimed set-up, timed part)
WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "recipe-cold": (no_setup, recipe),
    "recipe-warm": (no_setup, recipe),
    "verify-long": (sft_policy, verify_long),
}


def report_digest(report: EvalReport) -> str:
    """sha256 of the summary and every case record, as the reports would be written."""
    payload = {"summary": report.summary(), "cases": [case.to_dict() for case in report.cases]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def known_answer_mismatches(outcome: Outcome) -> list[str]:
    """Verify each held-out case's golden line and its unpatched source.

    Under the workload's own seeds and cycles the golden line must pass
    with an exercised assertion, and the buggy source must fail one.  Runs
    after timing, always on two workers.
    """
    config = outcome.config
    jobs = []
    for entry in sorted(outcome.entries, key=lambda item: item.name):
        seeds = derive_verification_seeds(
            entry.name, entry.stimulus_seed,
            count=config.verification_seeds, base_seed=config.seed,
        )
        fixes = (
            CandidateFix(entry.line_number, entry.golden_line, bug_line=entry.buggy_line),
            CandidateFix(entry.line_number, entry.buggy_line, bug_line=entry.buggy_line),
        )
        cycles = config.cycles if config.cycles is not None else entry.stimulus_cycles
        jobs.append(VerificationJob(entry.name, entry.buggy_source, fixes, seeds, cycles))
    mismatches = []
    for job, shard in zip(jobs, run_verification_jobs(jobs, workers=2)):
        golden, unpatched = shard.verdicts
        if golden.status != "pass" or not golden.exercised:
            mismatches.append(
                f"{job.case_name}: golden line gave {golden.status}"
                f" (exercised={golden.exercised})"
            )
        if unpatched.status != "assertion_fail":
            mismatches.append(f"{job.case_name}: unpatched source gave {unpatched.status}")
    return mismatches
