"""Stage 2: key-component generation and validation.

For every sample that survived Stage 1:

1. candidate SVAs are collected from the design family's template assertions
   and from the assertion miner (the reproduction of Claude-3.5's SVA
   generation),
2. the candidates are inserted into the golden source, compiled and checked
   on a simulation trace; candidates that fail (or do not compile) are
   discarded -- the first half of the paper's two-step validation,
3. single-line bugs are injected with the mutation engine; mutants that do
   not compile are discarded -- the second half of the validation,
4. every surviving mutant is simulated against the validated SVAs.  Mutants
   that trigger at least one assertion failure become SVA-Bug entries (with
   the captured failure log); mutants that keep all assertions happy become
   Verilog-Bug entries.  With ``Stage2Config.static_screen = "cone"``,
   mutants whose edit is provably outside every assertion's cone of
   influence are classified as Verilog-Bug entries directly -- no assertion
   can observe such an edit -- without paying for the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bugs.injector import BugInjector, InjectionConfig
from repro.bugs.taxonomy import classify_direct
from repro.corpus.generator import CorpusSample
from repro.dataaug.datasets import SvaBugEntry, VerilogBugEntry
from repro.hdl.elaborate import ElaboratedDesign
from repro.hdl.lint import compile_source
from repro.runtime import ResultCache, RunPolicy, content_key, derive_seed, run_jobs
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stimulus import StimulusGenerator
from repro.sva.checker import check_assertions
from repro.sva.generator import (
    MinedAssertion,
    insert_assertions,
    mine_assertions,
    template_assertion_blocks,
)
from repro.sva.logs import format_failure_log

#: Bumped whenever per-sample Stage-2 semantics change: keys old cached
#: results out of any ``Stage2Config.cache_dir`` directory.
STAGE2_RESULT_VERSION = "stage2_result/v1"


@dataclass
class Stage2Config:
    """Knobs for SVA validation and bug injection."""

    seed: int = 11
    random_cycles: int = 48
    max_mined_assertions: int = 5
    max_bugs_per_design: int = 6
    injection: InjectionConfig = field(default_factory=InjectionConfig)
    #: Optional content-addressed result cache directory: per-sample results
    #: are persisted so re-runs only process samples whose inputs changed.
    cache_dir: Optional[str] = None
    #: Static screening of injected mutants: "off" simulates every compiling
    #: mutant (the historical path); "cone" classifies mutants whose edit is
    #: provably outside every validated assertion's cone of influence as
    #: Verilog-Bug entries *without simulating* -- no assertion can observe
    #: such an edit, so it can never become an SVA-Bug entry.  Changes which
    #: pipeline path produces each entry, so it is part of
    #: :meth:`content_fingerprint`.
    static_screen: str = "off"

    def __post_init__(self) -> None:
        if self.static_screen not in ("off", "cone"):
            raise ValueError(
                f"unknown static_screen '{self.static_screen}' (expected 'off' or 'cone')"
            )

    def content_fingerprint(self, policy: RunPolicy) -> str:
        """Every config and policy field that can change a per-sample result.

        Worker count and cache location deliberately excluded -- they can
        only change wall time, never output.  The policy's ``job_timeout``
        and ``max_attempts`` are *included*: a cached-through failure record
        is only valid for the fault-tolerance budget it was produced under
        (``on_error`` itself only changes aggregation, never a per-sample
        result, so it stays out).
        """
        return "|".join(
            str(part)
            for part in (
                self.seed,
                self.random_cycles,
                self.max_mined_assertions,
                self.max_bugs_per_design,
                self.injection.seed,
                self.injection.max_bugs_per_design,
                self.injection.max_candidates_per_line,
                self.injection.require_compile,
                # Was the checker-backend name; kept so existing cache keys still hit.
                "auto",
                policy.job_timeout,
                policy.max_attempts,
                self.static_screen,
            )
        )


@dataclass
class Stage2Result:
    """Validated entries plus per-stage counters."""

    sva_bug: list[SvaBugEntry] = field(default_factory=list)
    verilog_bug: list[VerilogBugEntry] = field(default_factory=list)
    candidate_svas: int = 0
    validated_svas: int = 0
    injected_bugs: int = 0
    rejected_not_compiling: int = 0
    designs_without_valid_svas: int = 0
    #: Samples whose job was quarantined (``on_error="quarantine"``): one
    #: record per skipped sample with the structured failure summary.
    skipped: list[dict] = field(default_factory=list)

    def merge(self, other: "Stage2Result") -> None:
        """Fold another (e.g. per-sample) result into this one, in order."""
        self.sva_bug.extend(other.sva_bug)
        self.verilog_bug.extend(other.verilog_bug)
        self.candidate_svas += other.candidate_svas
        self.validated_svas += other.validated_svas
        self.injected_bugs += other.injected_bugs
        self.rejected_not_compiling += other.rejected_not_compiling
        self.designs_without_valid_svas += other.designs_without_valid_svas
        self.skipped.extend(other.skipped)

    def to_dict(self) -> dict:
        """JSON-safe form, used by the runtime's per-sample result cache."""
        return {
            "sva_bug": [entry.to_dict() for entry in self.sva_bug],
            "verilog_bug": [entry.to_dict() for entry in self.verilog_bug],
            "candidate_svas": self.candidate_svas,
            "validated_svas": self.validated_svas,
            "injected_bugs": self.injected_bugs,
            "rejected_not_compiling": self.rejected_not_compiling,
            "designs_without_valid_svas": self.designs_without_valid_svas,
            "skipped": list(self.skipped),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Stage2Result":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sva_bug=[SvaBugEntry.from_dict(entry) for entry in payload["sva_bug"]],
            verilog_bug=[VerilogBugEntry.from_dict(entry) for entry in payload["verilog_bug"]],
            candidate_svas=payload["candidate_svas"],
            validated_svas=payload["validated_svas"],
            injected_bugs=payload["injected_bugs"],
            rejected_not_compiling=payload["rejected_not_compiling"],
            designs_without_valid_svas=payload["designs_without_valid_svas"],
            skipped=list(payload.get("skipped", [])),
        )


def _simulate(design: ElaboratedDesign, seed: int, cycles: int, compiled=None):
    simulator = Simulator(design, compiled=compiled)
    stimulus = StimulusGenerator(design, seed=seed).mixed_stimulus(random_cycles=cycles)
    trace = simulator.run(stimulus.vectors)
    return trace


class Stage2Runner:
    """Runs Stage 2 for a batch of compiled corpus samples.

    Samples are independent, so ``run`` fans them out through the shared
    :func:`repro.runtime.run_jobs` executor when ``policy.workers > 1``.
    Mutation seeding is derived per sample (from the config seed and the
    sample name), which makes the output identical whether the batch runs
    serially or in parallel, and independent of sample order.
    """

    def __init__(self, config: Optional[Stage2Config] = None, policy: RunPolicy = RunPolicy()):
        self._config = config or Stage2Config()
        self._policy = policy

    def _sample_injector(self, sample: CorpusSample) -> BugInjector:
        """A fresh, deterministically seeded injector for one sample."""
        injection = replace(
            self._config.injection,
            seed=derive_seed(self._config.injection.seed, sample.name),
            max_bugs_per_design=self._config.max_bugs_per_design,
        )
        return BugInjector(injection)

    # ------------------------------------------------------------------ #
    # SVA generation + validation
    # ------------------------------------------------------------------ #

    def validated_assertions(
        self, sample: CorpusSample, result: Stage2Result
    ) -> tuple[Optional[str], Optional[ElaboratedDesign]]:
        """Insert candidate SVAs into the golden source and keep the valid ones.

        Returns the augmented golden source (with only valid SVAs) and its
        elaborated design, or ``(None, None)`` when nothing useful remains.
        Candidates are validated against an *independent* stimulus
        (``seed + 1``), not the trace they were mined from -- a mined
        invariant trivially holds on its own mining trace, so validating
        there would be vacuous.
        """
        from repro.artifacts import default_store

        store = default_store()
        golden_compile = compile_source(sample.source)
        if not golden_compile.ok or golden_compile.design is None:
            return None, None
        # The golden design's lowering is the relowering base for everything
        # downstream: the augmented design adds only assertions (identical
        # sim nodes, so it reuses 100% of them) and every mutant is a
        # one-line variant of the augmented design.
        golden_compiled = store.compiled_design(golden_compile.design)
        try:
            golden_trace = _simulate(
                golden_compile.design, self._config.seed, self._config.random_cycles,
                compiled=golden_compiled,
            )
        except SimulationError:
            return None, None

        candidates = template_assertion_blocks(
            sample.artifact.template_svas, sample.artifact.family
        )
        candidates.extend(
            mine_assertions(
                golden_compile.design,
                golden_trace,
                max_assertions=self._config.max_mined_assertions,
            )
        )
        result.candidate_svas += len(candidates)
        if not candidates:
            result.designs_without_valid_svas += 1
            return None, None

        augmented = insert_assertions(sample.source, candidates)
        augmented_compile = compile_source(augmented)
        if not augmented_compile.ok or augmented_compile.design is None:
            result.designs_without_valid_svas += 1
            return None, None
        # The assertions do not change the signal set, so the validation
        # trace can be produced from the golden design (compiled once above
        # would even suffice structurally) -- but it must use a different
        # stimulus seed than the mining trace to actually test anything.
        augmented_compiled = store.compiled_design(
            augmented_compile.design, base=golden_compiled
        )
        try:
            validation_trace = _simulate(
                augmented_compile.design, self._config.seed + 1, self._config.random_cycles,
                compiled=augmented_compiled,
            )
        except SimulationError:
            result.designs_without_valid_svas += 1
            return None, None
        report = check_assertions(augmented_compile.design, validation_trace)
        failing = set(report.failed_assertions)
        if failing:
            # Drop candidates whose assertion failed on the golden design and retry once.
            valid = [c for c in candidates if _assertion_label(c) not in failing]
            if not valid:
                result.designs_without_valid_svas += 1
                return None, None
            augmented = insert_assertions(sample.source, valid)
            augmented_compile = compile_source(augmented)
            if not augmented_compile.ok or augmented_compile.design is None:
                result.designs_without_valid_svas += 1
                return None, None
            result.validated_svas += len(valid)
        else:
            result.validated_svas += len(candidates)
        return augmented, augmented_compile.design

    # ------------------------------------------------------------------ #
    # bug injection + validation
    # ------------------------------------------------------------------ #

    def process_sample(self, sample: CorpusSample, result: Stage2Result) -> None:
        """Run the complete Stage 2 flow for one sample."""
        from repro.artifacts import default_store

        store = default_store()
        augmented_golden, golden_design = self.validated_assertions(sample, result)
        if augmented_golden is None or golden_design is None:
            return
        # Every mutant below is a one-line variant of the augmented golden
        # design, so its lowering (cached from validated_assertions) is the
        # base each mutant relowers incrementally against; the checker base
        # likewise (mutations touch logic, not the assertions, so assertion
        # lowerings are reused wholesale).
        base_compiled = store.compiled_design(golden_design)
        base_checker = store.checker(golden_design)
        bugs = self._sample_injector(sample).inject(sample.name, augmented_golden, golden_design)
        result.injected_bugs += len(bugs)
        golden_dfg = (
            store.dataflow(golden_design) if self._config.static_screen == "cone" else None
        )
        for index, bug in enumerate(bugs):
            buggy_compile = compile_source(bug.buggy_source)
            if not buggy_compile.ok or buggy_compile.design is None:
                result.rejected_not_compiling += 1
                continue
            if golden_dfg is not None:
                from repro.analyze.cone import cone_screen
                from repro.obs import get_registry

                decision = cone_screen(golden_dfg, store.dataflow(buggy_compile.design))
                if decision.skip:
                    # The edit is invisible to every validated assertion, so
                    # this mutant can never fail one: it is a Verilog-Bug
                    # entry by construction, no simulation needed.
                    get_registry().inc("stage2.cone_skips")
                    result.verilog_bug.append(
                        VerilogBugEntry(
                            name=f"{sample.name}_vb{index}",
                            spec=sample.spec,
                            buggy_source=bug.buggy_source,
                            golden_line=bug.golden_line,
                            buggy_line=bug.buggy_line,
                            line_number=bug.line_number,
                            edit_kind=bug.edit_kind,
                            is_conditional=bug.is_conditional,
                            description=bug.description,
                        )
                    )
                    continue
            buggy_compiled = store.compiled_design(
                buggy_compile.design, base=base_compiled
            )
            stimulus_seed = self._config.seed + 101 + index
            try:
                trace = _simulate(
                    buggy_compile.design, stimulus_seed, self._config.random_cycles,
                    compiled=buggy_compiled,
                )
            except SimulationError:
                result.rejected_not_compiling += 1
                continue
            report = store.checker(buggy_compile.design, base=base_checker).check(trace)
            if report.passed:
                result.verilog_bug.append(
                    VerilogBugEntry(
                        name=f"{sample.name}_vb{index}",
                        spec=sample.spec,
                        buggy_source=bug.buggy_source,
                        golden_line=bug.golden_line,
                        buggy_line=bug.buggy_line,
                        line_number=bug.line_number,
                        edit_kind=bug.edit_kind,
                        is_conditional=bug.is_conditional,
                        description=bug.description,
                    )
                )
                continue
            failing_names = report.failed_assertions
            bug.failing_assertions = failing_names
            failing_specs = [
                spec for spec in buggy_compile.design.assertions if spec.name in failing_names
            ]
            bug.is_direct = classify_direct(bug, failing_specs)
            logs = format_failure_log(sample.name, report)
            result.sva_bug.append(
                SvaBugEntry(
                    name=f"{sample.name}_sb{index}",
                    design_name=sample.name,
                    family=sample.artifact.family,
                    origin="machine",
                    spec=sample.spec,
                    golden_source=augmented_golden,
                    buggy_source=bug.buggy_source,
                    logs=logs,
                    failing_assertions=failing_names,
                    line_number=bug.line_number,
                    golden_line=bug.golden_line,
                    buggy_line=bug.buggy_line,
                    edit_kind=bug.edit_kind,
                    is_conditional=bug.is_conditional,
                    is_direct=bool(bug.is_direct),
                    mutation_name=bug.mutation_name,
                    description=bug.description,
                    stimulus_seed=stimulus_seed,
                    stimulus_cycles=self._config.random_cycles,
                )
            )

    def run(self, samples: list[CorpusSample]) -> Stage2Result:
        """Run Stage 2 for every sample through the runtime executor.

        Results are merged in submission order, so worker count never
        changes the output; with ``config.cache_dir`` set, per-sample
        results are served content-addressed from disk on re-runs
        (quarantined failures are cached through too, so warm re-runs make
        the same skip decisions byte-for-byte).
        """
        config, policy = self._config, self._policy
        sample_results, skipped = policy.unwrap(
            run_jobs(
                samples,
                _process_sample_job,
                context=config,
                cache=ResultCache(config.cache_dir) if config.cache_dir else None,
                key_fn=lambda sample: _sample_key(config, policy, sample),
                encode=Stage2Result.to_dict,
                decode=Stage2Result.from_dict,
                **policy.job_options(),
            ),
            "stage2",
            (sample.name for sample in samples),
        )
        result = Stage2Result()
        for sample_result in sample_results:
            if sample_result is not None:
                result.merge(sample_result)
        result.skipped.extend(skipped)
        return result


def _process_sample_job(sample: CorpusSample, config: Stage2Config) -> Stage2Result:
    """Worker function: run one sample and ship its result back."""
    result = Stage2Result()
    Stage2Runner(config).process_sample(sample, result)
    return result


def _sample_key(config: Stage2Config, policy: RunPolicy, sample: CorpusSample) -> str:
    """Content address of one sample's Stage-2 result.

    Covers everything the per-sample flow reads: the config and policy
    (minus wall-time-only knobs), the golden source, the spec, and the
    artifact fields that feed candidate SVAs.
    """
    return content_key(
        STAGE2_RESULT_VERSION,
        config.content_fingerprint(policy),
        sample.name,
        sample.source,
        sample.spec,
        sample.artifact.family,
        "\x01".join(sample.artifact.template_svas),
    )


def _assertion_label(candidate: MinedAssertion) -> str:
    """The assertion label a candidate will have once inserted (``a_<property>``)."""
    text = candidate.assert_text or candidate.property_text
    label = text.split(":", 1)[0].strip()
    return label


def run_stage2(samples: list[CorpusSample], config: Optional[Stage2Config] = None) -> Stage2Result:
    """Convenience wrapper running Stage 2 over a sample list."""
    return Stage2Runner(config).run(samples)
