"""Stage-2 fan-out tests: worker count must never change the output."""

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.dataaug.pipeline import DataAugmentationPipeline, PipelineConfig
from repro.dataaug.stage1 import run_stage1
from repro.dataaug.stage2 import Stage2Config, Stage2Runner
from repro.runtime import RunPolicy


def fingerprint(result):
    return (
        [
            (e.name, e.buggy_line, e.golden_line, e.logs, tuple(e.failing_assertions))
            for e in result.sva_bug
        ],
        [(e.name, e.buggy_line, e.golden_line) for e in result.verilog_bug],
        result.candidate_svas,
        result.validated_svas,
        result.injected_bugs,
        result.rejected_not_compiling,
        result.designs_without_valid_svas,
    )


def compiled_samples(seed: int = 42, count: int = 6):
    corpus = CorpusGenerator(
        CorpusConfig(seed=seed, design_count=count, corrupted_fraction=0.2)
    ).generate()
    return run_stage1(corpus).compiled


def test_sample_key_is_pinned():
    """Stage-2 cache keys must not drift: a cache written by an earlier
    version of the pipeline is only reusable if the key of every sample is
    byte-identical.  The digests below were computed before the execution
    knobs moved from ``Stage2Config`` into ``RunPolicy``."""
    from repro.corpus.generator import CorpusSample
    from repro.corpus.metadata import DesignArtifact
    from repro.dataaug.stage2 import _sample_key

    sample = CorpusSample(
        artifact=DesignArtifact(
            name="counter_0007",
            family="counter",
            source=(
                "module counter_0007(input clk, output reg [3:0] q);\n"
                "  always @(posedge clk) q <= q + 1;\nendmodule\n"
            ),
            description="A free-running counter.",
            template_svas=["property p_inc; 1; endproperty\na_inc: assert property (p_inc);"],
        ),
        spec="The counter increments every cycle.",
    )
    config = Stage2Config()
    assert config.content_fingerprint(RunPolicy()) == "11|48|5|6|7|6|3|True|auto|None|1|off"
    assert _sample_key(config, RunPolicy(), sample) == (
        "fc9378ef273cc68c816d79f797191177be94a57166bd99fc217513f3c457b03f"
    )
    budget = RunPolicy(job_timeout=30.0, max_attempts=3)
    assert _sample_key(config, budget, sample) == (
        "1807d0f0af83355db96abf8a22ff0050fced71a914f02a9e46961c5599bd35ee"
    )
    # Worker count and failure aggregation never reach the key.
    assert _sample_key(config, RunPolicy(workers=4, on_error="quarantine"), sample) == (
        _sample_key(config, RunPolicy(), sample)
    )


def test_parallel_equals_serial():
    samples = compiled_samples()
    config = Stage2Config(seed=5, random_cycles=20, max_bugs_per_design=3)
    serial = Stage2Runner(config, RunPolicy(workers=1)).run(samples)
    parallel = Stage2Runner(config, RunPolicy(workers=2)).run(samples)
    assert fingerprint(serial) == fingerprint(parallel)
    assert serial.injected_bugs > 0


def test_result_independent_of_sample_order():
    """Per-sample injector seeding decouples mutants from batch ordering."""
    samples = compiled_samples()
    config = Stage2Config(seed=5, random_cycles=20, max_bugs_per_design=3)
    forward = Stage2Runner(config).run(samples)
    backward = Stage2Runner(config).run(list(reversed(samples)))
    assert sorted(e.name for e in forward.sva_bug) == sorted(e.name for e in backward.sva_bug)
    assert sorted(e.name for e in forward.verilog_bug) == sorted(
        e.name for e in backward.verilog_bug
    )


def test_small_pipeline_end_to_end():
    datasets = DataAugmentationPipeline(PipelineConfig.small(seed=7)).run()
    stats = datasets.statistics
    assert stats.corpus_samples > 0
    assert stats.validated_svas > 0
    assert stats.sva_bug_entries == len(datasets.sva_bug_train) + len(
        datasets.sva_eval_machine
    )
    # The split shares no design between train and eval.
    train_designs = {e.design_name for e in datasets.sva_bug_train}
    eval_designs = {e.design_name for e in datasets.sva_eval_machine}
    assert not (train_designs & eval_designs)


def test_stage2_compiles_each_mutant_once(monkeypatch):
    """The injector's compile check elaborates each mutant; Stage 2 reuses
    that design (``BugInstance.design``) instead of compiling it again."""
    import repro.bugs.injector as injector
    import repro.dataaug.stage2 as stage2

    compiled: list[str] = []

    def counting(original):
        def compile_source(text, *args, **kwargs):
            compiled.append(text)
            return original(text, *args, **kwargs)

        return compile_source

    monkeypatch.setattr(injector, "compile_source", counting(injector.compile_source))
    monkeypatch.setattr(stage2, "compile_source", counting(stage2.compile_source))
    result = Stage2Runner(Stage2Config(seed=5), RunPolicy(workers=1)).run(compiled_samples(count=3))
    mutants = [e.buggy_source for e in result.sva_bug] + [e.buggy_source for e in result.verilog_bug]
    assert mutants
    assert all(compiled.count(source) == 1 for source in mutants)
