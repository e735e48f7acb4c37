"""One repeat of a workload, in the fresh interpreter ``run.py`` starts for it.

    python3 perfbench/repeat.py --workload NAME --workers N --order-seed S
        --out RESULT.json [--cache-dir DIR] [--known-answer]
        [--trace-out SPANS.jsonl]

Writes one JSON object to ``--out``.  ``start`` is the
:func:`time.perf_counter` reading (system-wide monotonic clock) at which
timing began, so the parent can measure set-up from the moment it launched
this interpreter.  With ``--trace-out`` the timed part runs under the
benchmark's spans and a ``repro.obs`` tracer, and the result carries the
per-layer numbers.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--known-answer", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + largest_child) / 1024.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(recorder, tracer, registry, outcome, start: float, end: float) -> dict:
    """The traced window's layer numbers, from spans, repro.obs spans and counters."""
    import spans

    wall_s = end - start
    spans.check_nesting(recorder.spans, start, end)
    layers = spans.layer_metrics(recorder.spans, wall_s)
    compiles = [span for span in recorder.spans if span["name"] == "hdl.compile"]
    sims = [span for span in recorder.spans if span["name"] == "sim"]
    stage2 = [span for span in recorder.spans if span["name"] == "dataaug.stage2"]
    stage2_hits = sum(span["cache_hits"] for span in stage2)
    stage2_lookups = stage2_hits + sum(span["cache_misses"] for span in stage2)
    jobs = [span.duration_s for span in tracer.spans if span.name == "job"]
    counters = registry.counters
    artifact_lookups = counters.get("artifact.hits", 0) + counters.get("artifact.misses", 0)
    report = outcome.report
    statistics = outcome.statistics if stage2 else None
    sim_busy = layers.get("sim.busy_s", 0.0)
    sim_cycles = sum(span["cycles"] for span in sims)
    layers.update({
        "hdl.compile.distinct": len({span["source_crc"] for span in compiles}),
        "sim.runs": len(sims),
        "sim.cycles": sim_cycles,
        "sim.cycles_per_s": ratio(sim_cycles, sim_busy),
        "model.mine.verified": recorder.mine_verified,
        "dataaug.stage2.yield": (
            ratio(statistics.sva_bug_entries, statistics.injected_bugs) if statistics else 0.0
        ),
        "dataaug.stage2.cache_hit_ratio": ratio(stage2_hits, stage2_lookups),
        "artifacts.hit_ratio": ratio(counters.get("artifact.hits", 0), artifact_lookups),
        "artifacts.evictions": counters.get("artifact.evictions", 0),
        "artifacts.nodes_relowered": counters.get("relower.nodes_lowered", 0),
        "eval.candidates": report.summary()["candidates_verified"],
        "eval.verdict_cache.hit_ratio": ratio(
            report.cache_hits, report.cache_hits + report.cache_misses
        ),
        "runtime.jobs": len(jobs),
        "runtime.job.busy_s": sum(jobs),
        "runtime.job.max_s": max(jobs, default=0.0),
        "runtime.run_jobs.wall_s": sum(
            span.duration_s for span in tracer.spans if span.name == "run_jobs"
        ),
        "runtime.retries": counters.get("runtime.retries", 0),
        "runtime.quarantined": counters.get("runtime.quarantined", 0),
        "traced.wall_s": wall_s,
    })
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    import_started = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - import_started
    submitted = workloads.count_pipeline_jobs()
    recorder = None
    if args.trace_out is not None:
        import spans

        recorder = spans.install()
    ctx = workloads.Context(
        workers=args.workers, order_seed=args.order_seed, cache_dir=args.cache_dir
    )
    setup, run = workloads.WORKLOADS[args.workload]
    result: dict = {"import_s": import_s}
    try:
        state = setup(ctx)
        if recorder is None:
            start = time.perf_counter()
            outcome = run(ctx, state)
            end = time.perf_counter()
        else:
            from repro.obs import MetricsRegistry, Tracer, scoped_registry

            ctx.tracer = Tracer()
            with scoped_registry(MetricsRegistry()) as registry:
                recorder.enabled = True
                start = time.perf_counter()
                outcome = run(ctx, state)
                end = time.perf_counter()
                recorder.enabled = False
        rss = peak_rss_mb()
        summary = outcome.report.summary()
        result.update(
            start=start,
            wall_s=end - start,
            peak_rss_mb=rss,
            digest=workloads.report_digest(outcome.report),
            pass_at_1=summary["pass@1"],
            pass_at_5=summary["pass@5"],
            attempted=submitted[0] + summary["candidates_verified"],
            failed=len(outcome.statistics.skipped_jobs)
            + summary["verdicts"].get("infra_error", 0),
        )
        if recorder is not None:
            result["layers"] = per_layer(recorder, ctx.tracer, registry, outcome, start, end)
            spans.write_spans(
                args.trace_out, recorder.spans, start,
                {"workload": args.workload, "wall_s": end - start},
            )
        if args.known_answer:
            result["known_answer"] = {
                "cases": len(outcome.entries),
                "mismatches": workloads.known_answer_mismatches(outcome),
            }
    except Exception:  # noqa: BLE001 -- a failed repeat is reported, not raised
        operations = max(1, submitted[0])
        result.update(error=traceback.format_exc(), attempted=operations, failed=operations)
        args.out.write_text(json.dumps(result))
        print(result["error"], file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
