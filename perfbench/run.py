"""Repair-loop benchmark: the whole AssertSolver loop, timed from outside.

    python3 perfbench/run.py --workload recipe-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repeat of a workload starts a fresh
interpreter (``perfbench/repeat.py``), because the artifact LRU and the
verifier memo are process-global: warmth may come only from the named
cache directory.  Workloads (see ``perfbench/README.md`` for why each):

* ``recipe-cold`` -- 16-design pipeline, PT, SFT, learning from errors and
  pass@k on the held-out split, writing into an empty cache directory;
* ``recipe-warm`` -- the same loop re-run over a directory that one cold
  run filled first (Stage-2 result cache and verdict cache);
* ``verify-long`` -- set-up trains an SFT policy on ``PipelineConfig.small()``;
  the timed part verifies its top-5 candidates at 4000 cycles x 4 seeds.

``--trace 0`` repeats the timed part at two workers until ``--seconds``
have passed (three repeats at least) and prints the medians of the
end-to-end metrics.  ``--trace 1`` runs the timed part twice at one worker,
so every job runs in this process tree's one interpreter: once plain and
once under the benchmark's spans (``perfbench/spans.py``), and prints the
per-layer metrics.  Span files go to ``perfbench/out/``.

Every run checks the outputs: each held-out case's golden line must
verify ``pass`` with an exercised assertion and its unpatched source
``assertion_fail``; the eval report digest must be equal across all
repeats, between the plain and traced repeats, and between the cold fill
and the warm re-runs.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKERS = 2
MIN_REPEATS = 3
#: The whole run, children included, stops within this many seconds.
RUN_BUDGET_S = 170.0

#: workload -> cache directory plan: a fresh empty one per repeat, one
#: filled by a cold run before the repeats, or none.
PLANS = {"recipe-cold": "fresh", "recipe-warm": "filled", "verify-long": None}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "miss_at_1": "ratio",
    "miss_at_5": "ratio",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: Spans whose self time is reported as ``<span>.self_s``.
SPANS = (
    "dataaug.pipeline", "corpus.generate", "dataaug.stage1", "dataaug.stage2",
    "dataaug.stage3", "sva.mine", "bugs.inject", "hdl.compile", "hdl.lex", "hdl.parse",
    "hdl.elaborate", "analyze.lint", "artifacts.lower", "sim.stimulus", "sim", "sva.check",
    "model.case", "model.features", "model.pretrain", "model.sft", "model.learn",
    "model.mine", "model.dpo", "model.propose", "eval.harness", "eval.verify",
)

PER_LAYER = {
    "hdl.compile.calls": "count",
    "hdl.compile.distinct": "count",
    "hdl.compile.busy_s": "s",
    "hdl.lex.busy_s": "s",
    "hdl.parse.busy_s": "s",
    "hdl.elaborate.busy_s": "s",
    "analyze.lint.busy_s": "s",
    "model.case.busy_s": "s",
    "model.pretrain.busy_s": "s",
    "model.sft.busy_s": "s",
    "model.features.busy_s": "s",
    "model.mine.busy_s": "s",
    "model.mine.verified": "count",
    "model.dpo.busy_s": "s",
    "model.propose.calls": "count",
    "model.propose.busy_s": "s",
    "sim.runs": "count",
    "sim.cycles": "count",
    "sim.busy_s": "s",
    "sim.cycles_per_s": "1/s",
    "sim.stimulus.busy_s": "s",
    "sva.check.calls": "count",
    "sva.check.busy_s": "s",
    "corpus.generate.busy_s": "s",
    "sva.mine.busy_s": "s",
    "bugs.inject.calls": "count",
    "bugs.inject.busy_s": "s",
    "dataaug.stage1.busy_s": "s",
    "dataaug.stage2.busy_s": "s",
    "dataaug.stage2.yield": "ratio",
    "dataaug.stage2.cache_hit_ratio": "ratio",
    "artifacts.hit_ratio": "ratio",
    "artifacts.evictions": "count",
    "artifacts.nodes_relowered": "count",
    "artifacts.lower.busy_s": "s",
    "eval.verify.calls": "count",
    "eval.verify.busy_s": "s",
    "eval.candidates": "count",
    "eval.verdict_cache.hit_ratio": "ratio",
    "runtime.jobs": "count",
    "runtime.job.busy_s": "s",
    "runtime.job.max_s": "s",
    "runtime.run_jobs.wall_s": "s",
    "runtime.retries": "count",
    "runtime.quarantined": "count",
    "failed_share": "ratio",
    "startup.import_s": "s",
    "traced.wall_s": "s",
    "unattributed_s": "s",
    "obs.overhead_s": "s",
    **{f"{name}.self_s": "s" for name in SPANS},
}


class Run:
    """The children of one benchmark run and what they reported."""

    def __init__(self, root: Path, workload: str, seed: int, scratch: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.perf_counter()
        self.children: list[dict] = []
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(scratch))
        for name in ("REPRO_TRACE", "REPRO_WORKERS"):
            self.env.pop(name, None)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, workers: int, cache_dir=None, known_answer=False, trace_out=None) -> dict:
        """Run one repeat in a fresh interpreter and return its result."""
        index = len(self.children)
        out = self.scratch / f"repeat-{index}.json"
        log = self.scratch / f"repeat-{index}.log"
        command = [
            sys.executable, str(self.root / "perfbench" / "repeat.py"),
            "--workload", self.workload, "--workers", str(workers),
            "--order-seed", str(self.seed), "--out", str(out),
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        if known_answer:
            command.append("--known-answer")
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        timeout = max(1.0, RUN_BUDGET_S - self.elapsed())
        with log.open("w") as handle:
            launched = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=self.root, env=self.env, stdout=handle,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                code = process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Reap anything the repeat left behind in its session.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
            finished = time.perf_counter()
        result = json.loads(out.read_text()) if out.exists() else {}
        result["elapsed_s"] = finished - launched
        if "start" in result:
            result["setup_s"] = result["start"] - launched
        if code != 0 or "error" in result or "digest" not in result:
            reason = "timed out" if code is None else f"exit code {code}"
            tail = log.read_text()[-2000:]
            self.problems.append(f"repeat {index} failed ({reason}):\n{tail}")
            result.setdefault("attempted", 1)
            result["failed"] = result["attempted"]
        else:
            print(
                f"repeat {index}: wall {result['wall_s']:.3f} s,"
                f" set-up {result['setup_s']:.3f} s, in all {result['elapsed_s']:.1f} s",
                file=sys.stderr,
            )
        self.children.append(result)
        return result

    def cache_dirs(self):
        """The cache directory each repeat of this workload gets, as a callable.

        For ``filled`` this first runs the cold repeat that fills the shared
        directory; that repeat makes the known-answer check.
        """
        plan = PLANS[self.workload]
        if plan == "fresh":
            return lambda: Path(tempfile.mkdtemp(prefix="cold-", dir=self.scratch))
        if plan == "filled":
            shared = Path(tempfile.mkdtemp(prefix="filled-", dir=self.scratch))
            self.child(WORKERS, cache_dir=shared, known_answer=True)
            return lambda: shared
        return lambda: None

    def check(self) -> None:
        """Report identity across every repeat, and the known-answer check."""
        digests = {child.get("digest") for child in self.children}
        if len(digests) != 1:
            self.problems.append(f"eval reports differ across repeats: {sorted(map(str, digests))}")
        answers = [child["known_answer"] for child in self.children if "known_answer" in child]
        if len(answers) != 1 or answers[0]["cases"] < 1:
            self.problems.append("the known-answer check did not run")
        for answer in answers:
            self.problems.extend(answer["mismatches"])

    def counts(self) -> tuple[int, int]:
        attempted = sum(child.get("attempted", 0) for child in self.children)
        failed = sum(child.get("failed", 0) for child in self.children)
        return attempted, failed


def timed_run(run: Run, seconds: float) -> dict:
    """Fresh-interpreter repeats at two workers; medians of the end-to-end metrics."""
    cache_dir = run.cache_dirs()
    repeats: list[dict] = []
    while not run.problems:
        repeats.append(
            run.child(WORKERS, cache_dir=cache_dir(), known_answer=not run.children)
        )
        typical = statistics.median(repeat["elapsed_s"] for repeat in repeats)
        if run.elapsed() + typical > (seconds if len(repeats) >= MIN_REPEATS else RUN_BUDGET_S):
            break
    if run.problems:
        return {}
    attempted, failed = run.counts()
    first = repeats[0]
    return {
        "wall_s": statistics.median(repeat["wall_s"] for repeat in repeats),
        "setup_s": statistics.median(repeat["setup_s"] for repeat in repeats),
        "miss_at_1": 1.0 - first["pass_at_1"],
        "miss_at_5": 1.0 - first["pass_at_5"],
        "peak_rss_mb": statistics.median(repeat["peak_rss_mb"] for repeat in repeats),
        "ok_share": 1.0 - failed / attempted,
    }


def traced_run(run: Run) -> dict:
    """One plain and one traced repeat at one worker; the per-layer metrics."""
    cache_dir = run.cache_dirs()
    trace_out = run.root / "perfbench" / "out" / f"trace-{run.workload}-seed{run.seed}.jsonl"
    plain = run.child(1, cache_dir=cache_dir(), known_answer=not run.children)
    traced = run.child(1, cache_dir=cache_dir(), trace_out=trace_out)
    if run.problems:
        return {}
    attempted, failed = run.counts()
    layers = dict(traced["layers"])
    layers["failed_share"] = failed / attempted
    layers["startup.import_s"] = traced["import_s"]
    layers["obs.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    self_total = sum(layers.get(f"{name}.self_s", 0.0) for name in SPANS)
    if abs(self_total + layers["unattributed_s"] - layers["traced.wall_s"]) > 1e-6:
        run.problems.append("layer self times plus unattributed_s do not add up to the wall")
    return {name: layers.get(name, 0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout that holds src/repro", file=sys.stderr)
        return 2
    tmp_root = root / "perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    run = Run(root, args.workload, args.seed, scratch)
    try:
        values = traced_run(run) if args.trace else timed_run(run, args.seconds)
        if not run.problems:
            run.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = run.counts()
    for problem in run.problems:
        print(f"error: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
