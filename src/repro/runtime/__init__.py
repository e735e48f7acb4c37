"""repro.runtime -- one deterministic, fault-tolerant runtime for every fan-out.

The paper's pipeline (Fig. 2) is embarrassingly parallel end to end; this
package is the single layer all of its workloads plug into instead of each
hand-rolling a ``multiprocessing`` pool:

* :func:`run_jobs` -- the sharded-map executor (pool lifecycle, chunking,
  submission-order merging, optional content-addressed result caching,
  per-job timeouts, bounded retries, broken-pool recovery, quarantine);
* :func:`derive_seed` -- per-job seed derivation, the invariance trick that
  makes output independent of worker count and job order;
* :func:`default_workers` -- the one shared "how many workers" default
  (cores, capped, ``REPRO_WORKERS``-overridable);
* :class:`ResultCache` / :func:`content_key` -- the generic on-disk cache
  that :class:`repro.eval.cache.VerdictCache` specialises;
* :class:`JobOutcome` / :class:`JobFailure` -- structured per-job results
  under ``on_error="quarantine"``, and :class:`FaultPlan` -- the
  deterministic fault-injection harness the recovery tests drive;
* :class:`RunPolicy` -- the one execution policy (workers, failure
  handling, timeout, retries, fault plan) every pipeline stage takes, with
  :meth:`RunPolicy.unwrap` turning quarantined outcomes into skip records.

Adopters: corpus generation (per-design jobs), Stage 1 (per-sample compile
checks), Stage 2 (per-sample SVA validation + bug injection), Stage 3
(per-entry CoT jobs) and ``repro.eval`` verification (per-case jobs).
"""

from repro.runtime.cache import ResultCache, content_key
from repro.runtime.executor import (
    DEFAULT_WORKER_CAP,
    MAX_CHUNKSIZE,
    WORKERS_ENV,
    auto_chunksize,
    check_failure_options,
    default_workers,
    derive_seed,
    run_jobs,
)
from repro.runtime.faults import (
    FAULT_CRASH,
    FAULT_HANG,
    FAULT_RAISE,
    FaultPlan,
    InjectedFault,
    JobExecutionError,
    JobFailure,
    JobOutcome,
    JobTimeoutError,
    WorkerCrashError,
)
from repro.runtime.policy import RunPolicy

__all__ = [
    "DEFAULT_WORKER_CAP",
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_RAISE",
    "FaultPlan",
    "InjectedFault",
    "JobExecutionError",
    "JobFailure",
    "JobOutcome",
    "JobTimeoutError",
    "MAX_CHUNKSIZE",
    "ResultCache",
    "RunPolicy",
    "WORKERS_ENV",
    "WorkerCrashError",
    "auto_chunksize",
    "check_failure_options",
    "content_key",
    "default_workers",
    "derive_seed",
    "run_jobs",
]
