"""Counters, gauges and aggregate histograms for what spans cannot show.

A span says *when and how long*; a metric says *how often and how much*.
The registry records the events that were invisible before this layer --
result-cache hits and misses, retries, timeouts, quarantines, pool
rebuilds, per-engine SVA fallback counts, verifier phase durations -- as
three primitive kinds:

* **counter** -- a monotonically increasing integer (:meth:`MetricsRegistry.inc`);
* **gauge**   -- a last-write-wins value (:meth:`MetricsRegistry.set_gauge`);
* **histogram** -- an aggregate ``{count, sum, min, max}`` over observations
  (:meth:`MetricsRegistry.observe`); aggregates rather than raw samples so
  worker snapshots merge exactly and ship cheaply.

Like the tracer, the registry is ambient per process (:func:`get_registry`)
so instrumented code needs no plumbing; :func:`repro.runtime.run_jobs`
installs a fresh registry around each traced worker job and merges the
snapshot back on the orchestrator, which is how worker-side counts reach
the run's trace file.

Names are dotted paths (``runtime.cache.hits``); a variable label rides in
brackets via :func:`labeled` (``sva.fallback[width 64 exceeds the
int64 column limit]``), keeping keys plain JSON-safe strings.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Union


def labeled(name: str, label: str) -> str:
    """Compose a labelled metric key: ``name[label]`` (newlines stripped)."""
    clean = " ".join(str(label).split())
    return f"{name}[{clean}]"


def split_label(key: str) -> tuple[str, Optional[str]]:
    """Inverse of :func:`labeled`: ``name[label]`` -> (name, label)."""
    if key.endswith("]") and "[" in key:
        name, _, label = key.partition("[")
        return name, label[:-1]
    return key, None


class MetricsRegistry:
    """One process's (or one job's) metric state; merges exactly."""

    def __init__(self) -> None:
        self.counters: dict[str, Union[int, float]] = {}
        self.gauges: dict[str, Union[int, float]] = {}
        self.histograms: dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Union[int, float]) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        aggregate = self.histograms.get(name)
        if aggregate is None:
            self.histograms[name] = {"count": 1, "sum": value, "min": value, "max": value}
        else:
            aggregate["count"] += 1
            aggregate["sum"] += value
            if value < aggregate["min"]:
                aggregate["min"] = value
            if value > aggregate["max"]:
                aggregate["max"] = value

    def counter(self, name: str) -> Union[int, float]:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------ #
    # shipping
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-safe copy of the whole registry (ships across processes)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(aggregate)
                for name, aggregate in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: Union[dict, "MetricsRegistry"]) -> None:
        """Fold another registry's snapshot in: counters add, gauges take the
        incoming value, histogram aggregates combine exactly."""
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, incoming in snapshot.get("histograms", {}).items():
            aggregate = self.histograms.get(name)
            if aggregate is None:
                self.histograms[name] = dict(incoming)
            else:
                aggregate["count"] += incoming["count"]
                aggregate["sum"] += incoming["sum"]
                aggregate["min"] = min(aggregate["min"], incoming["min"])
                aggregate["max"] = max(aggregate["max"], incoming["max"])

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


# ---------------------------------------------------------------------- #
# the ambient registry
# ---------------------------------------------------------------------- #

_ACTIVE = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process's ambient registry (always present; telemetry-only)."""
    return _ACTIVE


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as ambient and return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def scoped_registry(registry: Optional[MetricsRegistry] = None):
    """A fresh (or given) ambient registry for the duration of the block.

    Tests and job-scoped collection both use this: everything recorded
    inside the block lands in the yielded registry, and the previous
    ambient registry is restored on exit untouched.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
