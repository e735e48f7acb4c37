"""repro.obs -- zero-dependency observability: tracing, metrics, reports.

Three parts, stdlib-only:

* :mod:`repro.obs.trace` -- span tracer (``Tracer.span(name, **attrs)``
  context managers, nested monotonic timings, a no-op :data:`NULL_TRACER`
  ambient default so disabled tracing costs nothing), with JSONL and
  Chrome-trace-event (Perfetto-loadable) export.  Worker-process spans are
  buffered per job and shipped back piggybacked on
  :func:`repro.runtime.run_jobs` chunk results.
* :mod:`repro.obs.metrics` -- ambient counter/gauge/histogram registry
  recording what spans cannot show: cache traffic, retries, timeouts,
  quarantines, pool rebuilds, per-engine SVA fallback counts, verifier
  phase durations.
* :mod:`repro.obs.report` -- renders a trace file into a human run report
  (per-stage table, top-N slowest jobs, engine fallback rates, fault
  summary); ``python -m repro.obs summarize <trace>`` is the CLI.

Everything here is out-of-band telemetry: no span or metric may flow into
content keys, dataset records or evaluation reports -- datasets and eval
summaries are byte-identical with tracing on or off, which the test suite
pins end to end.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    labeled,
    scoped_registry,
    set_registry,
    split_label,
)
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_ENV,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    TraceData,
    Tracer,
    chrome_trace_events,
    get_tracer,
    host_metadata,
    read_trace,
    resolve_trace_path,
    set_tracer,
    write_chrome_trace,
    write_trace,
)


class phase:
    """Span + duration histogram in one: ``with phase("verify.compile"):``.

    Opens a span named ``name`` on the ambient tracer and records the block
    duration into the ambient registry's ``<name>_s`` histogram, so phase
    timings survive even in aggregate-only views.  With the null tracer the
    span side is free; the histogram is one clock read and a dict update.
    """

    __slots__ = ("name", "attrs", "_span", "_start")

    def __init__(self, name: str, **attrs):
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self._span = get_tracer().span(self.name, **self.attrs)
        self._span.__enter__()
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        get_registry().observe(self.name + "_s", time.perf_counter() - self._start)
        return self._span.__exit__(exc_type, exc, tb)


def annotate(**attrs) -> None:
    """Attach attrs to the ambient tracer's innermost open span."""
    get_tracer().annotate(**attrs)


@contextmanager
def traced_run(
    tracer: Optional[Union[Tracer, NullTracer]],
    trace_path: Optional[Union[str, Path]],
    kind: str,
) -> Iterator[Union[Tracer, NullTracer]]:
    """Make one run's tracer ambient for the block; yields the ambient tracer.

    * An explicit ``tracer`` is installed only: its caller collects and
      writes it (the eval CLI merges pipeline and eval into one file).
    * Otherwise ``trace_path`` (``REPRO_TRACE`` as fallback) makes the block
      own a fresh :class:`Tracer` and :class:`MetricsRegistry`, written to
      that path on exit with ``meta.kind = kind``.
    * With neither, the block runs under whatever tracer is ambient.
    """
    path = resolve_trace_path(trace_path) if tracer is None else None
    if tracer is None and path is None:
        yield get_tracer()
        return
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        if path is None:
            yield active
            return
        with scoped_registry() as registry:
            try:
                yield active
            finally:
                write_trace(path, active, metrics=registry, meta={"kind": kind})
    finally:
        set_tracer(previous)


__all__ = [
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_ENV",
    "TRACE_SCHEMA",
    "TraceData",
    "Tracer",
    "annotate",
    "chrome_trace_events",
    "get_registry",
    "get_tracer",
    "host_metadata",
    "labeled",
    "phase",
    "read_trace",
    "resolve_trace_path",
    "scoped_registry",
    "set_registry",
    "set_tracer",
    "split_label",
    "traced_run",
    "write_chrome_trace",
    "write_trace",
]
