"""Benchmark-side spans around the public calls into each ``repro`` module.

The traced run wraps public entry points of ``hdl``, ``analyze``, ``sim``,
``sva``, ``bugs``, ``corpus``, ``artifacts``, ``dataaug``, ``model`` and
``eval`` in spans recorded by this file, so no span lives inside the
program.  A function imported by name into other modules (``compile_source``
is bound in six) is replaced in every loaded ``repro`` module that holds it.

Every span has a name, a start, an end and the id of the span that was open
when it began.  Spans are kept in memory and written once, at exit.  A call
made while a span of the same name is open (``check`` calling
``check_batch``) is not recorded again, so ``busy_s`` is inclusive time
counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import zlib
from pathlib import Path
from typing import Callable, Optional

from repro.obs import get_registry


class SpanRecorder:
    """Spans of one traced window, nested by the order calls open them."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.mine_verified = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, attrs_of: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            if not recorder.enabled or any(open_name == name for _, open_name in stack):
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = time.perf_counter()
            extra = attrs_of(*args, **kwargs) if attrs_of is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                if extra:
                    span.update(extra)
                    if "registry_before" in span:
                        _cache_delta(span)
                recorder.spans.append(span)
            return result

        return traced

    def count_mine_verify(self, fn: Callable) -> Callable:
        """Count ``SemanticVerifier.verify`` calls made by challenging-case mining."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if recorder.enabled and any(name == "model.mine" for _, name in recorder._stack):
                recorder.mine_verified += 1
            return fn(*args, **kwargs)

        return counted


def _cache_delta(span: dict) -> None:
    """Result-cache traffic during the span, from the ambient ``repro.obs`` counters."""
    before = span.pop("registry_before")
    counters = get_registry().counters
    span["cache_hits"] = counters.get("runtime.cache.hits", 0) - before[0]
    span["cache_misses"] = counters.get("runtime.cache.misses", 0) - before[1]


def _source_key(text, *args, **kwargs) -> dict:
    return {"source_crc": zlib.crc32(text.encode())}


def _stimulus_cycles(simulator, stimulus, *args, **kwargs) -> dict:
    return {"cycles": len(stimulus)}


def _registry_before(*args, **kwargs) -> dict:
    counters = get_registry().counters
    return {
        "registry_before": (
            counters.get("runtime.cache.hits", 0),
            counters.get("runtime.cache.misses", 0),
        )
    }


#: (span name, module, attribute) of module-level functions.
FUNCTIONS = (
    ("hdl.lex", "repro.hdl.lexer", "tokenize"),
    ("hdl.parse", "repro.hdl.parser", "parse_source"),
    ("hdl.elaborate", "repro.hdl.elaborate", "elaborate"),
    ("hdl.compile", "repro.hdl.lint", "compile_source"),
    ("analyze.lint", "repro.analyze.passes", "run_passes"),
    ("sva.mine", "repro.sva.generator", "mine_assertions"),
    ("dataaug.stage1", "repro.dataaug.stage1", "run_stage1"),
    ("dataaug.stage3", "repro.dataaug.stage3", "run_stage3"),
    ("model.mine", "repro.model.challenging", "collect_challenging_cases"),
    ("eval.verify", "repro.eval.executor", "run_verification_jobs"),
)

#: (span name, module, class, methods).
METHODS = (
    ("corpus.generate", "repro.corpus.generator", "CorpusGenerator", ("generate",)),
    ("dataaug.pipeline", "repro.dataaug.pipeline", "DataAugmentationPipeline", ("run",)),
    ("dataaug.stage2", "repro.dataaug.stage2", "Stage2Runner", ("run",)),
    ("bugs.inject", "repro.bugs.injector", "BugInjector", ("inject",)),
    ("sim.stimulus", "repro.sim.stimulus", "StimulusGenerator", ("mixed_stimulus",)),
    ("sim", "repro.sim.compile", "CompiledSimulator", ("run",)),
    ("sim", "repro.sim.engine", "InterpSimulator", ("run",)),
    ("sva.check", "repro.sva.compile", "CompiledAssertionChecker", ("check", "check_batch")),
    ("sva.check", "repro.sva.checker", "AssertionChecker", ("check", "check_batch")),
    ("artifacts.lower", "repro.artifacts.store", "ArtifactStore", ("compiled_design", "checker")),
    ("model.case", "repro.model.case", "RepairCase", ("from_entry", "design")),
    ("model.features", "repro.model.features", "LocalisationFeatureExtractor", ("extract",)),
    ("model.features", "repro.model.features", "FixFeatureExtractor", ("extract_batch",)),
    ("model.pretrain", "repro.model.assertsolver_model", "AssertSolverModel", ("pretrain",)),
    ("model.sft", "repro.model.assertsolver_model", "AssertSolverModel", ("supervised_finetune",)),
    ("model.learn", "repro.model.assertsolver_model", "AssertSolverModel", ("learn_from_errors",)),
    ("model.propose", "repro.model.assertsolver_model", "AssertSolverModel",
     ("propose", "propose_topk")),
    ("model.dpo", "repro.model.dpo", "DpoTrainer", ("train",)),
    ("eval.harness", "repro.eval.harness", "EvalHarness", ("run",)),
)

ATTRS = {
    "hdl.compile": _source_key,
    "sim": _stimulus_cycles,
    "dataaug.stage2": _registry_before,
}


def _rebind(original: Callable, replacement: Callable) -> None:
    """Replace every ``repro`` module-level binding of ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(recorder: SpanRecorder, name: str, cls: type, attr: str) -> None:
    raw = cls.__dict__[attr]
    attrs_of = ATTRS.get(name)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, attrs_of)))
    elif isinstance(raw, functools.cached_property):
        replacement = functools.cached_property(recorder.wrap(name, raw.func, attrs_of))
        replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)
    else:
        setattr(cls, attr, recorder.wrap(name, raw, attrs_of))


def install() -> SpanRecorder:
    """Wrap every public entry point listed above; the recorder starts disabled."""
    recorder = SpanRecorder()
    for name, module_name, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, recorder.wrap(name, original, ATTRS.get(name)))
    for name, module_name, class_name, attrs in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for attr in attrs:
            _wrap_method(recorder, name, cls, attr)
    verifier = importlib.import_module("repro.eval.verifier").SemanticVerifier
    verifier.verify = recorder.count_mine_verify(verifier.verify)
    return recorder


# ---------------------------------------------------------------------- #
# derived per-layer numbers
# ---------------------------------------------------------------------- #


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def check_nesting(spans: list[dict], start: float, end: float) -> None:
    """Raise unless every span lies inside its parent and inside the window."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        outer = by_id.get(span["parent"]) if span["parent"] is not None else None
        low, high = (outer["start"], outer["end"]) if outer else (start, end)
        if span["start"] < low or span["end"] > high:
            raise ValueError(f"span {span['name']} lies outside its parent")


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Busy and self time per span name, call counts and the unattributed rest."""
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for span in spans:
        key = span["name"]
        metrics[f"{key}.busy_s"] = metrics.get(f"{key}.busy_s", 0.0) + span["end"] - span["start"]
        metrics[f"{key}.self_s"] = metrics.get(f"{key}.self_s", 0.0) + own[span["id"]]
        metrics[f"{key}.calls"] = metrics.get(f"{key}.calls", 0) + 1
    metrics["unattributed_s"] = wall_s - sum(own.values())
    return metrics


def write_spans(path: Path, spans: list[dict], epoch: float, meta: dict) -> None:
    """One JSON object per line: a meta header, then spans on the window's clock."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps({"type": "meta", **meta}) + "\n")
        for span in sorted(spans, key=lambda item: item["start"]):
            record = dict(span, start=span["start"] - epoch, end=span["end"] - epoch)
            handle.write(json.dumps({"type": "span", **record}) + "\n")
