"""The compiled-artifact cache: a bounded LRU plus an on-disk tier.

Every candidate repair the verification loop judges is a one-line mutant of
a design it has already compiled, yet historically each one paid a full
parse + elaborate + lower.  :class:`ArtifactStore` removes that waste at
three levels:

* an **in-process LRU** keyed by :func:`~repro.artifacts.canon.design_fingerprint`
  holds lowered state -- :class:`~repro.sim.compile.CompiledDesign` and
  :class:`~repro.sva.compile.CompiledAssertionChecker` instances.  Lowered
  closures are process-local by nature (they do not pickle), so this tier is
  bounded (``REPRO_ARTIFACT_LRU``, default 128 entries) and evicts
  least-recently used entries instead of pinning them forever;
* an optional **on-disk tier** (a :class:`~repro.runtime.cache.ResultCache`)
  shares *elaborated designs* across worker processes, keyed by the SHA-256
  of the source text: a worker that misses in memory skips the parse +
  elaborate of a design any other worker has already seen (the payload is a
  pickled :class:`~repro.hdl.elaborate.ElaboratedDesign`; compile failures
  are cached with their first rendered diagnostic so a failing candidate is
  diagnosed once per fleet, not once per worker);
* **incremental relowering**: the typed helpers accept a ``base`` artifact
  and hand it to :func:`repro.sim.compile.compile_design` /
  :class:`repro.sva.compile.CompiledAssertionChecker`, which reuse the
  base's closures for every content-identical node and relower only the
  dirty cone.

Counters (``artifact.hits`` / ``artifact.misses`` / ``artifact.evictions``,
``artifact.disk.hits`` / ``artifact.disk.misses``) land in the ambient
:mod:`repro.obs` registry and surface in ``python -m repro.obs summarize``.
Cache state never changes results: incremental relowering is byte-identical
to full recompilation (pinned by ``tests/test_artifacts.py``).
"""

from __future__ import annotations

import base64
import os
import pickle
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.artifacts.canon import design_fingerprint
from repro.hdl.elaborate import ElaboratedDesign
from repro.obs.metrics import get_registry
from repro.runtime.cache import ResultCache, content_key

#: Versions the on-disk elaboration payloads: bump on pickle-incompatible
#: changes to ElaboratedDesign or on parser/elaborator semantic changes.
ELABORATION_VERSION = "repro_artifacts_elaboration/v1"

#: Default in-process LRU bound (entries, not bytes); ``REPRO_ARTIFACT_LRU``
#: overrides it per process.
DEFAULT_LRU_ENTRIES = 128

#: Cached marker for designs the compiled simulator backend rejects, so the
#: (expensive, exception-raising) compile attempt happens once per design.
_UNCOMPILABLE = "uncompilable"


def _lru_bound() -> int:
    raw = os.environ.get("REPRO_ARTIFACT_LRU", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_LRU_ENTRIES


class ArtifactStore:
    """Content-addressed cache of compiled simulators, checkers and designs."""

    def __init__(
        self,
        max_entries: Optional[int] = None,
        disk: Union[ResultCache, Path, str, None] = None,
    ):
        self.max_entries = max_entries if max_entries is not None else _lru_bound()
        if disk is not None and not isinstance(disk, ResultCache):
            disk = ResultCache(disk)
        self.disk: Optional[ResultCache] = disk
        self._lru: "OrderedDict[str, object]" = OrderedDict()
        #: Fingerprints memoised per design *object*, keyed by ``id()`` with a
        #: weakref finalizer evicting the entry when the design dies (designs
        #: are unhashable dataclasses, so WeakKeyDictionary cannot hold them;
        #: the finalizer runs before the id can be reused).  Rendering the
        #: canonical text is cheap next to lowering, but callers fingerprint
        #: the same object several times per verdict.
        self._fingerprints: dict[int, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # the generic keyed LRU
    # ------------------------------------------------------------------ #

    def get(self, key: str):
        """The cached artifact, or ``None`` on a miss (values are never None)."""
        entry = self._lru.get(key)
        if entry is None:
            self.misses += 1
            get_registry().inc("artifact.misses")
            return None
        self._lru.move_to_end(key)
        self.hits += 1
        get_registry().inc("artifact.hits")
        return entry

    def put(self, key: str, value: object) -> None:
        self._lru[key] = value
        self._lru.move_to_end(key)
        while len(self._lru) > self.max_entries:
            self._lru.popitem(last=False)
            self.evictions += 1
            get_registry().inc("artifact.evictions")

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> dict:
        """This instance's traffic counters (process-local, since creation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._lru),
        }

    def fingerprint(self, design: ElaboratedDesign) -> str:
        """:func:`design_fingerprint`, memoised per design object."""
        key = id(design)
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = design_fingerprint(design)
            self._fingerprints[key] = cached
            weakref.finalize(design, self._fingerprints.pop, key, None)
        return cached

    # ------------------------------------------------------------------ #
    # typed helpers: lowered simulators and checkers
    # ------------------------------------------------------------------ #

    def compiled_design(self, design: ElaboratedDesign, base=None):
        """The design lowered for the compiled simulator backend, via the LRU.

        Returns ``None`` when the compiled backend rejects the design (the
        rejection is cached too -- callers fall back to the interpreter
        exactly as the :func:`~repro.sim.engine.Simulator` factory would).
        ``base`` is an optional :class:`~repro.sim.compile.CompiledDesign`
        to relower incrementally against on a miss.
        """
        from repro.sim.compile import CompileError, compile_design

        key = f"sim:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            try:
                entry = compile_design(design, base=base)
            except CompileError:
                entry = _UNCOMPILABLE
            self.put(key, entry)
        return None if entry is _UNCOMPILABLE else entry

    def checker(self, design: ElaboratedDesign, base=None):
        """The compiled assertion checker for ``design``, via the LRU.

        Never fails to construct: an assertion the lowering refuses is
        demoted to the tree-walker and recorded in ``engine_report()``.
        ``base`` is an optional checker to reuse unchanged assertion
        lowerings from on a miss.
        """
        from repro.sva.compile import CompiledAssertionChecker

        key = f"sva:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            entry = CompiledAssertionChecker(design, base=base)
            self.put(key, entry)
        return entry

    def dataflow(self, design: ElaboratedDesign):
        """The design's signal dataflow graph, via the LRU.

        Content-addressed like the other lowered artifacts: two designs
        with equal fingerprints share one graph, so the verifier's screen
        pays graph construction once per base design rather than once per
        candidate.
        """
        from repro.analyze.dfg import SignalDfg

        key = f"dfg:{self.fingerprint(design)}"
        entry = self.get(key)
        if entry is None:
            entry = SignalDfg(design)
            self.put(key, entry)
        return entry

    # ------------------------------------------------------------------ #
    # the on-disk elaboration tier
    # ------------------------------------------------------------------ #

    def elaborate_source(
        self, source: str, persist: bool = True
    ) -> tuple[Optional[ElaboratedDesign], str]:
        """Compile Verilog text to a design, through the on-disk tier if any.

        Returns ``(design, "")`` on success and ``(None, first_error)`` on a
        compile failure, with ``first_error`` rendered exactly as
        :func:`repro.hdl.lint.compile_source` callers render it -- cached
        and fresh paths must produce byte-identical verdict details.

        ``persist=False`` still reads through the disk tier but never writes
        to it: right for one-shot sources (candidate mutants, verified once
        and never seen by another process) where pickling every elaboration
        would cost more than the tier can ever give back.  Base designs --
        the ones mutants are deltas of -- persist.

        Elaborations also live in the in-process LRU keyed by the source
        hash (parse + elaborate dominates the cost of verifying a small
        candidate, so a warm store skips it entirely on repeat sources).
        """
        from repro.hdl.lint import compile_source

        registry = get_registry()
        source_key = f"src:{content_key(ELABORATION_VERSION, source)}"
        cached = self.get(source_key)
        if cached is not None:
            return cached
        key = None
        if self.disk is not None:
            key = content_key(ELABORATION_VERSION, source)
            payload = self.disk.get(key)
            if payload is not None:
                if not payload.get("ok"):
                    registry.inc("artifact.disk.hits")
                    entry = (None, str(payload.get("error", "compilation failed")))
                    self.put(source_key, entry)
                    return entry
                try:
                    design = pickle.loads(base64.b64decode(payload["design"]))
                except Exception:
                    design = None  # corrupt payload: fall through and recompute
                if isinstance(design, ElaboratedDesign):
                    registry.inc("artifact.disk.hits")
                    self.put(source_key, (design, ""))
                    return design, ""
            registry.inc("artifact.disk.misses")
        result = compile_source(source)
        write_through = self.disk is not None and persist
        if not result.ok or result.design is None:
            error = result.errors[0].render() if result.errors else "compilation failed"
            if write_through:
                self.disk.put(key, {"ok": False, "error": error})
            self.put(source_key, (None, error))
            return None, error
        if write_through:
            blob = base64.b64encode(
                pickle.dumps(result.design, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
            self.disk.put(key, {"ok": True, "design": blob})
        self.put(source_key, (result.design, ""))
        return result.design, ""


# --------------------------------------------------------------------------- #
# process-wide stores
# --------------------------------------------------------------------------- #

_PROCESS_STORES: dict[Optional[str], ArtifactStore] = {}


def process_store(disk_dir: Union[Path, str, None] = None) -> ArtifactStore:
    """The per-process shared store for one on-disk tier (or none).

    Worker processes handle many jobs over their lifetime; routing them all
    through one store makes the LRU pay across jobs, and ``disk_dir`` (the
    directory of the shared :class:`~repro.runtime.cache.ResultCache` tier)
    is part of the identity so two harnesses with different tiers never
    alias.
    """
    key = str(disk_dir) if disk_dir is not None else None
    store = _PROCESS_STORES.get(key)
    if store is None:
        store = ArtifactStore(disk=disk_dir)
        _PROCESS_STORES[key] = store
    return store


def default_store() -> ArtifactStore:
    """The process-wide store with no on-disk tier (memory-only)."""
    return process_store(None)
