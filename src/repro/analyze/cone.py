"""Assertion cone-of-influence screening for candidate repairs.

Given a base (buggy) design and a patched candidate, :func:`edit_impact`
computes the set of signals whose driving logic the edit changes, via the
ISSUE-8 per-node content keys: a node present in only one of the two
designs is "changed", and the union of def sets of changed nodes over both
designs over-approximates every signal whose driver differs.

:func:`cone_screen` then proves, when it can, that the candidate's verdict
must equal the base design's verdict so the verifier may skip simulation
(``cone_skip``).  The proof obligations, all checked structurally:

1. **Same observation points.** Signal tables (names, widths, kinds,
   signedness, declared ranges), parameters and assertion content keys are
   identical.  Identical signal tables also pin the stimulus: the stimulus
   generator reads only the input-port table, so both designs receive
   byte-identical input vectors for any seed.
2. **Same clock.** The simulator's clock detection reads the global
   clock-candidate list, so both designs must agree on it.
3. **No static combinational cycles in either design.**  The only
   data-dependent simulation error is settle non-convergence, which a
   cycle-free combinational dependency graph rules out; hence an edit that
   assertions cannot observe also cannot introduce or remove simulation
   errors.
4. **Edit disjoint from every assertion cone.**  Assertion cones are
   transitive fan-ins of the property body *plus* the clocking signal and
   ``disable iff`` identifiers, computed on the base design.  Any path from
   a changed definition to a cone signal would have to enter through an
   *unchanged* node's edge; that edge exists in the base graph too, so the
   changed definition would itself be in the base cone.  Checking
   ``changed_defs ∩ base_cone == ∅`` is therefore sound on its own.

Adversarial edits fall out of these checks automatically: parameter edits
fail (1); clock, reset and ``disable iff`` drivers are inside every cone
they matter to, so edits to them fail (4); assertion edits change assertion
keys and fail (1).

:func:`lint_screen` is the *unsound but validated* tier used by
``static_screen="full"``: it rejects candidates that introduce new
error-class structural breakage relative to the base design -- currently a
signal newly left undriven while still read inside an assertion cone.  The
screened benchmark leg hard-fails if a lint rejection ever disagrees with
ground-truth simulation (a rejected candidate whose unscreened verdict was
a confirmed repair).  Newly *introduced combinational loops* are
deliberately NOT rejected here: a loop that settles (``a = a | b``)
simulates to a genuine pass, so rejecting it statically would diverge.
The cone tier already refuses to **skip** such candidates -- which is all
soundness requires -- and they take the normal simulation path, where
non-settling loops surface as ``sim_error`` on their own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.analyze.dfg import SignalDfg
from repro.artifacts.canon import assertion_key
from repro.hdl.elaborate import ElaboratedDesign


def _signal_table(design: ElaboratedDesign) -> tuple[tuple[str, int, str, bool, int, int], ...]:
    return tuple(
        (s.name, s.width, s.kind, s.signed, s.msb, s.lsb)
        for s in (design.signals[name] for name in sorted(design.signals))
    )


@dataclass(frozen=True)
class EditImpact:
    """The signals whose driving logic differs between base and patched."""

    comparable: bool  # structurally comparable designs (see cone_screen rule 1/2)
    reason: str  # why not comparable, empty when comparable
    changed_signals: tuple[str, ...] = ()


def edit_impact(base: SignalDfg, patched: SignalDfg) -> EditImpact:
    """Diff two designs at node-key granularity into a changed-signal set."""
    if _signal_table(base.design) != _signal_table(patched.design):
        return EditImpact(False, "signal tables differ")
    if base.design.parameters != patched.design.parameters:
        return EditImpact(False, "parameters differ")
    base_assertions = [assertion_key(spec) for spec in base.design.assertions]
    patched_assertions = [assertion_key(spec) for spec in patched.design.assertions]
    if base_assertions != patched_assertions:
        return EditImpact(False, "assertions differ")
    if base.design.clock_candidates() != patched.design.clock_candidates():
        return EditImpact(False, "clock candidates differ")
    base_keys = base.node_keys()
    patched_keys = patched.node_keys()
    changed = {
        key
        for key in set(base_keys) | set(patched_keys)
        if base_keys.get(key, 0) != patched_keys.get(key, 0)
    }
    changed_defs: set[str] = set()
    for dfg in (base, patched):
        for node in dfg.nodes:
            if node.key in changed:
                changed_defs |= node.defs
    return EditImpact(True, "", tuple(sorted(changed_defs)))


@dataclass(frozen=True)
class ScreenDecision:
    """Outcome of the cone screen for one candidate."""

    skip: bool  # True: base verdict provably equals the candidate's verdict
    reason: str
    changed_signals: tuple[str, ...] = ()
    overlap: tuple[str, ...] = ()  # changed signals inside some assertion cone


#: Union cone per graph; the store shares one graph per design fingerprint,
#: and the screen asks for the base's union once per candidate.
_UNION_CONES: "weakref.WeakKeyDictionary[SignalDfg, frozenset[str]]" = (
    weakref.WeakKeyDictionary()
)


def union_assertion_cone(dfg: SignalDfg) -> frozenset[str]:
    """Union of every checked assertion's cone of influence."""
    cone = _UNION_CONES.get(dfg)
    if cone is None:
        union: set[str] = set()
        for signals in dfg.assertion_cones().values():
            union |= signals
        cone = _UNION_CONES[dfg] = frozenset(union)
    return cone


def cone_screen(base: SignalDfg, patched: SignalDfg) -> ScreenDecision:
    """Decide whether the candidate's verdict provably equals the base's."""
    impact = edit_impact(base, patched)
    if not impact.comparable:
        return ScreenDecision(False, impact.reason)
    if base.combinational_cycles():
        return ScreenDecision(
            False, "base design has a combinational loop", impact.changed_signals
        )
    if patched.combinational_cycles():
        return ScreenDecision(
            False, "candidate introduces a combinational loop", impact.changed_signals
        )
    cone = union_assertion_cone(base)
    overlap = tuple(sorted(set(impact.changed_signals) & cone))
    if overlap:
        return ScreenDecision(
            False, "edit reaches an assertion cone", impact.changed_signals, overlap
        )
    return ScreenDecision(
        True, "edit disjoint from every assertion cone", impact.changed_signals
    )


def cone_overlap(dfg: SignalDfg, signals: "frozenset[str] | set[str]") -> frozenset[str]:
    """The subset of ``signals`` inside some assertion's cone of influence."""
    return frozenset(signals) & union_assertion_cone(dfg)


@dataclass(frozen=True)
class LintRejection:
    """One reason the lint screen rejects a candidate without simulating."""

    code: str
    message: str


def _undriven_in_cone(dfg: SignalDfg) -> set[str]:
    """Non-input signals with no driving node that feed an assertion cone."""
    cone = union_assertion_cone(dfg)
    undriven: set[str] = set()
    for name, signal in dfg.design.signals.items():
        if signal.is_input or name in dfg.defs_of:
            continue
        if name in cone:
            undriven.add(name)
    return undriven


def lint_screen(base: SignalDfg, patched: SignalDfg) -> tuple[LintRejection, ...]:
    """Candidate-introduced structural breakage, relative to the base design.

    Only defects *absent from the base* count, so a pre-existing quirk of
    the buggy design can never reject its own candidates.  Introduced
    combinational loops are intentionally not rejected (see the module
    docstring): a settling loop simulates to a real verdict, and the cone
    tier already declines to skip loop-introducing candidates.
    """
    rejections: list[LintRejection] = []
    base_undriven = _undriven_in_cone(base)
    for name in sorted(_undriven_in_cone(patched) - base_undriven):
        rejections.append(
            LintRejection(
                code="undriven-used",
                message=f"candidate leaves signal '{name}' undriven"
                " inside an assertion cone",
            )
        )
    return tuple(rejections)


__all__ = [
    "EditImpact",
    "LintRejection",
    "ScreenDecision",
    "cone_overlap",
    "cone_screen",
    "edit_impact",
    "lint_screen",
    "union_assertion_cone",
]
