"""Result model of the static/dynamic kernel analyzer.

The analyzer produces :class:`Finding` records — data races, barrier
divergence, and Grover-legality violations (reads of never-staged local
bytes, local stores whose value does not originate in global memory) —
collected into an :class:`AnalysisReport` whose ``verdict`` summarises
one kernel.  Reports render to stable one-line summaries so a golden
file can pin the verdicts of the whole app table (CI's ``analyze`` job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.grover import GroverError

__all__ = [
    "RACE_KINDS",
    "LEGALITY_KINDS",
    "DEFERRAL_CATEGORIES",
    "Finding",
    "Deferral",
    "AnalysisReport",
    "RaceDetected",
]

#: finding kinds that are intra-group data races (or their runtime twin)
RACE_KINDS = ("race-ww", "race-rw", "barrier-divergence")
#: finding kinds that break Grover's reversibility contract without
#: necessarily being races
LEGALITY_KINDS = ("uninit-read", "non-global-staging")
#: why the static pair analysis can decline to decide an access pair
DEFERRAL_CATEGORIES = (
    "non-affine",           # opaque / product-with-id index terms
    "group-uniform-delta",  # offset delta depends on a group-uniform value
    "no-geometry",          # no work-group size to enumerate
    "box-limit",            # index box larger than the enumeration cap
    "guarded",              # access under a thread-id-dependent guard
)


class RaceDetected(GroverError):
    """The analyzer vetoed a transformation (``Session(analyze=True)``)."""


class AnalysisUndecidedWarning(UserWarning):
    """The analyze gate ran but could not decide every access pair —
    typically because no work-group geometry was available.  The
    transform proceeds; the warning keeps the gate from silently
    degrading into a no-op."""


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnosis, attributed to IR instruction ids.

    ``decided_by`` records which arbiter produced it: ``"static"`` (the
    affine pair analysis / divergence analysis) or ``"dynamic"`` (the
    GroupTrace replay).  ``a_inst``/``b_inst`` are instruction ids; for
    single-site findings ``b_inst`` is ``None``.
    """

    kind: str            # 'race-ww' | 'race-rw' | 'barrier-divergence' | ...
    space: str           # 'local' | 'global' | 'cfg'
    obj: str             # array / buffer / function name the finding is on
    detail: str
    decided_by: str      # 'static' | 'dynamic'
    a_inst: Optional[int] = None
    b_inst: Optional[int] = None
    group_id: Optional[Tuple[int, ...]] = None
    phase: Optional[int] = None

    def key(self) -> tuple:
        """Deduplication key: same defect found twice is one finding."""
        pair = tuple(sorted(i for i in (self.a_inst, self.b_inst) if i is not None))
        return (self.kind, self.obj, pair)

    def render(self) -> str:
        where = f" [group {self.group_id}]" if self.group_id is not None else ""
        return f"{self.kind} on {self.space} {self.obj!r} ({self.decided_by}){where}: {self.detail}"


@dataclass(frozen=True)
class Deferral:
    """One access pair the static analysis declined to decide, with a
    machine-readable reason.

    Historically an undecided pair only bumped ``pairs_undecided`` — a
    bare skip a caller could not attribute to anything.  The fuzzer
    oracle (and the CLI report) need to distinguish "deferred because
    the index is non-affine" from "clean": every deferral now carries
    the kernel, the instruction pair, the object, and a ``category``
    from :data:`DEFERRAL_CATEGORIES` plus the human-readable ``why``.
    """

    kernel: str
    category: str        # one of DEFERRAL_CATEGORIES
    why: str
    obj: str             # array / buffer the pair touches
    space: str           # 'local' | 'global'
    a_inst: int
    #: the pair's indices in ``fn.instructions()``, which ``render``
    #: prints: unlike the ids they are the same in every run
    a_pos: int
    b_inst: Optional[int] = None
    b_pos: Optional[int] = None

    def key(self) -> tuple:
        pair = tuple(sorted(i for i in (self.a_inst, self.b_inst) if i is not None))
        return (self.category, self.obj, pair)

    def render(self) -> str:
        pair = f"%{self.a_pos}" + (
            f"/%{self.b_pos}" if self.b_pos is not None else ""
        )
        return (
            f"deferred [{self.category}] {self.space} {self.obj!r} "
            f"({pair}): {self.why}"
        )


@dataclass
class AnalysisReport:
    """Everything the analyzer concluded about one kernel."""

    kernel: str
    local_size: Optional[Tuple[int, ...]] = None
    findings: List[Finding] = field(default_factory=list)
    #: access pairs the affine machinery decided outright
    pairs_static: int = 0
    #: pairs the static analysis could not decide but the trace replay did
    pairs_dynamic: int = 0
    #: pairs neither arbiter decided (no trace available)
    pairs_undecided: int = 0
    #: barriers seen in the kernel body
    barriers: int = 0
    #: True once a full (unsampled) trace replay ran over every group
    replayed: bool = False
    #: statically undecided (Access, Access, reason) triples, kept for the
    #: dynamic replay to resolve (not part of the rendered report)
    undecided: list = field(default_factory=list, repr=False)
    #: structured reasons for the still-undecided pairs (one per pair);
    #: emptied by a full-trace replay, which moves them to
    #: ``deferrals_resolved`` (the pairs were decided dynamically, but
    #: callers like the fuzzer oracle still need the static-time reason)
    deferrals: List["Deferral"] = field(default_factory=list)
    deferrals_resolved: List["Deferral"] = field(default_factory=list)

    def add(self, finding: Finding) -> bool:
        """Record ``finding`` unless an equivalent one exists."""
        seen = {f.key() for f in self.findings}
        if finding.key() in seen:
            return False
        self.findings.append(finding)
        return True

    def add_deferral(self, deferral: "Deferral") -> bool:
        """Record ``deferral`` unless an equivalent one exists."""
        seen = {d.key() for d in self.deferrals}
        if deferral.key() in seen:
            return False
        self.deferrals.append(deferral)
        return True

    def deferrals_on(self, obj: str) -> List["Deferral"]:
        """Every deferral (live or replay-resolved) touching ``obj``."""
        return [
            d
            for d in list(self.deferrals) + list(self.deferrals_resolved)
            if d.obj == obj
        ]

    @property
    def deferral_categories(self) -> List[str]:
        """Sorted unique categories across live + resolved deferrals."""
        return sorted(
            {d.category for d in list(self.deferrals) + list(self.deferrals_resolved)}
        )

    # -- summaries ---------------------------------------------------------
    def of_kind(self, *kinds: str) -> List[Finding]:
        return [f for f in self.findings if f.kind in kinds]

    @property
    def races(self) -> List[Finding]:
        return self.of_kind("race-ww", "race-rw")

    @property
    def divergences(self) -> List[Finding]:
        return self.of_kind("barrier-divergence")

    @property
    def legality(self) -> List[Finding]:
        return self.of_kind(*LEGALITY_KINDS)

    @property
    def verdict(self) -> str:
        """``race`` > ``divergent`` > ``irreversible`` > ``clean``/``undecided``."""
        if self.races:
            return "race"
        if self.divergences:
            return "divergent"
        if self.legality:
            return "irreversible"
        return "clean" if self.pairs_undecided == 0 else "undecided"

    def findings_on(self, obj: str) -> List[Finding]:
        return [f for f in self.findings if f.obj == obj]

    def summary_line(self, label: Optional[str] = None) -> str:
        kinds = ",".join(sorted({f.kind for f in self.findings})) or "-"
        return (
            f"{label or self.kernel:<34} verdict={self.verdict:<12} "
            f"findings={len(self.findings)} kinds={kinds} "
            f"pairs={self.pairs_static}/{self.pairs_dynamic}/{self.pairs_undecided}"
        )

    def __str__(self) -> str:
        lines = [
            f"analysis of {self.kernel!r} "
            f"(local_size={self.local_size}, barriers={self.barriers}): "
            f"verdict={self.verdict}",
            f"  pairs: {self.pairs_static} static, {self.pairs_dynamic} dynamic, "
            f"{self.pairs_undecided} undecided",
        ]
        for f in self.findings:
            lines.append(f"  - {f.render()}")
        for d in self.deferrals:
            lines.append(f"  - {d.render()}")
        return "\n".join(lines)
