"""Static race & barrier-divergence analyzer (the second Grover arbiter).

The package checks, independently of :mod:`repro.core.grover`, whether a
kernel's ``__local``/``__global`` accesses are free of intra-group data
races and barrier divergence, and whether every local byte a kernel
reads was staged from global memory — the exact properties Grover's
reversibility argument rests on.  Static affine analysis decides most
access pairs; a dynamic replay of the interpreter's traces resolves the
rest.  See DESIGN.md §11.
"""

from repro.analysis.divergence import (
    analyze_divergence,
    find_divergent_barriers,
    uniform_analysis,
)
from repro.analysis.driver import (
    DifferentialResult,
    analyze_app,
    analyze_kernel,
    analyze_source,
    analyzer_veto,
    differential_check,
)
from repro.analysis.dynamic import apply_replay, replay_trace
from repro.analysis.model import (
    DEFERRAL_CATEGORIES,
    LEGALITY_KINDS,
    RACE_KINDS,
    AnalysisReport,
    AnalysisUndecidedWarning,
    Deferral,
    Finding,
    RaceDetected,
)
from repro.analysis.races import (
    KernelFacts,
    analyze_races_static,
    check_staging,
    collect_accesses,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Deferral",
    "RaceDetected",
    "AnalysisUndecidedWarning",
    "RACE_KINDS",
    "LEGALITY_KINDS",
    "DEFERRAL_CATEGORIES",
    "analyze_kernel",
    "analyzer_veto",
    "analyze_app",
    "analyze_source",
    "differential_check",
    "DifferentialResult",
    "KernelFacts",
    "analyze_races_static",
    "check_staging",
    "collect_accesses",
    "analyze_divergence",
    "find_divergent_barriers",
    "uniform_analysis",
    "apply_replay",
    "replay_trace",
]
