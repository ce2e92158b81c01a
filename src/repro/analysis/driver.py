"""Analyzer entry points: whole-kernel analysis and the Grover arbiter.

``analyze_kernel`` is the core: static race + staging + divergence
analysis, optionally sharpened by a dynamic trace replay.  ``analyze_app``
runs it over a registered application (launching the kernel at a given
scale to obtain the trace); ``analyze_source`` does the same for an
arbitrary ``.cl`` file with synthetic buffers.  ``differential_check``
is the second arbiter of Grover's legality: the transformed kernel must
analyze race-free, and every candidate Grover *rejected* must carry an
analyzer finding on that same array — two independent code paths
agreeing on which kernels are reversible.

Every entry point emits typed ``analysis_*`` events on the session bus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.ir.function import Function
from repro.ir.types import AddressSpace, PointerType
from repro.runtime.buffers import Memory
from repro.runtime.errors import BarrierDivergenceError, RuntimeLaunchError
from repro.runtime.ndrange import launch
from repro.session import events

from repro.analysis.divergence import analyze_divergence
from repro.analysis.dynamic import apply_replay
from repro.analysis.model import AnalysisReport, Finding, RaceDetected
from repro.analysis.races import KernelFacts, analyze_races_static, check_staging

__all__ = [
    "analyze_kernel",
    "analyzer_veto",
    "analyze_app",
    "analyze_source",
    "differential_check",
    "DifferentialResult",
]


def analyze_kernel(
    fn: Function,
    local_size: Optional[Sequence[int]] = None,
    trace=None,
    extra_findings: Optional[List[Finding]] = None,
    label: Optional[str] = None,
) -> AnalysisReport:
    """Static analysis of ``fn``; a :class:`KernelTrace` sharpens it."""
    mode = "static" if trace is None else "hybrid"
    t0 = time.perf_counter()
    events.emit("analysis_start", kernel=fn.name, mode=mode)
    report = AnalysisReport(fn.name, tuple(local_size) if local_size else None)
    facts = KernelFacts(fn)
    analyze_races_static(fn, local_size, report, facts)
    check_staging(fn, report, facts)
    analyze_divergence(fn, report, facts)
    for f in extra_findings or []:
        report.add(f)
    if trace is not None:
        apply_replay(report, trace, fn, facts)
    for f in report.findings:
        events.emit(
            "analysis_finding",
            kernel=fn.name,
            finding=f.kind,
            space=f.space,
            object=f.obj,
            decided_by=f.decided_by,
            detail=f.detail,
        )
    for d in list(report.deferrals) + list(report.deferrals_resolved):
        events.emit(
            "analysis_deferral",
            kernel=fn.name,
            category=d.category,
            space=d.space,
            object=d.obj,
            a_inst=d.a_inst,
            b_inst=-1 if d.b_inst is None else d.b_inst,
            resolved=d in report.deferrals_resolved,
            why=d.why,
        )
    events.emit(
        "analysis_end",
        kernel=label or fn.name,
        verdict=report.verdict,
        findings=len(report.findings),
        pairs_static=report.pairs_static,
        pairs_dynamic=report.pairs_dynamic,
        pairs_undecided=report.pairs_undecided,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return report


def analyzer_veto(
    fn: Function, local_size: Optional[Sequence[int]], stage: str
) -> AnalysisReport:
    """The analyzer gate around a transformation: raise
    :class:`RaceDetected` on a decided race or barrier divergence in
    ``fn`` (undecided pairs do not block; the report is returned so the
    caller can surface them).  ``local_size`` defaults to the kernel's
    ``reqd_work_group_size``; ``stage`` (``pre-transform``,
    ``post-transform``) is named in the message."""
    report = analyze_kernel(fn, local_size or fn.reqd_work_group_size)
    blocking = report.races + report.divergences
    if blocking:
        raise RaceDetected(
            f"analyzer veto ({stage}) for kernel {fn.name!r}: "
            + "; ".join(f.render() for f in blocking)
        )
    return report


def _divergence_finding(fn: Function, exc: BarrierDivergenceError) -> Finding:
    return Finding(
        kind="barrier-divergence",
        space="cfg",
        obj=fn.name,
        detail=str(exc),
        decided_by="dynamic",
        group_id=getattr(exc, "group_id", None),
        phase=getattr(exc, "phase", None),
    )


# ---------------------------------------------------------------------------
# registered applications
# ---------------------------------------------------------------------------


def _analyze_app_variant(app, variant: str, scale: str, execute: bool,
                         label: str, **grover_kwargs):
    """Compile ``app``'s ``variant``, trace it at ``scale`` when
    ``execute`` (a barrier divergence becomes a finding) and analyze it;
    returns ``(kernel, grover report, analysis report)``."""
    from repro.apps.harness import compile_app, execute_app

    kernel, greport = compile_app(app, variant, **grover_kwargs)
    trace = None
    extra: List[Finding] = []
    if execute:
        try:
            run = execute_app(app, kernel, variant=variant, scale=scale,
                              collect_trace=True)
            trace = run.trace
        except BarrierDivergenceError as exc:
            extra.append(_divergence_finding(kernel, exc))
    report = analyze_kernel(kernel, app.make_problem(scale).local_size, trace,
                            extra_findings=extra, label=label)
    return kernel, greport, report


def analyze_app(
    app_or_id,
    variant: str = "with",
    scale: str = "test",
    execute: bool = True,
) -> AnalysisReport:
    """Analyze one registered app's kernel (optionally traced at ``scale``)."""
    from repro.apps.registry import App, get_app

    app = app_or_id if isinstance(app_or_id, App) else get_app(app_or_id)
    return _analyze_app_variant(
        app, variant, scale, execute, label=f"{app.id}/{variant}"
    )[2]


# ---------------------------------------------------------------------------
# arbitrary sources (the CLI's file mode)
# ---------------------------------------------------------------------------


def analyze_source(
    source: str,
    kernel_name: Optional[str] = None,
    defines: Optional[Dict[str, object]] = None,
    global_size: Optional[Sequence[int]] = None,
    local_size: Optional[Sequence[int]] = None,
    scalar_args: Optional[Dict[str, object]] = None,
    buffer_bytes: Optional[int] = None,
    local_arg_sizes: Optional[Dict[str, int]] = None,
    execute: bool = True,
    label: Optional[str] = None,
) -> AnalysisReport:
    """Compile a ``.cl`` source and analyze one kernel.

    For the dynamic replay, every global pointer argument is bound to a
    synthetic buffer of ``buffer_bytes`` bytes (default: 16 bytes per
    work-item) filled with a deterministic byte pattern; scalar
    arguments come from ``scalar_args``.
    """
    from repro.frontend import compile_kernel

    kernel = compile_kernel(source, kernel_name, defines=defines or {})
    trace = None
    extra: List[Finding] = []
    if execute and global_size and local_size:
        nbytes = buffer_bytes or int(np.prod(tuple(global_size))) * 16
        mem = Memory()
        args: Dict[str, object] = {}
        for a in kernel.args:
            if isinstance(a.type, PointerType):
                if a.type.addrspace == AddressSpace.LOCAL:
                    continue  # bound via local_arg_sizes
                buf = mem.alloc(nbytes, a.name)
                buf.data[:nbytes] = (np.arange(nbytes, dtype=np.int64) % 251).astype(np.uint8)
                args[a.name] = buf
            else:
                if scalar_args is None or a.name not in scalar_args:
                    raise RuntimeLaunchError(
                        f"kernel scalar argument {a.name!r} needs a value "
                        "(pass --arg name=value)"
                    )
                args[a.name] = scalar_args[a.name]
        try:
            res = launch(
                kernel,
                tuple(global_size),
                tuple(local_size),
                args,
                memory=mem,
                local_arg_sizes=local_arg_sizes,
                collect_trace=True,
            )
            trace = res.trace
        except BarrierDivergenceError as exc:
            extra.append(_divergence_finding(kernel, exc))
    return analyze_kernel(
        kernel, local_size, trace, extra_findings=extra, label=label
    )


# ---------------------------------------------------------------------------
# the differential Grover arbiter
# ---------------------------------------------------------------------------


@dataclass
class DifferentialResult:
    """Verdict of the analyzer-vs-Grover cross check on one kernel."""

    kernel: str
    #: candidate names Grover transformed / rejected
    transformed: List[str] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    #: analysis of the original kernel (local memory still in place)
    pre: Optional[AnalysisReport] = None
    #: analysis of the kernel after the transformation
    post: Optional[AnalysisReport] = None
    #: contract violations (empty = the two arbiters agree)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_reports(
    result: DifferentialResult,
) -> DifferentialResult:
    """Apply the differential contract to the filled-in result:

    * a transformed kernel must analyze **race-free** afterwards (the
      transformation may not have introduced an intra-group race);
    * every candidate Grover rejected for irreversibility must carry an
      analyzer finding on that array in the *original* kernel — the
      analyzer independently flags the irreversible access.
    """
    post = result.post
    if result.transformed and post is not None:
        if post.races or post.divergences:
            kinds = sorted({f.kind for f in post.races + post.divergences})
            result.problems.append(
                f"transformed kernel {result.kernel!r} is not race-free "
                f"post-transform: {kinds}"
            )
        elif post.verdict == "undecided":
            result.problems.append(
                f"transformed kernel {result.kernel!r} left "
                f"{post.pairs_undecided} access pair(s) undecided "
                "(no full trace replay)"
            )
    pre = result.pre
    if result.rejected and pre is not None:
        for name in result.rejected:
            if not pre.findings_on(name):
                result.problems.append(
                    f"Grover rejected {name!r} but the analyzer found no "
                    "irreversible access on it"
                )
    return result


def differential_check(
    app_or_id,
    scale: str = "test",
    execute: bool = True,
) -> DifferentialResult:
    """Run the two arbiters over one registered app and cross-check them."""
    from repro.apps.registry import App, get_app

    app = app_or_id if isinstance(app_or_id, App) else get_app(app_or_id)
    # original kernel: analyzed with its local memory in place
    kernel_with, _, pre = _analyze_app_variant(
        app, "with", scale, execute, label=f"{app.id}/pre"
    )
    # transformed kernel: Grover, partial transforms allowed
    _, greport, post = _analyze_app_variant(
        app, "without", scale, execute, label=f"{app.id}/post",
        allow_partial=True,
    )

    result = DifferentialResult(
        kernel=kernel_with.name,
        transformed=[r.name for r in greport.transformed] if greport else [],
        rejected=[r.name for r in greport.rejected] if greport else [],
        pre=pre,
        post=post,
    )
    return check_reports(result)
