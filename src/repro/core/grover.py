"""The Grover pass driver and its report (paper Sections III-IV).

Typical use::

    from repro.frontend import compile_kernel
    from repro.core import disable_local_memory

    kernel = compile_kernel(SOURCE)
    report = disable_local_memory(kernel)      # mutates the kernel IR
    print(report)                              # Table-III style summary

The pass transforms the kernel in place; keep a ``copy.deepcopy`` of the
kernel (or compile the source twice) to keep both versions around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.affine import AffineContext
from repro.core.candidates import Candidate, find_candidates
from repro.core.dce import cleanup_after_rewrite
from repro.core.exprtree import build_tree
from repro.core.linexpr import LinExpr
from repro.core.linsys import SolveError, Solution, solve_correspondence
from repro.core.patterns import PatternError, determine_data_index
from repro.core.rewrite import (
    RewriteError,
    commit_global_load,
    discard,
    emit_global_load,
    required_lids,
)
from repro.ir.function import Function, Module
from repro.ir.instructions import GEP
from repro.ir.values import LocalArray
from repro.ir.verifier import verify_function


class GroverError(Exception):
    """Base class for pass failures."""


class PatternMismatch(GroverError):
    """The kernel's local memory usage is not the software-cache pattern."""


class NotReversible(GroverError):
    """The correspondence has no unique integral solution (Section III-B S2)."""


@dataclass
class LLRecord:
    """One rewritten local load: the paper's Table III data per access."""

    ll_dims: List[LinExpr]
    solution: Solution
    ngl_index: str

    def render(self) -> str:
        dims = ", ".join(d.render() for d in self.ll_dims)
        return f"LL=({dims})  sol[{self.solution.render()}]  nGL={self.ngl_index}"


@dataclass
class CandidateRecord:
    name: str
    status: str  # 'transformed' | 'rejected'
    reason: str = ""
    gl_index: str = ""
    ls_dims: List[LinExpr] = field(default_factory=list)
    lls: List[LLRecord] = field(default_factory=list)

    @property
    def transformed(self) -> bool:
        return self.status == "transformed"


@dataclass
class GroverReport:
    """Result of one pass invocation over one kernel."""

    kernel: str
    records: List[CandidateRecord] = field(default_factory=list)
    cleanup_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def transformed(self) -> List[CandidateRecord]:
        return [r for r in self.records if r.transformed]

    @property
    def rejected(self) -> List[CandidateRecord]:
        return [r for r in self.records if not r.transformed]

    @property
    def fully_disabled(self) -> bool:
        return bool(self.records) and all(r.transformed for r in self.records)

    def record(self, name: str) -> CandidateRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def __str__(self) -> str:
        lines = [f"Grover report for kernel {self.kernel!r}:"]
        for r in self.records:
            if r.transformed:
                lines.append(f"  [ok] {r.name}:")
                lines.append(f"       GL = {r.gl_index}")
                lines.append(
                    "       LS = (" + ", ".join(d.render() for d in r.ls_dims) + ")"
                )
                for ll in r.lls:
                    lines.append(f"       {ll.render()}")
            else:
                lines.append(f"  [--] {r.name}: {r.reason}")
        if self.cleanup_stats:
            lines.append(f"  cleanup: {self.cleanup_stats}")
        return "\n".join(lines)


class GroverPass:
    """Automatically remove local-memory usage from a kernel.

    Parameters
    ----------
    arrays:
        Restrict the transformation to the named local data structures
        (``None`` = all of them).  This reproduces the paper's
        NVD-MM-A / NVD-MM-B / NVD-MM-AB selective-removal experiments.
    strict_patterns:
        Only accept the plain ``+ -> *`` index pattern (disables the
        derived ``+ -> + -> *`` handling of Fig. 7(b)); ablation knob.
    reuse_subexprs:
        Reuse unmarked sub-expressions per Algorithm 1; with ``False``
        every index instruction is cloned (ablation knob).
    remove_barriers:
        Strip barriers once no local accesses remain (the paper does).
    allow_partial:
        When ``True``, candidates that cannot be reversed are skipped
        and recorded instead of raising.
    """

    def __init__(
        self,
        arrays: Optional[Sequence[str]] = None,
        strict_patterns: bool = False,
        reuse_subexprs: bool = True,
        remove_barriers: bool = True,
        allow_partial: bool = False,
    ) -> None:
        self.arrays = list(arrays) if arrays is not None else None
        self.strict_patterns = strict_patterns
        self.reuse_subexprs = reuse_subexprs
        self.remove_barriers = remove_barriers
        self.allow_partial = allow_partial

    # -- analysis helpers ------------------------------------------------------
    def _access_dims(self, ctx: AffineContext, ptr, strides=None):
        if isinstance(ptr, GEP):
            return determine_data_index(
                ctx, ptr, strict=self.strict_patterns, strides=strides
            )
        # direct dereference of the base pointer: single dim, index 0
        return [LinExpr.constant(0)], []

    # -- main entry point ---------------------------------------------------------
    def run(self, kernel: Function) -> GroverReport:
        import time

        from repro.session import events

        if not kernel.is_kernel:
            raise GroverError(f"{kernel.name} is not a kernel")
        t0 = time.perf_counter()
        events.emit("grover_start", kernel=kernel.name)
        report = GroverReport(kernel.name)
        ctx = AffineContext(kernel)

        candidates, rejections = find_candidates(kernel, self.arrays)
        for rej in rejections:
            rec = CandidateRecord(rej.name, "rejected", rej.reason)
            report.records.append(rec)
            events.emit(
                "grover_candidate",
                kernel=kernel.name,
                name=rej.name,
                status="rejected",
                reason=rej.reason,
            )
            if not self.allow_partial:
                raise PatternMismatch(f"{rej.name}: {rej.reason}")
        if not candidates and not rejections:
            raise PatternMismatch(
                f"kernel {kernel.name} does not use local memory"
            )

        removed_arrays: List[LocalArray] = []
        for cand in candidates:
            try:
                rec = self._reverse_candidate(kernel, ctx, cand)
            except (PatternError, SolveError, RewriteError) as exc:
                rec = CandidateRecord(cand.name, "rejected", str(exc))
                report.records.append(rec)
                events.emit(
                    "grover_candidate",
                    kernel=kernel.name,
                    name=cand.name,
                    status="rejected",
                    reason=str(exc),
                )
                if not self.allow_partial:
                    raise NotReversible(f"{cand.name}: {exc}") from exc
                continue
            report.records.append(rec)
            events.emit(
                "grover_candidate",
                kernel=kernel.name,
                name=cand.name,
                status="transformed",
                reason="",
            )
            if isinstance(cand.array, LocalArray):
                removed_arrays.append(cand.array)

        if report.transformed:
            report.cleanup_stats = cleanup_after_rewrite(
                kernel, removed_arrays, strip_barriers=self.remove_barriers
            )
            # the vendor runtime recompiles the SPIR (paper Fig. 9):
            # normalise/CSE/hoist the freshly materialised index arithmetic
            from repro.session.passes import run_pipeline

            run_pipeline(kernel)
        verify_function(kernel)
        events.emit(
            "grover_end",
            kernel=kernel.name,
            transformed=len(report.transformed),
            rejected=len(report.rejected),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        return report

    def _reverse_candidate(
        self, kernel: Function, ctx: AffineContext, cand: Candidate
    ) -> CandidateRecord:
        """Steps S1-S4 of Section III-B for one local data structure."""
        # S1: data indices of LS (unknowns side); the LS access fixes the
        # dimension-splitting strides used for every LL of this array
        ls_dims, ls_strides = self._access_dims(ctx, cand.ls.ptr)
        gl_tree = build_tree(cand.gl.ptr)
        needed = required_lids(gl_tree)
        gl_str = gl_tree.render()

        rec = CandidateRecord(
            cand.name, "transformed", gl_index=gl_str, ls_dims=ls_dims
        )
        solved = []
        for ll in list(cand.lls):
            # S1: data index of this LL (constants side)
            ll_dims, _ = self._access_dims(ctx, ll.ptr, strides=ls_strides)
            # S2: create and solve the linear system
            sol = solve_correspondence(ls_dims, ll_dims, required=needed)
            solved.append((ll, ll_dims, sol))
        # S3 + S4: substitute into G and emit every nGL before any LL is
        # replaced, so a candidate that fails leaves the IR untouched
        chains = []
        try:
            for ll, _, sol in solved:
                chains.append(emit_global_load(
                    kernel, cand, ll, sol, reuse_subexprs=self.reuse_subexprs
                ))
        except RewriteError:
            for chain in chains:
                discard(chain)
            raise
        for (ll, ll_dims, sol), chain in zip(solved, chains):
            ngl = commit_global_load(ll, chain)
            rec.lls.append(
                LLRecord(
                    ll_dims=ll_dims,
                    solution=sol,
                    ngl_index=build_tree(ngl.ptr).render(),
                )
            )
        return rec


def disable_local_memory(
    kernel_or_module: Union[Function, Module],
    kernel_name: Optional[str] = None,
    **kwargs,
) -> GroverReport:
    """Convenience wrapper: run :class:`GroverPass` on a kernel in place.

    Thin shim over :meth:`repro.session.Session.disable_local_memory`
    (the current session supplies configuration and the event bus).
    """
    from repro.session import current_session

    return current_session().disable_local_memory(
        kernel_or_module, kernel_name, **kwargs
    )
