"""Barrier elimination: drop synchronisation the analyzer proves redundant.

A ``barrier(CLK_LOCAL_MEM_FENCE)`` orders the staging phase against the
consuming phase.  When the staging is *single-phase* — every work-item
reads back only the local bytes it wrote itself, or the phases touch
disjoint index boxes — the barrier orders nothing, yet still costs a
full work-group round-trip in both the interpreter schedule and the perf
models.

Legality is decided counterfactually by the static race analyzer: for
each barrier, the rule analyzes a copy of the kernel with that barrier
erased and removes the real one only if the copy is provably free of
races and barrier divergence with **zero undecided access pairs** — an
undecided pair means the analyzer could not prove the barrier redundant,
so it stays.  This is the same arbiter that vets the Grover rewrite,
applied per rewrite site instead of per kernel.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from repro.ir.function import Function
from repro.ir.instructions import is_barrier
from repro.rules.base import RewriteRule, RuleContext, register_rule

__all__ = ["BarrierEliminationRule"]


def _barrier_positions(fn: Function) -> List[Tuple[int, int]]:
    """(block index, instruction index) of every barrier, in layout order."""
    out: List[Tuple[int, int]] = []
    for bi, bb in enumerate(fn.blocks):
        for ii, inst in enumerate(bb.instructions):
            if is_barrier(inst):
                out.append((bi, ii))
    return out


def _provably_clean(fn: Function, geometry) -> bool:
    """Race-free, divergence-free, and *fully decided* — the bar a
    counterfactual kernel must clear before its barrier may go."""
    from repro.analysis import analyze_divergence, analyze_races_static
    from repro.analysis.model import AnalysisReport

    report = AnalysisReport(fn.name, tuple(geometry) if geometry else None)
    analyze_races_static(fn, geometry, report)
    analyze_divergence(fn, report)
    return (
        not report.races
        and not report.divergences
        and report.pairs_undecided == 0
    )


class BarrierEliminationRule(RewriteRule):
    """Remove barriers whose absence the race analyzer proves harmless."""

    name = "eliminate-barriers"
    description = (
        "remove barriers proven redundant by the static race analyzer "
        "(single-phase staging; rewrites = barriers removed)"
    )
    legality_arbiter = "counterfactual-race-analysis"
    legality = (
        "a barrier goes only if the kernel with it erased analyzes "
        "race-free and divergence-free with zero undecided access pairs "
        "(per-site application of the Grover veto arbiter)"
    )

    def probe(self, fn: Function, ctx: RuleContext) -> bool:
        return fn.is_kernel and bool(_barrier_positions(fn))

    def apply(self, fn: Function, ctx: RuleContext) -> int:
        if not fn.is_kernel:
            return 0
        geometry = ctx.geometry(fn)
        removed = 0
        # each removal shifts later positions: rescan after every hit
        changed = True
        while changed:
            changed = False
            for bi, ii in _barrier_positions(fn):
                trial = copy.deepcopy(fn)
                trial.blocks[bi].instructions[ii].erase_from_parent()
                if not _provably_clean(trial, geometry):
                    continue
                fn.blocks[bi].instructions[ii].erase_from_parent()
                removed += 1
                changed = True
                break
        return removed


register_rule(BarrierEliminationRule())
