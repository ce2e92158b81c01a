"""Static barrier-divergence analysis.

OpenCL requires that every work-item of a work-group reach each
``barrier`` the same number of times; a barrier that is
control-dependent on a *thread-id-dependent* branch violates that (the
interpreter catches the violation at runtime —
:class:`~repro.runtime.errors.BarrierDivergenceError`; this module
proves it before any launch).

The analysis has two halves:

* **Uniformity**: a fixed point classifying every IR value as uniform
  (identical across the work-items of a group: constants, arguments,
  ``get_group_id``/``get_local_size``/... , and pure ops over uniform
  inputs) or varying (``get_local_id``/``get_global_id``, loads from
  memory, and anything derived from them).  Stack slots are uniform only
  if every store to them stores a uniform value *from a uniformly
  executed block* — the mutual recursion with control flow is resolved
  by iterating both halves to a joint fixed point.
* **Control dependence**: block ``B`` executes non-uniformly if some
  varying conditional branch ``X`` reaches ``B`` and ``B`` does not
  post-dominate ``X``'s block (work-items that take the other edge may
  never arrive).  A ``barrier`` in such a block is a divergence finding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import post_dominators
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Call,
    CondBr,
    Instruction,
    Load,
    Store,
    is_barrier,
)

from repro.analysis.model import AnalysisReport, Finding
from repro.analysis.races import KernelFacts

__all__ = ["uniform_analysis", "find_divergent_barriers", "analyze_divergence"]

#: builtins whose result differs between work-items of one group
_VARYING_CALLS = {"get_local_id", "get_global_id"}
#: builtins whose result is identical across a work-group
_UNIFORM_CALLS = {
    "get_group_id",
    "get_local_size",
    "get_global_size",
    "get_num_groups",
    "get_work_dim",
    "get_global_offset",
}


def _reachable(fn: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """blocks reachable from each block through one or more CFG edges."""
    succ = {bb: list(bb.successors()) for bb in fn.blocks}
    out: Dict[BasicBlock, Set[BasicBlock]] = {}
    for start in fn.blocks:
        seen: Set[BasicBlock] = set()
        stack = list(succ[start])
        while stack:
            bb = stack.pop()
            if bb in seen:
                continue
            seen.add(bb)
            stack.extend(succ[bb])
        out[start] = seen
    return out


def uniform_analysis(
    fn: Function,
) -> Tuple[Set[Instruction], Dict[BasicBlock, Optional[Instruction]]]:
    """Joint fixed point of value uniformity and block uniformity.

    Returns ``(varying_values, nonuniform_blocks)`` where
    ``nonuniform_blocks`` maps each non-uniformly-executed block to a
    witness: the varying conditional branch it is control-dependent on.
    """
    pdom = post_dominators(fn)
    reach = _reachable(fn)
    slot_stores: Dict[Alloca, List[Store]] = {}
    for inst in fn.instructions():
        if isinstance(inst, Store) and isinstance(inst.ptr, Alloca):
            slot_stores.setdefault(inst.ptr, []).append(inst)

    varying: Set[Instruction] = set()
    nonuniform: Dict[BasicBlock, Optional[Instruction]] = {}

    def value_varying(v) -> bool:
        return isinstance(v, Instruction) and v in varying

    changed = True
    while changed:
        changed = False
        # control half: which blocks execute non-uniformly right now?
        for bb in fn.blocks:
            term = bb.terminator
            if not isinstance(term, CondBr) or not value_varying(term.cond):
                continue
            for target in reach[bb]:
                if target not in pdom[bb] and target not in nonuniform:
                    nonuniform[target] = term
                    changed = True
        # data half
        for inst in fn.instructions():
            if inst in varying:
                continue
            if isinstance(inst, Call):
                if inst.callee in _VARYING_CALLS:
                    v = True
                elif inst.callee in _UNIFORM_CALLS or is_barrier(inst):
                    v = False
                else:  # math builtins etc.: uniform iff inputs are
                    v = any(value_varying(a) for a in inst.operands)
            elif isinstance(inst, Load):
                if isinstance(inst.ptr, Alloca):
                    stores = slot_stores.get(inst.ptr, [])
                    v = any(
                        value_varying(st.value) or st.parent in nonuniform
                        for st in stores
                    )
                else:
                    v = True  # data loaded from memory may differ per lane
            elif isinstance(inst, Alloca):
                v = False
            else:
                v = any(value_varying(op) for op in inst.operands)
            if v:
                varying.add(inst)
                changed = True
    return varying, nonuniform


def find_divergent_barriers(
    fn: Function, facts: Optional[KernelFacts] = None
) -> List[Tuple[Call, Instruction]]:
    """(barrier, witness varying branch) pairs, in program order."""
    nonuniform = (facts or KernelFacts(fn)).nonuniform
    out: List[Tuple[Call, Instruction]] = []
    for bb in fn.blocks:
        witness = nonuniform.get(bb)
        if witness is None:
            continue
        for inst in bb.instructions:
            if is_barrier(inst):
                out.append((inst, witness))
    return out


def analyze_divergence(
    fn: Function,
    report: Optional[AnalysisReport] = None,
    facts: Optional[KernelFacts] = None,
) -> AnalysisReport:
    report = report or AnalysisReport(fn.name)
    facts = facts or KernelFacts(fn)
    for barrier, branch in find_divergent_barriers(fn, facts):
        assert barrier.parent is not None and branch.parent is not None
        report.add(
            Finding(
                kind="barrier-divergence",
                space="cfg",
                obj=fn.name,
                detail=(
                    f"barrier %{facts.positions[barrier.id]} in block "
                    f"{barrier.parent.name!r} is "
                    f"control-dependent on the thread-id-dependent branch in "
                    f"block {branch.parent.name!r}; work-items taking the other "
                    "edge never reach it"
                ),
                decided_by="static",
                a_inst=barrier.id,
                b_inst=branch.id,
            )
        )
    return report
