"""Loop-invariant global-load hoisting across barrier phases.

The generic LICM pass (``repro.ir.passes``) deliberately never hoists
memory loads — it cannot prove a global buffer unchanged around the
loop.  This rule adds exactly the missing case: a ``__global`` load
inside a loop whose address is loop-invariant and whose underlying
buffer is **never stored to anywhere in the kernel** is the same value
on every iteration, barriers included — re-reading it each trip (often
on both sides of a staging barrier) buys nothing and costs a modelled
memory transaction per iteration.

Legality:

* the root object is a kernel argument with no store to it in the whole
  function — in this runtime's memory model distinct root objects never
  alias (each argument binds its own buffer), which is the same
  object-granular reasoning the race analyzer applies, so no barrier or
  other work-item can change the loaded bytes;
* the address chain is loop-invariant (moving the in-loop pure address
  instructions to the preheader preserves every computed value);
* the load executes on every iteration (its block dominates every back
  edge), so hoisting only changes *when* the first read happens, not
  whether it happens — the one residual caveat is a zero-trip loop,
  where the hoisted load performs a read the original skipped; the
  address is still the in-bounds address of iteration one, and the
  pipeline search's differential runner is the final output arbiter.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.candidates import base_object
from repro.ir.cfg import dominators, natural_loops
from repro.ir.function import Function
from repro.ir.instructions import (
    BinOp,
    Cast,
    GEP,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
)
from repro.ir.types import AddressSpace
from repro.ir.values import Argument
from repro.rules.base import RewriteRule, RuleContext, register_rule

__all__ = ["GlobalLoadHoistRule"]

#: in-loop instruction kinds the address chain may pass through (pure,
#: reorderable value computation — never loads, stores, calls)
_PURE_CHAIN = (BinOp, Cast, GEP, ICmp, Select)


def _stored_arguments(fn: Function) -> Set[Argument]:
    out: Set[Argument] = set()
    for inst in fn.instructions():
        if isinstance(inst, Store):
            root = base_object(inst.ptr)
            if isinstance(root, Argument):
                out.add(root)
    return out


def _invariant_chain(value, loop) -> List[Instruction] | None:
    """The in-loop pure instructions ``value`` depends on, in hoistable
    (operands-first) order — or ``None`` if the chain leaves the pure
    fragment (a load, call, or side effect makes it loop-varying)."""
    chain: List[Instruction] = []
    seen: Set[Instruction] = set()

    def visit(v) -> bool:
        if not isinstance(v, Instruction):
            return True  # argument / constant / local array: invariant
        if v.parent is None or not loop.contains(v.parent):
            return True  # defined outside the loop
        if v in seen:
            return True
        if not isinstance(v, _PURE_CHAIN):
            return False
        if not all(visit(op) for op in v.operands):
            return False
        seen.add(v)
        chain.append(v)
        return True

    return chain if visit(value) else None


class GlobalLoadHoistRule(RewriteRule):
    """Hoist loop-invariant loads of never-written global buffers."""

    name = "hoist-global-loads"
    description = (
        "hoist loop-invariant global loads of never-stored buffers into "
        "the loop preheader (rewrites = loads hoisted)"
    )
    legality_arbiter = "invariance + dominance"
    legality = (
        "root argument never stored to in the kernel (object-granular "
        "non-aliasing, as the race analyzer reasons), address chain "
        "loop-invariant, and the load dominates every back edge"
    )

    def probe(self, fn: Function, ctx: RuleContext) -> bool:
        if not fn.is_kernel or not natural_loops(fn):
            return False
        return any(
            isinstance(inst, Load) and inst.addrspace == AddressSpace.GLOBAL
            for inst in fn.instructions()
        )

    def apply(self, fn: Function, ctx: RuleContext) -> int:
        if not fn.is_kernel:
            return 0
        loops = natural_loops(fn)
        if not loops:
            return 0
        doms = dominators(fn)
        stored = _stored_arguments(fn)
        hoisted = 0
        for loop in loops:  # innermost first: hoist out one level at a time
            pre = loop.preheader
            if pre is None or pre.terminator is None:
                continue
            latches = [
                bb for bb in fn.blocks
                if loop.contains(bb) and loop.header in bb.successors()
            ]
            for bb in [b for b in fn.blocks if loop.contains(b)]:
                for inst in list(bb.instructions):
                    if not isinstance(inst, Load):
                        continue
                    if inst.addrspace != AddressSpace.GLOBAL:
                        continue
                    root = base_object(inst.ptr)
                    if not isinstance(root, Argument) or root in stored:
                        continue
                    if not all(
                        latch is bb or bb in doms.get(latch, ())
                        for latch in latches
                    ):
                        continue  # conditionally executed: leave it
                    chain = _invariant_chain(inst.ptr, loop)
                    if chain is None:
                        continue
                    anchor = pre.terminator
                    for dep in chain:
                        dep.parent.instructions.remove(dep)
                        dep.parent = None
                        pre.insert_before(anchor, dep)
                    inst.parent.instructions.remove(inst)
                    inst.parent = None
                    pre.insert_before(anchor, inst)
                    hoisted += 1
        return hoisted


register_rule(GlobalLoadHoistRule())
