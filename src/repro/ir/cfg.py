"""Control-flow-graph utilities: orders, dominators, post-dominators.

The SIMT interpreter schedules divergent work-items in reverse post-order
(which reconverges masks at join points of reducible CFGs), and the Grover
rewrite uses dominance to decide whether a sub-expression of the ``GL``
index tree can be *reused* at the ``LL`` site or must be cloned
(Algorithm 1's state-marked nodes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Instruction, Ret


def successors(block: BasicBlock) -> List[BasicBlock]:
    return block.successors()


def predecessors(fn: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    preds: Dict[BasicBlock, List[BasicBlock]] = {bb: [] for bb in fn.blocks}
    for bb in fn.blocks:
        for succ in bb.successors():
            preds[succ].append(bb)
    return preds


def postorder(fn: Function) -> List[BasicBlock]:
    """DFS post-order from the entry block (unreachable blocks excluded)."""
    seen: Set[BasicBlock] = set()
    out: List[BasicBlock] = []

    def visit(bb: BasicBlock) -> None:
        seen.add(bb)
        for succ in bb.successors():
            if succ not in seen:
                visit(succ)
        out.append(bb)

    if fn.blocks:
        visit(fn.entry)
    return out


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    return list(reversed(postorder(fn)))


def immediate_dominators(fn: Function) -> Dict[BasicBlock, Optional[BasicBlock]]:
    """Cooper–Harvey–Kennedy iterative dominator algorithm."""
    rpo = reverse_postorder(fn)
    index = {bb: i for i, bb in enumerate(rpo)}
    preds = predecessors(fn)
    idom: Dict[BasicBlock, Optional[BasicBlock]] = {bb: None for bb in rpo}
    entry = fn.entry
    idom[entry] = entry

    def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for bb in rpo:
            if bb is entry:
                continue
            candidates = [p for p in preds[bb] if idom.get(p) is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(p, new_idom)
            if idom[bb] is not new_idom:
                idom[bb] = new_idom
                changed = True
    idom[entry] = None
    return idom


def dominators(fn: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Full dominator sets (block -> set of blocks dominating it, incl. itself)."""
    idom = immediate_dominators(fn)
    doms: Dict[BasicBlock, Set[BasicBlock]] = {}
    for bb in idom:
        chain: Set[BasicBlock] = {bb}
        cur = idom[bb]
        while cur is not None:
            chain.add(cur)
            cur = idom[cur]
        doms[bb] = chain
    return doms


def block_dominates(doms: Dict[BasicBlock, Set[BasicBlock]], a: BasicBlock, b: BasicBlock) -> bool:
    return a in doms[b]


def inst_dominates(doms: Dict[BasicBlock, Set[BasicBlock]], a: Instruction, b: Instruction) -> bool:
    """Does instruction ``a`` dominate instruction ``b``?"""
    ba, bb_ = a.parent, b.parent
    assert ba is not None and bb_ is not None
    if ba is bb_:
        insts = ba.instructions
        return insts.index(a) < insts.index(b)
    return block_dominates(doms, ba, bb_)


def post_dominators(fn: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Full post-dominator sets (block -> blocks post-dominating it).

    Computed over the reverse CFG with every ``ret`` block as an exit
    (a virtual exit node is implied by seeding exit blocks with
    themselves).  Blocks that cannot reach an exit — only possible for
    an infinite loop — keep the full block set, i.e. everything
    vacuously post-dominates them, which is the conservative answer for
    the divergence analysis built on top.
    """
    blocks = list(fn.blocks)
    universe = set(blocks)
    exits = {bb for bb in blocks if isinstance(bb.terminator, Ret)}
    pdom: Dict[BasicBlock, Set[BasicBlock]] = {
        bb: ({bb} if bb in exits else set(universe)) for bb in blocks
    }
    changed = True
    while changed:
        changed = False
        for bb in reversed(blocks):
            if bb in exits:
                continue
            succs = bb.successors()
            if not succs:
                continue
            new = set.intersection(*(pdom[s] for s in succs))
            new.add(bb)
            if new != pdom[bb]:
                pdom[bb] = new
                changed = True
    return pdom


def back_edges(fn: Function) -> List[tuple]:
    """(tail, head) pairs where head dominates tail — natural loop back edges."""
    doms = dominators(fn)
    out = []
    for bb in fn.blocks:
        for succ in bb.successors():
            if succ in doms[bb]:
                out.append((bb, succ))
    return out


def loop_headers(fn: Function) -> Set[BasicBlock]:
    return {head for _, head in back_edges(fn)}


def natural_loops(fn: Function) -> List["Loop"]:
    """Natural loops, one per header (merged back edges), innermost first."""
    preds = predecessors(fn)
    by_header: Dict[BasicBlock, Set[BasicBlock]] = {}
    for tail, head in back_edges(fn):
        body = by_header.setdefault(head, {head})
        # nodes that reach `tail` without passing through `head`
        stack = [tail]
        while stack:
            bb = stack.pop()
            if bb in body:
                continue
            body.add(bb)
            stack.extend(p for p in preds[bb] if p not in body)
    loops = [Loop(h, body, preds) for h, body in by_header.items()]
    loops.sort(key=lambda l: len(l.body))
    return loops


class Loop:
    """A natural loop: header + body blocks (+ its unique preheader if any)."""

    def __init__(
        self,
        header: BasicBlock,
        body: Set[BasicBlock],
        preds: Dict[BasicBlock, List[BasicBlock]],
    ) -> None:
        self.header = header
        self.body = body
        outside = [p for p in preds[header] if p not in body]
        #: the unique out-of-loop predecessor of the header, if it exists
        self.preheader: Optional[BasicBlock] = (
            outside[0] if len(outside) == 1 else None
        )

    def contains(self, bb: BasicBlock) -> bool:
        return bb in self.body

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Loop header={self.header.name} blocks={len(self.body)}>"
