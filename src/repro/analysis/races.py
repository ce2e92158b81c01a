"""Static intra-group data-race analysis over the affine index machinery.

Two work-items of one work-group race when they touch overlapping bytes
of the same ``__local`` or ``__global`` object, at least one access is a
store, and no barrier separates the accesses.  This module decides that
question *statically* for the kernel class the paper targets:

1. The kernel body is cut into **barrier segments** (a block is split at
   every ``barrier`` call).  Two segments that are connected by plain
   control-flow edges — never crossing a barrier — can execute
   concurrently for different work-items, so they form one **phase
   region** (connected components of the segment graph, undirected,
   because work-items of a group proceed independently between
   barriers).
2. Every local/global access is abstracted as an exact byte-offset
   :class:`~repro.core.linexpr.LinExpr` using the very
   :class:`~repro.core.affine.AffineContext` the Grover solver uses
   (Equation 2 of the paper).
3. For each pair of same-region, same-object accesses with at least one
   store, the offsets are split into a per-work-item part (terms in the
   local id), a group-uniform part (group id / sizes / scalar
   arguments) and the rest.  When the group-uniform parts cancel and
   the per-work-item parts have known coefficients, the pair is decided
   *exactly* by enumerating the work-group index box (bounded, so this
   is a decision procedure, not a heuristic).  Anything else —
   loop-counter ("slot") indices, opaque values, symbolic strides — is
   reported *undecided* and left to the dynamic trace replay
   (:mod:`repro.analysis.dynamic`).

Distinct pointer *arguments* are assumed not to alias (the OpenCL
kernels of the paper never pass the same buffer twice); the dynamic
replay works on concrete buffer ids and needs no such assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.affine import AffineContext
from repro.core.candidates import strip_casts
from repro.core.linexpr import ONE, LinExpr, Symbol, lid, render_symbol, wid
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    GEP,
    Cast,
    Instruction,
    Load,
    Store,
    is_barrier,
)
from repro.ir.types import AddressSpace
from repro.ir.values import Value

from repro.analysis.model import AnalysisReport, Deferral, Finding

__all__ = [
    "Access",
    "KernelFacts",
    "PairDecision",
    "collect_accesses",
    "phase_regions",
    "decide_pair",
    "analyze_races_static",
    "check_staging",
]

#: largest work-group index box the exact enumeration will walk
BOX_LIMIT = 4096

_SPACE_NAMES = {AddressSpace.LOCAL: "local", AddressSpace.GLOBAL: "global"}


# ---------------------------------------------------------------------------
# phase regions
# ---------------------------------------------------------------------------


def phase_regions(fn: Function) -> Tuple[Dict[Instruction, int], int]:
    """Map every non-barrier instruction to its phase-region id.

    Returns ``(region_of_inst, barrier_count)``.  Region ids are dense
    and deterministic (ordered by first appearance in block order).
    """
    # segment nodes: (block, k) = the k-th barrier-free run of the block
    seg_of_inst: Dict[Instruction, Tuple[BasicBlock, int]] = {}
    last_seg: Dict[BasicBlock, int] = {}
    barriers = 0
    for bb in fn.blocks:
        k = 0
        for inst in bb.instructions:
            if is_barrier(inst):
                k += 1
                barriers += 1
            else:
                seg_of_inst[inst] = (bb, k)
        last_seg[bb] = k

    # union-find over segments; plain CFG edges connect the last segment
    # of a block to the first segment of each successor
    parent: Dict[Tuple[BasicBlock, int], Tuple[BasicBlock, int]] = {}

    def find(x):
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for bb in fn.blocks:
        for k in range(last_seg[bb] + 1):
            find((bb, k))
        for succ in bb.successors():
            union((bb, last_seg[bb]), (succ, 0))

    region_ids: Dict[Tuple[BasicBlock, int], int] = {}
    region_of_inst: Dict[Instruction, int] = {}
    for bb in fn.blocks:
        for inst in bb.instructions:
            seg = seg_of_inst.get(inst)
            if seg is None:
                continue
            root = find(seg)
            region_of_inst[inst] = region_ids.setdefault(root, len(region_ids))
    return region_of_inst, barriers


# ---------------------------------------------------------------------------
# access collection
# ---------------------------------------------------------------------------


@dataclass
class Access:
    """One static local/global memory access site."""

    inst: Instruction
    is_store: bool
    space: AddressSpace
    base: Optional[Value]
    offset: LinExpr          # byte offset from the base object
    elem_size: int
    region: int
    #: ``inst``'s index in ``fn.instructions()``: the handle reports print
    pos: int

    @property
    def obj_name(self) -> str:
        if self.base is None:
            return "?"
        return getattr(self.base, "name", None) or str(self.base)

    def describe(self) -> str:
        verb = "store" if self.is_store else "load"
        return (
            f"{verb} {self.obj_name}[byte {self.offset.render()}] "
            f"(%{self.pos}, {self.elem_size}B)"
        )


def _pointer_offset(ctx: AffineContext, ptr: Value) -> Tuple[Optional[Value], LinExpr]:
    """Root object and exact byte offset of a pointer value."""
    off = LinExpr.zero()
    for _ in range(64):
        if isinstance(ptr, GEP):
            for idx, stride in zip(ptr.indices, ptr.strides()):
                off = off + ctx.to_linexpr(idx).scale(stride)
            ptr = ptr.base
        elif isinstance(ptr, Cast):
            ptr = ptr.value
        else:
            return ptr, off
    return None, off


def collect_accesses(
    fn: Function,
    ctx: Optional[AffineContext] = None,
    regions: Optional[Dict[Instruction, int]] = None,
) -> List[Access]:
    """Every ``__local``/``__global`` load and store of the kernel.

    ``__constant`` and ``__private`` accesses cannot race (read-only /
    per-work-item) and are skipped.
    """
    ctx = ctx or AffineContext(fn)
    if regions is None:
        regions, _ = phase_regions(fn)
    out: List[Access] = []
    for pos, inst in enumerate(fn.instructions()):
        if isinstance(inst, Load):
            space, elem = inst.addrspace, inst.type.size
        elif isinstance(inst, Store):
            space, elem = inst.addrspace, inst.value.type.size
        else:
            continue
        if space not in (AddressSpace.LOCAL, AddressSpace.GLOBAL):
            continue
        base, off = _pointer_offset(ctx, inst.ptr)
        out.append(
            Access(
                inst=inst,
                is_store=isinstance(inst, Store),
                space=space,
                base=base,
                offset=off,
                elem_size=int(elem),
                region=regions[inst],
                pos=pos,
            )
        )
    return out


class KernelFacts:
    """The static facts every analysis stage of one kernel reads.

    Each fact is derived on first use and then shared, so one
    :func:`~repro.analysis.driver.analyze_kernel` call walks the kernel
    once for its phase regions, uniformity and access list, however many
    stages read them.  A stage called on its own builds a fresh instance.
    The facts describe the IR as it was when first read: build a new
    instance after rewriting the kernel.
    """

    def __init__(self, fn: Function) -> None:
        self.fn = fn

    @cached_property
    def phases(self) -> Tuple[Dict[Instruction, int], int]:
        """``(region_of_inst, barrier_count)``, see :func:`phase_regions`."""
        return phase_regions(self.fn)

    @cached_property
    def nonuniform(self) -> Dict[BasicBlock, Optional[Instruction]]:
        """Non-uniformly executed blocks -> witness varying branch."""
        from repro.analysis.divergence import uniform_analysis

        return uniform_analysis(self.fn)[1]

    @cached_property
    def accesses(self) -> List[Access]:
        return collect_accesses(self.fn, regions=self.phases[0])

    @cached_property
    def positions(self) -> Dict[int, int]:
        """inst id -> index in ``fn.instructions()``, the handle reports
        print (ids come from a process-global counter and differ between
        runs)."""
        return {inst.id: i for i, inst in enumerate(self.fn.instructions())}

    @cached_property
    def obj_names(self) -> Dict[int, str]:
        """inst id -> name of the object the access targets."""
        return {acc.inst.id: acc.obj_name for acc in self.accesses}


# ---------------------------------------------------------------------------
# pair decision
# ---------------------------------------------------------------------------


def _substitute(expr: LinExpr, local_size: Optional[Sequence[int]]) -> LinExpr:
    """Expand ``gid_d -> wid_d * L_d + lid_d`` and fold known sizes."""
    if local_size is None:
        return expr
    ndim = len(local_size)
    out: Dict[Symbol, Fraction] = {}

    def add(sym: Symbol, c: Fraction) -> None:
        out[sym] = out.get(sym, Fraction(0)) + c

    for sym, c in expr.terms.items():
        kind = sym[0]
        if kind == "gid":
            d = sym[1]
            if d < ndim:
                add(lid(d), c)
                add(wid(d), c * local_size[d])
            # gid_d == 0 for d >= ndim
        elif kind == "lsize":
            d = sym[1]
            add(ONE, c * (local_size[d] if d < ndim else 1))
        elif kind in ("lid", "wid"):
            if sym[1] < ndim:
                add(sym, c)
            # lid_d == wid_d == 0 for d >= ndim
        else:
            add(sym, c)
    return LinExpr(out)


def _sym_class(sym: Symbol) -> str:
    """'thread' (varies per work-item, known coefficient), 'shared'
    (group-uniform), or 'unknown' (slots, opaques, products with ids)."""
    kind = sym[0]
    if kind == "lid":
        return "thread"
    if kind in ("wid", "arg", "lsize"):
        return "shared"
    if kind == "prod":
        parts = {_sym_class(s) for s in sym[1:]}
        return "shared" if parts == {"shared"} else "unknown"
    return "unknown"  # gid (no geometry), slot, opaque


def _split(expr: LinExpr) -> Tuple[Dict[int, Fraction], Dict[Symbol, Fraction], Fraction, List[Symbol]]:
    """Split into (lid-dim -> coeff, shared-sym -> coeff, const, unknowns)."""
    thread: Dict[int, Fraction] = {}
    shared: Dict[Symbol, Fraction] = {}
    const = Fraction(0)
    unknown: List[Symbol] = []
    for sym, c in expr.terms.items():
        if sym == ONE:
            const += c
            continue
        cls = _sym_class(sym)
        if cls == "thread":
            thread[sym[1]] = thread.get(sym[1], Fraction(0)) + c
        elif cls == "shared":
            shared[sym] = shared.get(sym, Fraction(0)) + c
        else:
            unknown.append(sym)
    return thread, shared, const, unknown


@dataclass(frozen=True)
class PairDecision:
    status: str  # 'safe' | 'race' | 'undecided'
    reason: str
    #: for 'undecided': one of DEFERRAL_CATEGORIES (see analysis.model)
    category: str = ""


def _lane_offsets(thread: Dict[int, Fraction], scale: int, local_size: Sequence[int]) -> np.ndarray:
    grids = np.indices(tuple(local_size)).reshape(len(local_size), -1).astype(np.int64)
    out = np.zeros(grids.shape[1], dtype=np.int64)
    for d, c in thread.items():
        out += int(c * scale) * grids[d]
    return out


def decide_pair(a: Access, b: Access, local_size: Optional[Sequence[int]]) -> PairDecision:
    """Decide whether accesses ``a`` and ``b`` (same region, same base,
    at least one store) can touch overlapping bytes from *different*
    work-items of one group."""
    off_a = _substitute(a.offset, local_size)
    off_b = _substitute(b.offset, local_size)
    ta, sa, ca, ua = _split(off_a)
    tb, sb, cb, ub = _split(off_b)
    if ua or ub:
        syms = ", ".join(sorted({render_symbol(s) for s in ua + ub}))
        # a gid term is affine; it only stays unknown because no geometry
        # was given to expand it — report that as such, not as non-affine
        if local_size is None and all(s[0] == "gid" for s in ua + ub):
            return PairDecision(
                "undecided",
                f"no work-group geometry to expand ({syms})",
                "no-geometry",
            )
        return PairDecision(
            "undecided", f"non-affine index terms ({syms})", "non-affine"
        )
    if local_size is None:
        return PairDecision("undecided", "no work-group geometry", "no-geometry")

    # group-uniform parts must cancel for a decidable constant delta
    delta: Dict[Symbol, Fraction] = dict(sa)
    for sym, c in sb.items():
        delta[sym] = delta.get(sym, Fraction(0)) - c
    leftover = {s: c for s, c in delta.items() if c != 0}
    if leftover:
        syms = ", ".join(sorted(render_symbol(s) for s in leftover))
        return PairDecision(
            "undecided",
            f"offset delta depends on group-uniform value(s) {syms}",
            "group-uniform-delta",
        )

    n = prod(int(s) for s in local_size)
    if n > BOX_LIMIT:
        return PairDecision(
            "undecided", f"work-group box {n} exceeds {BOX_LIMIT}", "box-limit"
        )

    # exact enumeration of the index box, scaled to clear denominators
    dens = [c.denominator for c in ta.values()] + [c.denominator for c in tb.values()]
    dens += [(ca - cb).denominator]
    scale = lcm(*dens) if dens else 1
    va = _lane_offsets(ta, scale, local_size)
    vb = _lane_offsets(tb, scale, local_size) + int((cb - ca) * scale)
    size_a = a.elem_size * scale
    size_b = b.elem_size * scale
    overlap = (va[:, None] < vb[None, :] + size_b) & (vb[None, :] < va[:, None] + size_a)
    np.fill_diagonal(overlap, False)  # same work-item: program order, no race
    if overlap.any():
        i, j = np.argwhere(overlap)[0]
        return PairDecision(
            "race",
            f"work-items {int(i)} and {int(j)} overlap at byte "
            f"{int(va[i])}/{scale} of {a.obj_name!r}",
        )
    return PairDecision("safe", "index maps disjoint across work-items")


# ---------------------------------------------------------------------------
# whole-kernel static analysis
# ---------------------------------------------------------------------------


def _pair_key(a: Access, b: Access) -> tuple:
    return tuple(sorted((a.inst.id, b.inst.id)))


def analyze_races_static(
    fn: Function,
    local_size: Optional[Sequence[int]] = None,
    report: Optional[AnalysisReport] = None,
    facts: Optional[KernelFacts] = None,
) -> AnalysisReport:
    """Run the static race analysis; undecided pairs are recorded on the
    report (``pairs_undecided``) for the dynamic replay to resolve."""
    facts = facts or KernelFacts(fn)
    report = report or AnalysisReport(
        fn.name, tuple(local_size) if local_size else None
    )
    report.barriers = facts.phases[1]
    # Accesses in non-uniformly-executed blocks (e.g. guarded halo
    # stores) run only for a lane subset the index box cannot model;
    # deciding them statically would report phantom overlaps, so their
    # pairs go to the dynamic replay instead.
    nonuniform = facts.nonuniform

    def guarded(acc: Access) -> bool:
        return acc.inst.parent in nonuniform

    groups: Dict[tuple, List[Access]] = {}
    for acc in facts.accesses:
        # unknown-base pointers (never produced by the frontend) all fall
        # into one conservative bucket so they still pair up
        key = (acc.space, id(acc.base) if acc.base is not None else None, acc.region)
        groups.setdefault(key, []).append(acc)

    for (_, _, _), members in sorted(
        groups.items(), key=lambda kv: min(a.inst.id for a in kv[1])
    ):
        for i, a in enumerate(members):
            for b in members[i:]:
                if not (a.is_store or b.is_store):
                    continue
                if a is b and not a.is_store:
                    continue
                if guarded(a) or guarded(b):
                    decision = PairDecision(
                        "undecided",
                        "access under a thread-id-dependent guard "
                        "(lane subset unknown statically)",
                        "guarded",
                    )
                else:
                    decision = decide_pair(a, b, local_size)
                if decision.status == "safe":
                    report.pairs_static += 1
                elif decision.status == "race":
                    report.pairs_static += 1
                    kind = "race-ww" if (a.is_store and b.is_store) else "race-rw"
                    report.add(
                        Finding(
                            kind=kind,
                            space=_SPACE_NAMES[a.space],
                            obj=a.obj_name,
                            detail=f"{a.describe()} vs {b.describe()}: {decision.reason}",
                            decided_by="static",
                            a_inst=a.inst.id,
                            b_inst=b.inst.id,
                        )
                    )
                else:
                    report.pairs_undecided += 1
                    report.undecided.append((a, b, decision.reason))
                    report.add_deferral(Deferral(
                        kernel=fn.name,
                        category=decision.category or "non-affine",
                        why=decision.reason,
                        obj=a.obj_name,
                        space=_SPACE_NAMES[a.space],
                        a_inst=a.inst.id,
                        b_inst=b.inst.id,
                        a_pos=a.pos,
                        b_pos=b.pos,
                    ))
    return report


def check_staging(
    fn: Function, report: AnalysisReport, facts: Optional[KernelFacts] = None
) -> AnalysisReport:
    """Grover-legality check: every ``__local`` store must stage a value
    loaded from global/constant memory (the software-cache pattern the
    transformation reverses).  A computed value staged into local memory
    — a reduction accumulator, a read-modify-write — is *irreversible*:
    no global address holds that value, which is exactly why the solver
    rejects such kernels."""
    for acc in (facts or KernelFacts(fn)).accesses:
        if not acc.is_store or acc.space != AddressSpace.LOCAL:
            continue
        inst = acc.inst
        src = strip_casts(inst.value)
        if isinstance(src, Load) and src.addrspace in (
            AddressSpace.GLOBAL,
            AddressSpace.CONSTANT,
        ):
            continue
        obj = getattr(acc.base, "name", None) or "?"
        report.add(
            Finding(
                kind="non-global-staging",
                space="local",
                obj=obj,
                detail=(
                    f"store %{acc.pos} stages a computed value "
                    f"({type(src).__name__}) into {obj!r}; no global "
                    "address holds it, so the access is irreversible"
                ),
                decided_by="static",
                a_inst=inst.id,
            )
        )
    return report
