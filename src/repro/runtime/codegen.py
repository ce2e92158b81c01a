"""Codegen'd compiled-tape tier: the pilot schedule emitted as one module.

The tape backend (:mod:`repro.runtime.tape`) already collapses the
per-group scheduler into a straight-line ``(block, mask)`` tape, but it
replays that tape through a chain of tiny Python closures — one call,
one operand-getter dict lookup and one fresh temporary per instruction
per step.  This tier removes that last layer of interpretation: the
whole tape is emitted as **one generated Python module** whose single
function runs the batch as straight-line fused numpy statements,

* every value bound to a local variable (no ``env`` dict on the hot
  path),
* masks, lane lists, expected branch conditions and constants interned
  as read-only module arrays,
* single-use pure expressions (arithmetic, compares, casts, GEPs,
  selects) folded into their consumer, so an address computation like
  ``base + (gid*W + i)*4`` is one compound numpy expression instead of
  four closure calls,
* repeated step runs (loop bodies) detected and emitted as a ``for``
  loop with barrier phase / instruction count / private-arena cursor as
  linear expressions of the iteration counter, bounding source size,
* each ``CondBr`` guarded and each load/store buffer-checked exactly
  like the tape; any mismatch *diverts* the whole batch to the tape
  executor mid-step (``rt.divert`` rebuilds the tape's ``env`` from the
  generated function's ``locals()`` and finishes the batch on the
  closure path, including per-group eviction to the scalar executor),
  so results stay bit-identical under divergence.

The generated module is ``compile()``/``exec()``'d once and cached
in-process per ``(kernel IR fingerprint, schedule hash, batch
parameters)``; with ``REPRO_CODEGEN_CACHE_DIR`` set, the sealed source
is also persisted on disk (content-hash validated — a corrupted or
stale artifact is silently recompiled and rewritten).

Generated code never embeds ``Instruction.id`` (a process-global
counter): record tuples reference instructions positionally through the
module's ``__PLAN__`` (block index, instruction index), resolved against
the live :class:`Function` at bind time.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    ExtractElement,
    FCmp,
    GEP,
    ICmp,
    InsertElement,
    Load,
    Opcode,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, BoolType, IntType, VectorType
from repro.ir.values import Argument, Constant, LocalArray, Value
from repro.runtime.buffers import OFFSET_BITS, Buffer, Memory
from repro.runtime.builtins import WorkItemContext
from repro.runtime.errors import RuntimeLaunchError
from repro.runtime.interpreter import GroupExecutor, _np_type, block_weights
from repro.runtime.tape import TapeExecutor, _Step
from repro.runtime.trace import GroupTrace, TraceSpillStore
from repro.session import events

__all__ = [
    "CODEGEN_VERSION",
    "CodegenExecutor",
    "cache_key",
    "clear_codegen_cache",
    "execute_codegen",
    "function_fingerprint",
    "generate_source",
]

#: bumped whenever the shape of generated code changes — part of every
#: cache key, so stale disk artifacts from older versions never load
CODEGEN_VERSION = 6

#: maximum operator-fusion depth of one emitted expression
_FUSE_DEPTH = 8
#: loop detection: maximum period (steps) and minimum repeats
_MAX_PERIOD = 16
_MIN_REPEATS = 3

_FUSABLE = (BinOp, ICmp, FCmp, Cast, Select, GEP)
_PURE = _FUSABLE + (ExtractElement, InsertElement)
_UNSIGNED_PREDS = (CmpPred.ULT, CmpPred.ULE, CmpPred.UGT, CmpPred.UGE)
_CMP_OPS = {
    CmpPred.EQ: "==", CmpPred.OEQ: "==",
    CmpPred.NE: "!=", CmpPred.ONE: "!=",
    CmpPred.SLT: "<", CmpPred.ULT: "<", CmpPred.OLT: "<",
    CmpPred.SLE: "<=", CmpPred.ULE: "<=", CmpPred.OLE: "<=",
    CmpPred.SGT: ">", CmpPred.UGT: ">", CmpPred.OGT: ">",
    CmpPred.SGE: ">=", CmpPred.UGE: ">=", CmpPred.OGE: ">=",
}
_BINOP_FMT = {
    Opcode.ADD: "({a} + {b})", Opcode.FADD: "({a} + {b})",
    Opcode.SUB: "({a} - {b})", Opcode.FSUB: "({a} - {b})",
    Opcode.MUL: "({a} * {b})", Opcode.FMUL: "({a} * {b})",
    Opcode.FDIV: "({a} / {b})",
    Opcode.SDIV: "_idiv({a}, {b})", Opcode.UDIV: "_idiv({a}, {b})",
    Opcode.SREM: "_irem({a}, {b})", Opcode.UREM: "_irem({a}, {b})",
    Opcode.AND: "({a} & {b})", Opcode.OR: "({a} | {b})",
    Opcode.XOR: "_xor({a}, {b})",
    Opcode.SHL: "_shl({a}, {b})",
    Opcode.ASHR: "_ashr({a}, {b})",
    Opcode.LSHR: "_lshr({a}, {b})",
}

#: runtime helpers emitted into every generated module; each mirrors the
#: corresponding tape/interpreter closure body exactly (C-truncating
#: division, shift-count masking, unsigned reinterpretation by the
#: operand's *runtime* dtype)
_HELPERS = '''\
def _idiv(a, b):
    _sb = _np.where(b == 0, 1, b)
    _q = a // _sb
    _r = a - _q * _sb
    return (_q + ((_r != 0) & ((a < 0) != (_sb < 0)))).astype(a.dtype)

def _irem(a, b):
    return a - _idiv(a, b) * b

def _xor(a, b):
    if a.dtype == bool:
        return a ^ b
    return a ^ b.astype(a.dtype)

def _shl(a, b):
    return a << (b & (a.dtype.itemsize * 8 - 1))

def _ashr(a, b):
    return a >> (b & (a.dtype.itemsize * 8 - 1))

def _lshr(a, b):
    _u = _np.dtype("u%d" % a.dtype.itemsize)
    return (a.view(_u) >> (b & (a.dtype.itemsize * 8 - 1)).view(_u)).view(a.dtype)

def _uvw(a):
    return a.view(_np.dtype("u%d" % a.dtype.itemsize))

def _bc(v, d):
    return v.view(d) if v.dtype.itemsize == d.itemsize else v.astype(d)
'''


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------


def function_fingerprint(fn: Function) -> str:
    """Structural digest of a function's IR.

    Stable across processes and recompilations of the same source:
    instruction ids (a process-global counter) never participate —
    operands are referenced positionally (block index, instruction
    index) and constants by (type, value).

    Memoized on the function object (keyed by block/instruction counts
    so a transformed-in-place function is never served a stale digest);
    kernel IR is immutable between pass pipeline and launch.
    """
    shape = (len(fn.blocks), sum(len(b.instructions) for b in fn.blocks))
    cached = getattr(fn, "_codegen_fp", None)
    if cached is not None and cached[0] == shape:
        return cached[1]
    h = hashlib.sha256()
    bidx = {bb: b for b, bb in enumerate(fn.blocks)}
    pos: Dict[Value, Tuple[int, int]] = {}
    for b, bb in enumerate(fn.blocks):
        for i, inst in enumerate(bb.instructions):
            pos[inst] = (b, i)
    aidx = {a: i for i, a in enumerate(fn.args)}
    lidx = {la: i for i, la in enumerate(fn.local_arrays)}

    def ref(v: Value) -> str:
        if isinstance(v, Constant):
            return f"c:{v.type}:{v.value!r}"
        if isinstance(v, Argument):
            return f"a:{aidx[v]}"
        if isinstance(v, LocalArray):
            return f"l:{lidx[v]}"
        p = pos.get(v)
        return f"i:{p[0]}:{p[1]}" if p else f"?:{type(v).__name__}"

    h.update(f"fn:{fn.name}:{len(fn.args)}".encode())
    for a in fn.args:
        h.update(f"arg:{a.type}".encode())
    for la in fn.local_arrays:
        h.update(f"loc:{la.array_type}".encode())
    for b, bb in enumerate(fn.blocks):
        h.update(f"block:{b}".encode())
        for inst in bb.instructions:
            parts = [type(inst).__name__, str(getattr(inst, "type", None))]
            for attr in ("opcode", "pred", "kind", "callee"):
                val = getattr(inst, attr, None)
                if val is not None:
                    parts.append(str(val))
            if isinstance(inst, Alloca):
                parts.append(str(inst.allocated_type))
            if isinstance(inst, GEP):
                parts.append(str(inst.strides()))
            parts.extend(ref(o) for o in inst.operands)
            for succ in (
                inst.successors() if inst.is_terminator else ()
            ):
                parts.append(f"b:{bidx[succ]}")
            h.update(("|".join(parts) + "\n").encode())
    digest = h.hexdigest()
    try:
        fn._codegen_fp = (shape, digest)
    except AttributeError:  # __slots__-restricted Function
        pass
    return digest


def cache_key(
    fn: Function,
    steps: List[_Step],
    n: int,
    lsize: Tuple[int, ...],
    gsize: Tuple[int, ...],
    tape_batch: int,
    collect_trace: bool,
) -> str:
    """Key of one compiled module: IR shape + pilot schedule + launch
    geometry (all of which are folded into the generated source)."""
    h = hashlib.sha256()
    h.update(
        f"v{CODEGEN_VERSION}:{function_fingerprint(fn)}:{n}:"
        f"{lsize}:{gsize}:{tape_batch}:{int(collect_trace)}".encode()
    )
    bidx = {bb: b for b, bb in enumerate(fn.blocks)}
    for step in steps:
        h.update(np.int64(bidx[step.bb]).tobytes())
        h.update(step.mask.tobytes())
        if step.cond is not None:
            h.update(b"c")
            h.update(step.cond.tobytes())
        for succ, m in step.succ:
            h.update(np.int64(bidx[succ]).tobytes())
            h.update(m.tobytes())
    return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


class _SourceGen:
    """Emits the generated replay module for one (kernel, schedule)."""

    def __init__(
        self,
        fn: Function,
        steps: List[_Step],
        n: int,
        collect_trace: bool,
        key: str,
    ) -> None:
        self.fn = fn
        self.steps = steps
        self.n = n
        self.collect_trace = collect_trace
        self.key = key
        self.bidx = {bb: b for b, bb in enumerate(fn.blocks)}
        self.ipos: Dict[Value, Tuple[int, int]] = {}
        for b, bb in enumerate(fn.blocks):
            for i, inst in enumerate(bb.instructions):
                self.ipos[inst] = (b, i)
        self.lidx = {la: i for i, la in enumerate(fn.local_arrays)}
        # ground-truth use map (Value.uses can go stale across passes)
        self.n_uses: Dict[Value, int] = {}
        self.use_at: Dict[Value, Tuple[BasicBlock, int]] = {}
        for bb in fn.blocks:
            for i, inst in enumerate(bb.instructions):
                for op in inst.operands:
                    self.n_uses[op] = self.n_uses.get(op, 0) + 1
                    self.use_at[op] = (bb, i)
        self._fuse_plan: Dict[
            BasicBlock, Tuple[set, set, Dict[int, int], Dict[int, int]]
        ] = {}

        self.lines: List[str] = []
        self.indent = "        "
        self.t = 0  # unique temp counter
        self.si = 0
        self.phase = 0
        self.ic = 0
        self.arena = 0
        self.loop: Optional[dict] = None

        self.const_lines: List[str] = []
        self._masks: Dict[bytes, str] = {}
        self._lanes: Dict[bytes, str] = {}
        self._widens: Dict[bytes, str] = {}
        # flat (step, instruction) position of each slot's last store:
        # a slot read past it can alias the slot instead of copying
        self._last_slot_store: Dict[Value, Tuple[int, int]] = {}
        for psi, pstep in enumerate(steps):
            for pj, pinst in enumerate(pstep.bb.instructions):
                if pinst.is_terminator:
                    break
                if isinstance(pinst, Store) and self._is_slot_access(pinst):
                    self._last_slot_store[pinst.ptr] = (psi, pj)
        self._expected: Dict[bytes, str] = {}
        self._consts: Dict[Constant, str] = {}
        self._const_vals: Dict[str, Constant] = {}
        # per-step memo of emitted address terms (names are assigned at
        # most once per step, so equal strings denote equal values)
        self._step_cse: Dict[str, str] = {}
        self._dtypes: Dict[str, str] = {}
        self._comps: Dict[int, str] = {}
        self._laneoffs: Dict[int, str] = {}

        self.entries: Dict[Value, str] = {}
        self.entry_bases: Dict[Value, Tuple[str, str]] = {}
        self.entry_base_lines: List[str] = []
        self.plan_values: Dict[str, Tuple[int, int]] = {}
        self.plan_slots: Dict[str, Tuple[int, int]] = {}
        self._calls: Dict[Call, int] = {}
        self._insts: Dict[Value, int] = {}

    # -- interning ---------------------------------------------------------
    def _tmp(self, prefix: str) -> str:
        self.t += 1
        return f"_{prefix}{self.t}"

    def _mask_name(self, mask: np.ndarray) -> str:
        key = mask.tobytes()
        name = self._masks.get(key)
        if name is None:
            name = f"_m{len(self._masks)}"
            self._masks[key] = name
            self.const_lines.append(
                f"{name} = _np.frombuffer({key!r}, dtype=_np.bool_)"
            )
        return name

    def _lanes_name(self, mask: np.ndarray) -> str:
        key = mask.tobytes()
        name = self._lanes.get(key)
        if name is None:
            name = f"_ln{len(self._lanes)}"
            self._lanes[key] = name
            mname = self._mask_name(mask)
            self.const_lines.append(f"{name} = _lanes[{mname}]")
            self.const_lines.append(f"{name}.setflags(write=False)")
        return name

    def _widen_name(self, mask: np.ndarray) -> str:
        """Gather index widening a masked ``(G, count)`` value to ``(G, N)``.

        Off-mask columns point at position 0 (the first live lane), the
        same safe filler the tape uses, so one fancy-index gather
        replaces an empty/fill/masked-assign triple (three full-width
        passes over the batch).
        """
        key = mask.tobytes()
        name = self._widens.get(key)
        if name is None:
            name = f"_wi{len(self._widens)}"
            self._widens[key] = name
            idx = np.zeros(mask.shape[0], dtype=np.int64)
            idx[mask] = np.arange(int(np.count_nonzero(mask)), dtype=np.int64)
            self.const_lines.append(
                f"{name} = _np.frombuffer({idx.tobytes()!r}, dtype=_np.int64)"
            )
        return name

    def _expected_name(self, row: np.ndarray) -> str:
        key = row.tobytes()
        name = self._expected.get(key)
        if name is None:
            name = f"_e{len(self._expected)}"
            self._expected[key] = name
            self.const_lines.append(
                f"{name} = _np.frombuffer({key!r}, dtype=_np.bool_)"
            )
        return name

    def _dtype_name(self, dt: np.dtype) -> str:
        dt = np.dtype(dt)
        name = self._dtypes.get(dt.name)
        if name is None:
            name = f"_dt{len(self._dtypes)}"
            self._dtypes[dt.name] = name
            self.const_lines.append(f"{name} = _np.dtype({dt.name!r})")
        return name

    def _comp_name(self, count: int) -> str:
        name = self._comps.get(count)
        if name is None:
            name = f"_cp{len(self._comps)}"
            self._comps[count] = name
            self.const_lines.append(
                f"{name} = _np.arange({count}, dtype=_np.int64)"
            )
        return name

    def _laneoff_name(self, size: int) -> str:
        name = self._laneoffs.get(size)
        if name is None:
            name = f"_lo{len(self._laneoffs)}"
            self._laneoffs[size] = name
            self.const_lines.append(f"{name} = _lanes * {size}")
        return name

    def _const_name(self, c: Constant) -> str:
        name = self._consts.get(c)
        if name is None:
            name = f"_c{len(self._consts)}"
            self._consts[c] = name
            self._const_vals[name] = c
            if isinstance(c.type, BoolType):
                self.const_lines.append(
                    f"{name} = _np.full(N, {bool(c.value)!r})"
                )
            else:
                dt = self._dtype_name(_np_type(c.type))
                if isinstance(c.value, float):
                    lit = f"float.fromhex({c.value.hex()!r})"
                else:
                    lit = repr(c.value)
                self.const_lines.append(
                    f"{name} = _np.full(N, {lit}, dtype={dt})"
                )
            self.const_lines.append(f"{name}.setflags(write=False)")
        return name

    # -- plan registration -------------------------------------------------
    def _entry_name(self, v: Value) -> str:
        name = self.entries.get(v)
        if name is None:
            if isinstance(v, Argument):
                name = f"a{v.index}"
            else:
                name = f"loc{self.lidx[v]}"
            self.entries[v] = name
        return name

    def _entry_base(self, v: Value) -> Tuple[str, str]:
        """Hoist an entry pointer's (buffer id, byte offset) split to the
        top of the replay: every access through it then derives offsets
        with a single add instead of an id extraction + subtraction."""
        cached = self.entry_bases.get(v)
        if cached is not None:
            return cached
        ename = self._entry_name(v)
        k = len(self.entry_bases)
        b, o = f"_bb{k}", f"_eo{k}"
        self.entry_base_lines.extend([
            # entry pointers are lane-uniform by construction (args are
            # np.full, local bases broadcast per group): keep one lane
            f"    {o} = _np.asarray({ename})[..., :1]"
            f".astype(_np.int64, copy=False)",
            f"    {b} = int({o}.flat[0]) >> {OFFSET_BITS}",
            f"    {o} = {o} - ({b} << {OFFSET_BITS})",
        ])
        self.entry_bases[v] = (b, o)
        return (b, o)

    def _val_name(self, inst: Value) -> str:
        b, i = self.ipos[inst]
        name = f"v{b}_{i}"
        self.plan_values[name] = (b, i)
        return name

    def _slot_name(self, inst: Alloca) -> str:
        b, i = self.ipos[inst]
        name = f"s{b}_{i}"
        self.plan_slots[name] = (b, i)
        return name

    def _call_ref(self, inst: Call) -> str:
        k = self._calls.setdefault(inst, len(self._calls))
        return f"rt.calls[{k}]"

    def _inst_id_ref(self, inst: Value) -> str:
        t = self._insts.setdefault(inst, len(self._insts))
        return f"_ii[{t}]"

    # -- fusion analysis ---------------------------------------------------
    def _plan_block(
        self, bb: BasicBlock
    ) -> Tuple[set, set, Dict[int, int], Dict[int, int]]:
        """Per-block (structural) decision: which instructions fuse into
        their single consumer, which dead pure ops are skipped, where each
        eviction site re-enters the tape on divert, and which address GEPs
        collapse into their access site.

        A divert at a load/store site re-enters the tape at ``divert_at[s]``
        — the first op of the maximal run of pure instructions immediately
        preceding the site — so every value defined inside that run is
        recomputed by the tape closures and need not be materialized.  The
        fusion hazard is therefore phrased against the divert *entry
        points* rather than the sites themselves: a single-use value may
        stay unmaterialized unless some entry point lies in (def, use]."""
        cached = self._fuse_plan.get(bb)
        if cached is not None:
            return cached
        insts = bb.instructions
        sites: List[int] = []
        cond_sites: List[int] = []
        for i, inst in enumerate(insts):
            if isinstance(inst, (Load, Store)) and not self._is_slot_access(inst):
                sites.append(i)
            elif isinstance(inst, CondBr):
                cond_sites.append(i)
        site_set = set(sites)
        divert_at: Dict[int, int] = {}
        run_start = 0
        for i, inst in enumerate(insts):
            if inst.is_terminator:
                break
            if i in site_set:
                divert_at[i] = run_start
            # slot loads are idempotent re-runs (no record, and slot
            # state cannot change inside the run — slot stores break
            # it), so they extend a pure run; everything else ends it
            if not (
                isinstance(inst, _PURE)
                or (isinstance(inst, Load) and self._is_slot_access(inst))
            ):
                run_start = i + 1
        # the step guard diverts past the last op, so CondBr sites keep
        # themselves as the entry point (blocks fusing the condition)
        entries = [divert_at[s] for s in sites] + cond_sites
        fused: set = set()
        skipped: set = set()
        deferred: Dict[int, int] = {}
        depth: Dict[Value, int] = {}
        for i, inst in enumerate(insts):
            if inst.is_terminator:
                break
            if self.n_uses.get(inst, 0) == 0 and (
                isinstance(inst, _PURE)
                or (
                    isinstance(inst, Alloca)
                    and not isinstance(inst.allocated_type, ArrayType)
                )
                or (
                    isinstance(inst, Call)
                    and inst.callee
                    not in ("barrier", "mem_fence", "printf")
                )
            ):
                skipped.add(i)
                continue
            if not isinstance(inst, _FUSABLE):
                continue
            if self.n_uses.get(inst, 0) != 1:
                continue
            ubb, uidx = self.use_at[inst]
            if ubb is not bb or uidx <= i:
                continue
            if any(i < e <= uidx for e in entries):
                continue
            d = 1 + max(
                (depth.get(op, 0) for op in inst.operands), default=0
            )
            if d > _FUSE_DEPTH:
                continue
            if uidx in site_set and inst is insts[uidx].ptr:
                # an address GEP on a raw entry pointer collapses into its
                # access site: the base-id split is hoisted out of the
                # step, so the site computes byte offsets directly
                if isinstance(inst, GEP) and isinstance(
                    inst.base, (Argument, LocalArray)
                ):
                    depth[inst] = d
                    deferred[uidx] = i
                continue
            depth[inst] = d
            fused.add(i)
        entry = (fused, skipped, divert_at, deferred)
        self._fuse_plan[bb] = entry
        return entry

    @staticmethod
    def _is_slot_access(inst) -> bool:
        ptr = inst.ptr
        return isinstance(ptr, Alloca) and not isinstance(
            ptr.allocated_type, ArrayType
        )

    # -- operand references ------------------------------------------------
    def _ref(self, v: Value, pending: Dict[Value, str]) -> str:
        if isinstance(v, Constant):
            return self._const_name(v)
        if isinstance(v, (Argument, LocalArray)):
            return self._entry_name(v)
        expr = pending.pop(v, None)
        if expr is not None:
            return expr
        return self._val_name(v)

    # -- symbolic step counters (loop bodies) ------------------------------
    def _phase_expr(self) -> str:
        lp = self.loop
        if lp is None or lp["dph"] == 0:
            return str(self.phase)
        off = self.phase - lp["phase0"]
        return f"(_ph + {off})" if off else "_ph"

    def _si_expr(self) -> str:
        lp = self.loop
        if lp is None:
            return str(self.si)
        return f"({lp['si0']} + _it * {lp['p']} + {self.si - lp['si0']})"

    def _ic_expr(self) -> str:
        lp = self.loop
        if lp is None or lp["dic"] == 0:
            return str(self.ic)
        return f"({lp['ic0']} + _it * {lp['dic']} + {self.ic - lp['ic0']})"

    def _arena_expr(self) -> str:
        lp = self.loop
        if lp is None or lp["dar"] == 0:
            return str(self.arena)
        return f"({lp['arena0']} + _it * {lp['dar']} + {self.arena - lp['arena0']})"

    def _divert(self, j: int) -> str:
        ph = self._phase_expr()
        return (
            f"return rt.divert({self._si_expr()}, {j}, {ph}, {ph}, "
            f"{self._ic_expr()}, {self._arena_expr()}, locals())"
        )

    def _emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    # -- expression builders -----------------------------------------------
    def _binop_expr(self, inst: BinOp, pending) -> str:
        a = self._ref(inst.lhs, pending)
        b = self._ref(inst.rhs, pending)
        return _BINOP_FMT[inst.opcode].format(a=a, b=b)

    def _cmp_expr(self, inst, pending) -> str:
        a = self._ref(inst.operands[0], pending)
        b = self._ref(inst.operands[1], pending)
        op = _CMP_OPS[inst.pred]
        if inst.pred in _UNSIGNED_PREDS:
            return f"(_uvw({a}) {op} _uvw({b}))"
        return f"({a} {op} {b})"

    def _cast_expr(self, inst: Cast, pending) -> str:
        v = self._ref(inst.value, pending)
        kind = inst.kind
        ty = inst.type
        from repro.ir.types import PointerType

        if kind == CastKind.BITCAST:
            if isinstance(ty, PointerType):
                return v
            return f"_bc({v}, {self._dtype_name(_np_type(ty))})"
        if kind in (CastKind.TRUNC, CastKind.SEXT, CastKind.ZEXT):
            dt = self._dtype_name(_np_type(ty))
            src_ty = inst.value.type
            if (
                kind == CastKind.ZEXT
                and isinstance(src_ty, IntType)
                and src_ty.signed
            ):
                return f"_uvw({v}).astype({dt})"
            return f"{v}.astype({dt})"
        if kind in (
            CastKind.SITOFP, CastKind.UITOFP, CastKind.FPEXT, CastKind.FPTRUNC
        ):
            return f"{v}.astype({self._dtype_name(_np_type(ty))})"
        if kind in (CastKind.FPTOSI, CastKind.FPTOUI):
            return f"_np.trunc({v}).astype({self._dtype_name(_np_type(ty))})"
        if kind == CastKind.BOOL_TO_INT:
            return f"{v}.astype({self._dtype_name(_np_type(ty))})"
        if kind == CastKind.INT_TO_BOOL:
            return f"({v} != 0)"
        raise RuntimeLaunchError(f"unknown cast {kind}")  # pragma: no cover

    def _gep_expr(self, inst: GEP, pending) -> str:
        # operands must be referenced in instruction order (pending pops)
        base = self._ref(inst.base, pending)
        terms: List[str] = []
        const_sum = 0
        for idx, stride in zip(inst.indices, inst.strides()):
            if isinstance(idx, Constant):
                const_sum += int(idx.value) * stride
                continue
            g = self._ref(idx, pending)
            term = f"{g}.astype(_np.int64, copy=False)"
            if stride != 1:
                term += f" * {stride}"
            terms.append(term)
        expr = f"{base}.astype(_np.int64, copy=False)"
        if const_sum:
            terms.append(str(const_sum))
        if not terms:
            return expr
        # sum the index terms before adding the base: with a batched
        # (G, N) base and group-invariant (N,) indices this keeps every
        # intermediate at (N,) and pays a single full-width add
        if len(terms) == 1:
            return f"({expr} + {terms[0]})"
        return f"({expr} + ({' + '.join(terms)}))"

    _PEEL_TAIL = re.compile(r"\((.+) ([+-]) (_c\d+)\)\Z")
    _PEEL_HEAD = re.compile(r"\((_c\d+) \+ (.+)\)\Z")

    def _peel_const_adds(self, expr: str) -> Tuple[str, int]:
        """Strip top-level ``+/- <int64 const>`` addends off an emitted
        expression, returning the varying core and the peeled sum.

        Only 64-bit integer constants are peeled: with a 64-bit addend
        the whole add already runs in int64, so reassociating it past
        the stride multiply is exact (no narrower wraparound to lose).
        """
        total = 0
        while True:
            m = self._PEEL_TAIL.fullmatch(expr)
            if m is not None:
                inner, sign, cn = m.group(1), m.group(2), m.group(3)
            else:
                m = self._PEEL_HEAD.fullmatch(expr)
                if m is None:
                    return expr, total
                inner, sign, cn = m.group(2), "+", m.group(1)
            if inner.count("(") != inner.count(")"):
                return expr, total
            c = self._const_vals.get(cn)
            if (
                c is None
                or not isinstance(c.type, IntType)
                or c.type.bits != 64
            ):
                return expr, total
            total += int(c.value) if sign == "+" else -int(c.value)
            expr = inner

    def _cse_term(self, term: str) -> str:
        """Intern an address term for the current step: repeated sites
        (stencil taps off one linear index) then share one computed
        array instead of redoing the int64 arithmetic per access."""
        name = self._step_cse.get(term)
        if name is None:
            name = self._tmp("g")
            self._step_cse[term] = name
            self._emit(f"{name} = {term}")
        return name

    def _elem_shift(self, inst: GEP, elem: int) -> int:
        """log2 of the element size if this access's offsets can be
        computed directly in the element-index domain — every stride and
        constant byte contribution a multiple of the element size — else
        0 (keep the byte-offset path).  Element indexing drops both the
        per-term stride multiply and the final byte->element shift from
        the replay; the byte offsets the trace records need are
        recovered exactly as ``index << shift`` (the base's alignment is
        guarded at the site)."""
        if elem <= 1 or elem & (elem - 1):
            return 0
        for idx, stride in zip(inst.indices, inst.strides()):
            if isinstance(idx, Constant):
                if (int(idx.value) * stride) % elem:
                    return 0
            elif stride % elem:
                return 0
        return elem.bit_length() - 1

    def _gep_offset_expr(
        self,
        inst: GEP,
        boff: str,
        pending,
        mname: Optional[str] = None,
        elem: int = 1,
    ) -> str:
        """Like :meth:`_gep_expr`, but against the hoisted byte offset of
        the entry base — yields in-buffer byte offsets, not addresses.
        With ``mname`` the index operands are sliced to the live lanes
        first, so a halo step pays for its handful of lanes only.  With
        ``elem > 1`` (checked by :meth:`_elem_shift`) strides are divided
        through, yielding element indices instead of byte offsets.

        Full-width sites additionally peel constant int64 addends out of
        each index expression and intern the remaining varying term per
        step: the constants collapse into the ``(G, 1)`` base (one tiny
        add instead of a batch-wide one) and sites sharing a linear
        index reuse one computed term array."""
        terms: List[str] = []
        const_sum = 0
        for idx, stride in zip(inst.indices, inst.strides()):
            if isinstance(idx, Constant):
                const_sum += int(idx.value) * stride // elem
                continue
            g = self._ref(idx, pending)
            if mname is not None:
                g = f"{g}[..., {mname}]"
                term = f"{g}.astype(_np.int64, copy=False)"
                if stride != 1:
                    term += f" * {stride}"
            else:
                g, peeled = self._peel_const_adds(g)
                stride //= elem
                const_sum += peeled * stride
                term = f"{g}.astype(_np.int64, copy=False)"
                if stride != 1:
                    term += f" * {stride}"
                term = self._cse_term(term)
            terms.append(term)
        if not terms:
            return f"({boff} + {const_sum})" if const_sum else boff
        if const_sum:
            boff = f"({boff} + {const_sum})"
        if len(terms) == 1:
            return f"({boff} + {terms[0]})"
        return f"({boff} + ({' + '.join(terms)}))"

    def _select_expr(self, inst: Select, pending) -> str:
        c = self._ref(inst.operands[0], pending)
        tv = self._ref(inst.operands[1], pending)
        fv = self._ref(inst.operands[2], pending)
        if isinstance(inst.type, VectorType):
            return f"_np.where({c}[..., None], {tv}, {fv})"
        return f"_np.where({c}, {tv}, {fv})"

    def _pure_expr(self, inst, pending) -> str:
        if isinstance(inst, BinOp):
            return self._binop_expr(inst, pending)
        if isinstance(inst, (ICmp, FCmp)):
            return self._cmp_expr(inst, pending)
        if isinstance(inst, Cast):
            return self._cast_expr(inst, pending)
        if isinstance(inst, GEP):
            return self._gep_expr(inst, pending)
        if isinstance(inst, Select):
            return self._select_expr(inst, pending)
        raise RuntimeLaunchError(  # pragma: no cover
            f"no expression form for {type(inst).__name__}"
        )

    # -- statement emitters ------------------------------------------------
    @staticmethod
    def _idx_expr(o: str, itemsize: int) -> str:
        # byte offset -> element index; offsets are non-negative, so a
        # right shift matches floor division for power-of-two sizes and
        # is a much cheaper numpy loop than floor_divide
        if itemsize & (itemsize - 1) == 0:
            k = itemsize.bit_length() - 1
            return o if k == 0 else f"({o} >> {k})"
        return f"({o} // {itemsize})"

    def _emit_load(
        self, inst: Load, mask, full, j0, j: int, pending, dv: int,
        pgep: Optional[GEP] = None,
    ) -> None:
        if self._is_slot_access(inst):
            last = self._last_slot_store.get(inst.ptr)
            if self.loop is None and (last is None or last < (self.si, j)):
                # no later store to this slot anywhere in the schedule
                # (and we are outside any emitted loop body, where the
                # flat-position comparison would be meaningless): alias
                # the slot instead of copying it
                self._emit(
                    f"{self._val_name(inst)} = {self._slot_name(inst.ptr)}"
                )
            else:
                self._emit(
                    f"{self._val_name(inst)} = "
                    f"{self._slot_name(inst.ptr)}.copy()"
                )
            return
        ty = inst.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        mname = None if full else self._mask_name(mask)
        # one buffer id per access: subtracting the base leaves pure byte
        # offsets iff every lane shares that id.  For loads only the
        # negative side needs an explicit scan — a lane in a higher
        # buffer (or past this one) lands at an element index >= the view
        # length, so the gather's own bounds check raises and we divert; a
        # store must still divert up front, because a partial fancy-index
        # assignment mutates memory before numpy notices the stray index.
        shift_k = 0
        if pgep is not None:
            # deferred address GEP: the entry's id/offset split is
            # hoisted, so the site adds byte offsets directly
            bname, boff = self._entry_base(pgep.base)
            if full and not isinstance(ty, VectorType):
                shift_k = self._elem_shift(pgep, _np_type(ty).itemsize)
            if full and shift_k:
                # element-index domain: guard the base's alignment (a
                # misaligned base is byte-exact only on the tape path),
                # then derive element indices directly — no stride
                # multiply, no byte->element shift.  The trace record
                # carries ``(indices, shift)`` and the byte offsets are
                # rebuilt bit-exactly when events materialise.
                self._emit(f"if ({boff} & {(1 << shift_k) - 1}).any():")
                self._emit(f"    {self._divert(dv)}")
                eb = self._cse_term(f"({boff} >> {shift_k})")
                a = self._tmp("a")
                self._emit(
                    f"{a} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, eb, pending, elem=1 << shift_k)}"
                    f", (G, N))"
                )
                om = a
            elif full:
                a = self._tmp("a")
                self._emit(
                    f"{a} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, boff, pending)}, (G, N))"
                )
                om = a
            elif not isinstance(ty, VectorType):
                # masked gather: run the address arithmetic over the
                # live lanes only
                nm = int(np.count_nonzero(mask))
                om = self._tmp("om")
                self._emit(
                    f"{om} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, boff, pending, mname)}"
                    f", (G, {nm}))"
                )
                a = om
            else:
                a = self._tmp("a")
                self._emit(
                    f"{a} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, boff, pending)}, (G, N))"
                )
                om = self._tmp("om")
                self._emit(f"{om} = {a}[:, {mname}]")
        else:
            ptr = self._ref(inst.ptr, pending)
            a = self._tmp("a")
            self._emit(f"{a} = _np.broadcast_to({ptr}, (G, N))")
            bname = self._tmp("b")
            if full:
                self._emit(f"{bname} = int({a}.flat[0]) >> {OFFSET_BITS}")
                om = self._tmp("o")
                self._emit(f"{om} = {a} - ({bname} << {OFFSET_BITS})")
            else:
                am = self._tmp("am")
                self._emit(f"{am} = {a}[:, {mname}]")
                self._emit(f"{bname} = int({am}.flat[0]) >> {OFFSET_BITS}")
                om = self._tmp("om")
                self._emit(f"{om} = {am} - ({bname} << {OFFSET_BITS})")
        self._emit(f"if {om}.min() < 0:")
        self._emit(f"    {self._divert(dv)}")
        if record:
            self._emit_record(
                inst, space, False, bname, om, mask, ty.size, shift=shift_k
            )
        vname = self._val_name(inst)
        if isinstance(ty, VectorType):
            el = self._dtype_name(ty.element.numpy_dtype)
            kel = ty.element.numpy_dtype.itemsize
            comp = self._comp_name(ty.count)
            o = om
            if not full:
                # safe-fill: lanes off the mask read the first live
                # lane's address (they are dead, but keep full width)
                sf = self._tmp("sf")
                self._emit(
                    f"{sf} = _np.where({mname}, {a}, {a}[:, {j0}:{j0 + 1}])"
                )
                if pgep is not None:
                    o = sf  # already byte offsets
                else:
                    o = self._tmp("o2")
                    self._emit(f"{o} = {sf} - ({bname} << {OFFSET_BITS})")
            bi = self._tmp("bi")
            self._emit(
                f"{bi} = {self._idx_expr(o, kel)}[..., None] + {comp}"
            )
            self._emit("try:")
            self._emit(f"    {vname} = _mem[{bname}].view({el}).take({bi})")
            self._emit("except (IndexError, KeyError):")
            if record:
                self._emit("    del _rec[-1]")
            self._emit(f"    {self._divert(dv)}")
        else:
            dt = _np_type(ty)
            dn = self._dtype_name(dt)
            # ndarray.take over the flat element view: same values and
            # the same IndexError contract as a fancy index, measurably
            # faster (no advanced-indexing setup per gather)
            self._emit("try:")
            if full:
                idx = om if shift_k else self._idx_expr(om, dt.itemsize)
                self._emit(
                    f"    {vname} = _mem[{bname}].view({dn}).take({idx})"
                )
            else:
                # gather the masked lanes only, then widen by filling
                # with the first lane's value — exactly the safe-fill
                # result (lane j0 is the first set bit, position 0)
                vm = self._tmp("vm")
                self._emit(
                    f"    {vm} = _mem[{bname}].view({dn})"
                    f".take({self._idx_expr(om, dt.itemsize)})"
                )
            self._emit("except (IndexError, KeyError):")
            if record:
                self._emit("    del _rec[-1]")
            self._emit(f"    {self._divert(dv)}")
            if not full:
                self._emit(f"{vname} = {vm}[:, {self._widen_name(mask)}]")

    def _emit_store(
        self, inst: Store, mask, full, j: int, pending, dv: int,
        pgep: Optional[GEP] = None,
    ) -> None:
        val = self._ref(inst.value, pending)
        mname = None if full else self._mask_name(mask)
        if self._is_slot_access(inst):
            # full-mask slot writes skip the boolean fancy index: a
            # broadcast setitem assigns (and casts) the same values
            s = self._slot_name(inst.ptr)
            vec_slot = isinstance(inst.ptr.allocated_type, VectorType)
            val_is_vec = isinstance(inst.value.type, VectorType)
            if full:
                if (
                    self.loop is None
                    and self._last_slot_store.get(inst.ptr) == (self.si, j)
                    and not vec_slot
                    and not val_is_vec
                ):
                    # final full-width write to this slot: rebind to a
                    # (possibly broadcast) view instead of copying into
                    # the backing array — nothing ever writes it again,
                    # and later reads alias the same values
                    self._emit(
                        f"{s} = _np.broadcast_to(_np.asarray({val})"
                        f".astype({s}.dtype, copy=False), {s}.shape)"
                    )
                elif vec_slot and not val_is_vec:
                    self._emit(f"{s}[...] = {val}[..., None]")
                else:
                    self._emit(f"{s}[...] = {val}")
                return
            v = self._tmp("v")
            if vec_slot:
                if val_is_vec:
                    self._emit(f"{v} = _np.broadcast_to({val}, {s}.shape)")
                    self._emit(f"{s}[:, {mname}, :] = {v}[:, {mname}, :]")
                else:
                    self._emit(f"{v} = _np.broadcast_to({val}, {s}.shape[:2])")
                    self._emit(f"{s}[:, {mname}, :] = {v}[:, {mname}, None]")
            else:
                self._emit(f"{v} = _np.broadcast_to({val}, {s}.shape)")
                self._emit(
                    f"{s}[:, {mname}] = "
                    f"{v}[:, {mname}].astype({s}.dtype, copy=False)"
                )
            return
        ty = inst.value.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        shift_k = 0
        if pgep is not None:
            bname, boff = self._entry_base(pgep.base)
            o = self._tmp("o")
            if full and not isinstance(ty, VectorType):
                sdt = _np_type(ty)
                if sdt == np.dtype(bool):
                    sdt = np.dtype(np.uint8)
                shift_k = self._elem_shift(pgep, sdt.itemsize)
            if full and shift_k:
                # element-index domain (see the load path): aligned-base
                # guard, then element indices straight from the raw terms
                self._emit(f"if ({boff} & {(1 << shift_k) - 1}).any():")
                self._emit(f"    {self._divert(dv)}")
                eb = self._cse_term(f"({boff} >> {shift_k})")
                self._emit(
                    f"{o} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, eb, pending, elem=1 << shift_k)}"
                    f", (G, N))"
                )
            elif full:
                self._emit(
                    f"{o} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, boff, pending)}, (G, N))"
                )
            else:
                nm = int(np.count_nonzero(mask))
                self._emit(
                    f"{o} = _np.broadcast_to("
                    f"{self._gep_offset_expr(pgep, boff, pending, mname)}"
                    f", (G, {nm}))"
                )
        else:
            ptr = self._ref(inst.ptr, pending)
            a = self._tmp("a")
            bname = self._tmp("b")
            self._emit(f"{a} = _np.broadcast_to({ptr}, (G, N))")
            if full:
                am = a
            else:
                am = self._tmp("am")
                self._emit(f"{am} = {a}[:, {mname}]")
            self._emit(f"{bname} = int({am}.flat[0]) >> {OFFSET_BITS}")
            o = self._tmp("o")
            self._emit(f"{o} = {am} - ({bname} << {OFFSET_BITS})")
        # two scalar reductions instead of a batch-wide shift + any():
        # min() catches negative offsets, max() anything past the
        # offset field — together exactly the lanes the shift would flag
        # (in the element domain the field is narrower by the shift)
        self._emit(
            f"if {o}.min() < 0"
            f" or (int({o}.max()) >> {OFFSET_BITS - shift_k}) != 0:"
        )
        self._emit(f"    {self._divert(dv)}")
        if record:
            self._emit_record(
                inst, space, True, bname, o, mask, ty.size, shift=shift_k
            )
        if isinstance(ty, VectorType):
            el = self._dtype_name(ty.element.numpy_dtype)
            kel = ty.element.numpy_dtype.itemsize
            comp = self._comp_name(ty.count)
            bi = self._tmp("bi")
            self._emit(
                f"{bi} = {self._idx_expr(o, kel)}[..., None] + {comp}"
            )
            if full:
                self._emit_scatter(
                    f"_mem[{bname}].view({el})[{bi}] = {val}", record, dv
                )
            else:
                v = self._tmp("v")
                self._emit(
                    f"{v} = _np.broadcast_to({val}, (G, N, {ty.count}))"
                )
                self._emit_scatter(
                    f"_mem[{bname}].view({el})[{bi}] = {v}[:, {mname}]",
                    record, dv,
                )
        else:
            dt = _np_type(ty)
            if dt == np.dtype(bool):
                dt = np.dtype(np.uint8)
            dn = self._dtype_name(dt)
            if full:
                # the setitem broadcasts the (possibly group-uniform)
                # value against the (G, N) index array and casts — the
                # very values the masked assignment would write
                idx = o if shift_k else self._idx_expr(o, dt.itemsize)
                self._emit_scatter(
                    f"_mem[{bname}].view({dn})[{idx}]"
                    f" = {val}.astype({dn}, copy=False)",
                    record, dv,
                )
                return
            v = self._tmp("v")
            if dt == np.dtype(np.uint8) and isinstance(
                inst.value.type, BoolType
            ):
                self._emit(f"{v} = {val}.astype(_np.uint8)")
                self._emit(f"{v} = _np.broadcast_to({v}, (G, N))")
            else:
                self._emit(f"{v} = _np.broadcast_to({val}, (G, N))")
            self._emit_scatter(
                f"_mem[{bname}].view({dn})[{self._idx_expr(o, dt.itemsize)}]"
                f" = {v}[:, {mname}].astype({dn}, copy=False)",
                record, dv,
            )

    def _emit_scatter(self, line: str, record: bool, dv: int) -> None:
        """A store past its buffer's end (or into no buffer) diverts, so
        the tape path raises the named fault; re-running the store
        there rewrites the same values."""
        self._emit("try:")
        self._emit(f"    {line}")
        self._emit("except (IndexError, KeyError):")
        if record:
            self._emit("    del _rec[-1]")
        self._emit(f"    {self._divert(dv)}")

    def _emit_record(
        self,
        inst,
        space,
        is_store: bool,
        bname: str,
        offs: str,
        mask,
        elem: int,
        shift: int = 0,
    ) -> None:
        lanes = self._lanes_name(mask)
        # element-domain sites defer the byte conversion out of the
        # replay: the record carries ``(indices, shift)`` and
        # ``split_records`` rebuilds ``indices << shift`` lazily
        off_f = f"({offs}, {shift})" if shift else offs
        self._emit(
            f"_rec.append((_AS.{space.name}, {is_store}) + rt.map_sid({bname})"
            f" + ({off_f}, {lanes}, {elem}, {self._phase_expr()}, "
            f"{self._inst_id_ref(inst)}, _live))"
        )

    def _emit_alloca(self, inst: Alloca) -> None:
        ty = inst.allocated_type
        if isinstance(ty, ArrayType):
            nbytes = ty.size * self.n
            lo = self._laneoff_name(ty.size)
            self._emit(
                f"{self._val_name(inst)} = "
                f"(rt.private_slab({self._arena_expr()}, {nbytes}).base_addr"
                f" + _live * {nbytes})[:, None] + {lo}"
            )
            self.arena += 1
            return
        s = self._slot_name(inst)
        if isinstance(ty, VectorType):
            el = self._dtype_name(ty.element.numpy_dtype)
            self._emit(f"{s} = _np.zeros((G, N, {ty.count}), dtype={el})")
        else:
            dn = self._dtype_name(_np_type(ty))
            self._emit(f"{s} = _np.zeros((G, N), dtype={dn})")

    def _emit_call(self, inst: Call, pending) -> None:
        if inst.callee == "barrier":
            self.phase += 1
            return
        if inst.callee in ("mem_fence", "printf"):
            return
        args = ", ".join(self._ref(a, pending) for a in inst.args)
        self._emit(
            f"{self._val_name(inst)} = "
            f"_eval({self._call_ref(inst)}, [{args}], rt.bctx)"
        )

    def _emit_extract(self, inst: ExtractElement, pending) -> None:
        vname = self._val_name(inst)
        vec = self._ref(inst.vec, pending)
        if isinstance(inst.index, Constant):
            self._emit(f"{vname} = {vec}[..., {int(inst.index.value)}]")
            return
        iv = self._ref(inst.index, pending)
        xv, xi = self._tmp("xv"), self._tmp("xi")
        self._emit(f"{xv}, {xi} = {vec}, {iv}")
        self._emit(f"if {xi}.ndim + 1 > {xv}.ndim:")
        self._emit(
            f"    {xv} = _np.broadcast_to({xv}, {xi}.shape + ({xv}.shape[-1],))"
        )
        self._emit(f"elif {xi}.ndim + 1 < {xv}.ndim:")
        self._emit(f"    {xi} = _np.broadcast_to({xi}, {xv}.shape[:-1])")
        self._emit(
            f"{vname} = _np.take_along_axis({xv}, {xi}[..., None], axis=-1)"
            f"[..., 0]"
        )

    def _emit_insert(self, inst: InsertElement, pending) -> None:
        vname = self._val_name(inst)
        vec = self._ref(inst.vec, pending)
        val = self._ref(inst.value, pending)
        xv, xw = self._tmp("xv"), self._tmp("xw")
        self._emit(f"{xv}, {xw} = {vec}, {val}")
        self._emit(f"if {xw}.ndim + 1 > {xv}.ndim:")
        self._emit(
            f"    {xv} = _np.broadcast_to({xv}, {xw}.shape + ({xv}.shape[-1],))"
        )
        self._emit(f"{xv} = {xv}.copy()")
        if isinstance(inst.index, Constant):
            self._emit(f"{xv}[..., {int(inst.index.value)}] = {xw}")
        else:
            iv = self._ref(inst.index, pending)
            xj = self._tmp("xj")
            self._emit(f"{xj} = _np.broadcast_to({iv}, {xv}.shape[:-1])")
            self._emit(
                f"_np.put_along_axis({xv}, {xj}[..., None], "
                f"_np.broadcast_to({xw}, {xv}.shape[:-1])[..., None], axis=-1)"
            )
        self._emit(f"{vname} = {xv}")

    # -- step / guard ------------------------------------------------------
    def _emit_step(self, step: _Step) -> None:
        bb = step.bb
        mask = step.mask
        full = bool(mask.all())
        j0 = int(mask.argmax())
        fused, skipped, divert_at, deferred = self._plan_block(bb)
        dgeps = set(deferred.values())
        insts = bb.instructions
        pending: Dict[Value, str] = {}
        self._step_cse.clear()
        self.ic += step.weight
        self._emit(f"# s{self.si}: {bb.name}")
        for j, inst in enumerate(insts):
            if inst.is_terminator:
                break
            if j in skipped or j in dgeps:
                continue
            if j in fused:
                pending[inst] = self._pure_expr(inst, pending)
                continue
            if isinstance(inst, Load):
                dg = deferred.get(j)
                self._emit_load(
                    inst, mask, full, j0, j, pending, divert_at.get(j, j),
                    None if dg is None else insts[dg],
                )
            elif isinstance(inst, Store):
                dg = deferred.get(j)
                self._emit_store(
                    inst, mask, full, j, pending, divert_at.get(j, j),
                    None if dg is None else insts[dg],
                )
            elif isinstance(inst, Alloca):
                self._emit_alloca(inst)
            elif isinstance(inst, Call):
                self._emit_call(inst, pending)
            elif isinstance(inst, ExtractElement):
                self._emit_extract(inst, pending)
            elif isinstance(inst, InsertElement):
                self._emit_insert(inst, pending)
            elif isinstance(inst, _FUSABLE):
                self._emit(
                    f"{self._val_name(inst)} = {self._pure_expr(inst, pending)}"
                )
            else:  # pragma: no cover - same coverage as the tape tier
                raise RuntimeLaunchError(
                    f"codegen backend cannot emit {type(inst).__name__}"
                )
        self._emit_guard(step)
        self.si += 1

    def _emit_guard(self, step: _Step) -> None:
        term = step.bb.instructions[-1]
        if not isinstance(term, CondBr) or isinstance(term.cond, Constant):
            return
        cond = self._ref(term.cond, {})
        if step.mask.all():
            ename = self._expected_name(step.cond)
            self._emit(f"if ({cond} != {ename}).any():")
        else:
            mname = self._mask_name(step.mask)
            ename = self._expected_name(step.cond[step.mask])
            self._emit(f"if ({cond}[..., {mname}] != {ename}).any():")
        self._emit(f"    {self._divert(-1)}")

    # -- loop detection ----------------------------------------------------
    def _step_keys(self) -> List[tuple]:
        keys = []
        for step in self.steps:
            keys.append((
                self.bidx[step.bb],
                step.mask.tobytes(),
                step.cond.tobytes() if step.cond is not None else None,
            ))
        return keys

    def _find_loop(self, keys: List[tuple], i: int) -> Optional[Tuple[int, int]]:
        best = None
        for p in range(1, _MAX_PERIOD + 1):
            if i + 2 * p > len(keys):
                break
            r = 1
            while (
                i + (r + 1) * p <= len(keys)
                and keys[i + r * p: i + (r + 1) * p] == keys[i: i + p]
            ):
                r += 1
            if r >= _MIN_REPEATS and p * r >= 8:
                if best is None or p * r > best[0]:
                    best = (p * r, p, r)
        return (best[1], best[2]) if best else None

    def _period_deltas(self, i: int, p: int) -> Tuple[int, int, int]:
        dph = dic = dar = 0
        for step in self.steps[i: i + p]:
            dic += step.weight
            for inst in step.bb.instructions:
                if isinstance(inst, Call) and inst.callee == "barrier":
                    dph += 1
                elif isinstance(inst, Alloca) and isinstance(
                    inst.allocated_type, ArrayType
                ):
                    dar += 1
        return dph, dic, dar

    # -- assembly ----------------------------------------------------------
    def generate(self) -> str:
        keys = self._step_keys()
        i = 0
        while i < len(self.steps):
            found = self._find_loop(keys, i)
            if found is None:
                self._emit_step(self.steps[i])
                i += 1
                continue
            p, r = found
            dph, dic, dar = self._period_deltas(i, p)
            self.loop = {
                "p": p, "dph": dph, "dic": dic, "dar": dar,
                "si0": self.si, "phase0": self.phase,
                "ic0": self.ic, "arena0": self.arena,
            }
            self._emit(f"# loop: steps {i}..{i + p * r - 1}, {r} x {p}")
            self._emit(f"for _it in range({r}):")
            self.indent += "    "
            if dph:
                self._emit(f"_ph = {self.phase} + _it * {dph}")
            for step in self.steps[i: i + p]:
                self._emit_step(step)
            self.indent = self.indent[:-4]
            lp = self.loop
            self.loop = None
            self.si = lp["si0"] + p * r
            self.phase = lp["phase0"] + dph * r
            self.ic = lp["ic0"] + dic * r
            self.arena = lp["arena0"] + dar * r
            i += p * r

        plan = {
            "entries": [
                (
                    "arg" if isinstance(v, Argument) else "local",
                    v.index if isinstance(v, Argument) else self.lidx[v],
                    name,
                )
                for v, name in self.entries.items()
            ],
            "values": self.plan_values,
            "slots": self.plan_slots,
            "calls": [self.ipos[c] for c in self._calls],
            "insts": [self.ipos[v] for v in self._insts],
        }

        out: List[str] = [
            f"# generated by repro.runtime.codegen v{CODEGEN_VERSION}"
            " -- do not edit",
            f"# kernel: {self.fn.name}  key: {self.key}",
            "import numpy as _np",
            "from repro.ir.types import AddressSpace as _AS",
            "from repro.runtime.builtins import eval_builtin as _eval",
            "",
            f"N = {self.n}",
            "_lanes = _np.arange(N, dtype=_np.int64)",
            "",
            _HELPERS,
        ]
        out.extend(self.const_lines)
        out.append("")
        out.append(f"__PLAN__ = {plan!r}")
        out.append("")
        out.append("def _replay(rt):")
        out.append("    _mem = rt.memory.buffers")
        out.append("    _rec = rt.records")
        out.append("    _live = rt.live")
        out.append("    G = len(_live)")
        if self._insts:
            out.append("    _ii = rt.inst_ids")
        names = list(self.entries.values())
        if names:
            out.append(f"    {', '.join(names)}{',' if len(names) == 1 else ''}"
                       " = rt.entry_values()")
        out.extend(self.entry_base_lines)
        out.append('    with _np.errstate(all="ignore"):')
        if self.lines:
            out.extend(self.lines)
        else:
            out.append("        pass")
        out.append("    return None")
        out.append("")
        return "\n".join(out)


def generate_source(
    fn: Function,
    steps: List[_Step],
    n: int,
    collect_trace: bool,
    key: str,
) -> str:
    """Emit the replay module's source for one pilot schedule."""
    return _SourceGen(fn, steps, n, collect_trace, key).generate()


# ---------------------------------------------------------------------------
# module cache (in-process + on-disk artifacts)
# ---------------------------------------------------------------------------

_MODULE_CACHE: Dict[str, Tuple[object, dict, int]] = {}
_MODULE_CACHE_MAX = 128


def clear_codegen_cache() -> None:
    """Drop every in-process compiled module and cached pilot schedule
    (tests; the disk tier is untouched)."""
    _MODULE_CACHE.clear()
    _PILOT_CACHE.clear()


def _seal(source: str) -> str:
    digest = hashlib.sha256(source.encode()).hexdigest()
    return f"# repro-codegen sha256:{digest}\n{source}"


def _unseal(sealed: str) -> Optional[str]:
    """Return the validated body, or None when the artifact is corrupt."""
    nl = sealed.find("\n")
    if nl < 0 or not sealed.startswith("# repro-codegen sha256:"):
        return None
    digest = sealed[len("# repro-codegen sha256:"): nl].strip()
    body = sealed[nl + 1:]
    if hashlib.sha256(body.encode()).hexdigest() != digest:
        return None
    return body


def _load_module(source: str, key: str):
    code = compile(source, f"<codegen:{key}>", "exec")
    ns: dict = {}
    exec(code, ns)
    return ns["_replay"], ns["__PLAN__"]


def _artifact_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"cg_{key}.py")


def _obtain_module(
    key: str,
    fn: Function,
    steps: List[_Step],
    n: int,
    collect_trace: bool,
    cache_dir: Optional[str],
) -> Tuple[object, dict, str, int]:
    """Returns ``(replay_fn, plan, tier, source_bytes)`` with ``tier`` one
    of ``"memory"``, ``"disk"`` or ``"compile"``."""
    hit = _MODULE_CACHE.get(key)
    if hit is not None:
        return hit[0], hit[1], "memory", hit[2]

    if cache_dir:
        path = _artifact_path(cache_dir, key)
        try:
            with open(path, encoding="utf-8") as fh:
                body = _unseal(fh.read())
            if body is not None:
                replay, plan = _load_module(body, key)
                _remember(key, replay, plan, len(body))
                return replay, plan, "disk", len(body)
        except Exception:
            # unreadable, corrupt or unloadable artifact: fall through
            # to a fresh compile (which rewrites it)
            pass

    source = generate_source(fn, steps, n, collect_trace, key)
    replay, plan = _load_module(source, key)
    _remember(key, replay, plan, len(source))
    if cache_dir:
        try:
            _publish_artifact(cache_dir, key, source)
        except OSError:
            pass  # the disk tier is best-effort
    return replay, plan, "compile", len(source)


def _publish_artifact(cache_dir: str, key: str, source: str) -> None:
    """Atomically write the sealed artifact: temp file in the cache dir,
    then ``os.replace`` onto the final path.  Whatever fails — the seal,
    the write, the rename — the descriptor is closed and the temp file
    unlinked, so an interrupted publish never leaks an fd or leaves a
    stray ``.cg_*`` file for later runs to trip over."""
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".cg_", suffix=".py", dir=cache_dir)
    try:
        try:
            fh = os.fdopen(fd, "w", encoding="utf-8")
        except Exception:
            os.close(fd)
            raise
        with fh:
            fh.write(_seal(source))
        os.replace(tmp, _artifact_path(cache_dir, key))
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass  # replaced: the publish succeeded


def _remember(key: str, replay, plan: dict, size: int) -> None:
    if len(_MODULE_CACHE) >= _MODULE_CACHE_MAX:
        _MODULE_CACHE.pop(next(iter(_MODULE_CACHE)))
    _MODULE_CACHE[key] = (replay, plan, size)


# ---------------------------------------------------------------------------
# pilot recording and schedule cache
# ---------------------------------------------------------------------------


class _RecordingExecutor(GroupExecutor):
    """The pilot: the reference executor, plus a schedule tape."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps: List[_Step] = []
        self.emit_group_executed = False

    def exec_block(self, bb: BasicBlock, mask: np.ndarray):
        step = _Step(bb, mask.copy())
        self.steps.append(step)
        out = super().exec_block(bb, mask)
        term = bb.instructions[-1]
        if isinstance(term, CondBr):
            step.cond = self.get(term.cond).copy()
        step.succ = [(succ, m.copy()) for succ, m in out]
        step.alive_after = self.alive.copy()
        return out


class _PilotTraceFacts:
    __slots__ = ("inst_count", "barriers")

    def __init__(self, inst_count: int, barriers: int) -> None:
        self.inst_count = inst_count
        self.barriers = barriers


class _PilotSchedule:
    """Everything :class:`CodegenExecutor` reads off a recording pilot.

    Holds a strong reference to the pilot's :class:`Function` — the
    steps embed that object's IR nodes, so a cache hit is only valid
    when the launch uses the *same* function object (the frontend's
    compile cache makes repeated launches share one).
    """

    __slots__ = ("fn", "steps", "trace", "steps_annotated", "module_keys")

    def __init__(self, fn: Function, pilot: _RecordingExecutor) -> None:
        self.fn = fn
        self.steps = pilot.steps
        self.trace = (
            _PilotTraceFacts(pilot.trace.inst_count, pilot.trace.barriers)
            if pilot.trace is not None
            else None
        )
        # the first executor built from the recording already annotated
        # the steps, and the module key is a pure function of the
        # schedule — both are cached so replays skip the rescan
        self.steps_annotated = True
        self.module_keys: Dict[int, str] = {}


_PILOT_CACHE: Dict[tuple, _PilotSchedule] = {}
_PILOT_CACHE_MAX = 64


def _pilot_cache_key(
    fn: Function,
    lsize: Tuple[int, ...],
    gsize: Tuple[int, ...],
    gid0: Tuple[int, ...],
    collect_trace: bool,
) -> tuple:
    return (function_fingerprint(fn), lsize, gsize, gid0, collect_trace)


def _remember_pilot(key: tuple, sched: _PilotSchedule) -> None:
    if len(_PILOT_CACHE) >= _PILOT_CACHE_MAX:
        _PILOT_CACHE.pop(next(iter(_PILOT_CACHE)))
    _PILOT_CACHE[key] = sched


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class CodegenExecutor(TapeExecutor):
    """Replays batches through the generated module; the tape closures
    are compiled lazily, only when a batch diverts."""

    def __init__(self, *args, pilot, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps = pilot.steps
        self.sched_inst_count = pilot.trace.inst_count if pilot.trace else 0
        self.sched_barriers = pilot.trace.barriers if pilot.trace else 0
        if not getattr(pilot, "steps_annotated", False):
            self._annotate_steps()
        self._closures_ready = False
        self.store: Optional[TraceSpillStore] = None
        self._replay_fn = None
        self._entry_vals: List[Value] = []
        self._env_names: List[Tuple[str, Value]] = []
        self._slot_names: List[Tuple[str, Alloca]] = []
        self.calls: List[Call] = []
        self.inst_ids: Tuple[int, ...] = ()
        self.diverted_batches = 0
        self._diverted = False

    def _annotate_steps(self) -> None:
        """Static per-step facts: alive masks and instruction weights.

        Cheap and closure-free — generated source folds instruction-count
        prefixes without paying for closures it only compiles on a
        divergence handoff.
        """
        alive = np.ones(self.n, dtype=bool)
        weight = block_weights(self.fn)
        for step in self.steps:
            step.alive_before = alive
            alive = step.alive_after
            step.weight = weight[step.bb] * int(step.mask.sum())

    def _compile_closures(self) -> None:
        """Compile each step's closure list and branch guard."""
        if self._closures_ready:
            return
        self._closures_ready = True
        for step in self.steps:
            step.ops, step.op_pos = self._closures_for(step.bb, step.mask)
            term = step.bb.instructions[-1]
            if isinstance(term, CondBr):
                self._set_guard(step, term)

    def bind(self, replay_fn, plan: dict) -> None:
        """Resolve the module's positional ``__PLAN__`` against the live
        function (instruction ids differ between processes)."""
        blocks = self.fn.blocks

        def inst_at(b: int, i: int):
            return blocks[b].instructions[i]

        self._replay_fn = replay_fn
        self._entry_vals = [
            self.fn.args[idx] if kind == "arg" else self.fn.local_arrays[idx]
            for kind, idx, _name in plan["entries"]
        ]
        self._env_names = [
            (name, inst_at(b, i)) for name, (b, i) in plan["values"].items()
        ]
        self._slot_names = [
            (name, inst_at(b, i)) for name, (b, i) in plan["slots"].items()
        ]
        self.calls = [inst_at(b, i) for b, i in plan["calls"]]
        self.inst_ids = tuple(inst_at(b, i).id for b, i in plan["insts"])

    # -- hooks called by generated code ------------------------------------
    def entry_values(self) -> List[np.ndarray]:
        env = self.env
        return [env[v] for v in self._entry_vals]

    def map_sid(self, buffer_id: int) -> Tuple[int, int]:
        return self.scratch_map.get(buffer_id, (buffer_id, 0))

    def private_slab(self, k: int, nbytes_per_group: int) -> Buffer:
        return self._private_slab(k, nbytes_per_group)

    def divert(
        self,
        si: int,
        j: int,
        phase: int,
        barriers: int,
        inst_count: int,
        arena_next: int,
        snapshot: Dict[str, object],
    ) -> None:
        """Hand the batch to the tape closures mid-step.

        ``snapshot`` is the generated function's ``locals()``; the plan
        name maps rebuild the tape's ``env``/``slots`` from it, then the
        closures finish the batch starting at step ``si``, op ``j`` (or
        just the guard when ``j`` is -1) — evicting whichever groups
        actually diverge, exactly as a pure tape run would.
        """
        self._diverted = True
        self._compile_closures()
        self.phase = phase
        self.barriers = barriers
        self.inst_count = inst_count
        self.arena_next = arena_next
        env = self.env
        for name, v in self._env_names:
            arr = snapshot.get(name)
            if arr is not None:
                env[v] = arr
        for name, a in self._slot_names:
            arr = snapshot.get(name)
            if arr is not None:
                self.slots[a] = arr
        step = self.steps[si]
        op_start = step.op_pos[j] if j >= 0 else len(step.ops)
        self._run_steps(si, op_start, count_first=False)
        return None

    # -- batched replay ----------------------------------------------------
    def replay_batch(
        self, slot_gids: List[Tuple[int, ...]]
    ) -> Dict[int, Optional[GroupTrace]]:
        self._reset_batch(slot_gids)
        self._diverted = False
        try:
            if len(self.live):
                self._replay_fn(self)
            if self._diverted:
                self.diverted_batches += 1
            if (
                self._diverted
                or self.store is None
                or not self.collect_trace
            ):
                return self._finish_batch()
            # clean batch: hand the raw records to the spill store and
            # defer per-group event splitting to first access
            entries = [
                (int(s), self.slot_gids[int(s)]) for s in self.live
            ]
            self._done.update(self.store.adopt_batch(
                self.records, entries, self.n,
                self.sched_inst_count, self.sched_barriers,
            ))
            return self._done
        finally:
            self._cleanup_batch()


def execute_codegen(
    kernel: Function,
    picks: np.ndarray,
    groups_per_dim: Tuple[int, ...],
    gsize: Tuple[int, ...],
    lsize: Tuple[int, ...],
    arg_values: Dict[Argument, object],
    local_buffers: Dict[LocalArray, Buffer],
    local_arg_buffers: Dict[Argument, Buffer],
    memory: Memory,
    private_arena: List[Buffer],
    collect_trace: bool,
    tape_batch: int,
    cache_dir: Optional[str] = None,
    store: Optional[TraceSpillStore] = None,
) -> Tuple[List[GroupTrace], int]:
    """Execute ``picks`` with the codegen backend — the tape pipeline
    with the closure replay swapped for the generated module."""
    ndim = len(gsize)

    def gid_of(flat: int) -> Tuple[int, ...]:
        gid = []
        rem = int(flat)
        for d in range(ndim):
            gid.append(rem % groups_per_dim[d])
            rem //= groups_per_dim[d]
        return tuple(gid)

    gids = [gid_of(p) for p in picks]
    n_lanes = int(np.prod(lsize))

    t0 = time.perf_counter()
    traces: Dict[int, Optional[GroupTrace]] = {}
    work_items = 0

    # a cached pilot schedule skips the recording interpreter entirely;
    # the former pilot group then replays through the module like any
    # other, and the guards evict it if its control flow diverged from
    # the cached schedule — correctness never rests on the cache
    pkey = _pilot_cache_key(kernel, lsize, gsize, gids[0], collect_trace)
    pilot = _PILOT_CACHE.get(pkey)
    if pilot is not None and pilot.fn is not kernel:
        pilot = None
    pilot_cached = pilot is not None

    if not pilot_cached:
        ctx0 = WorkItemContext(gids[0], lsize, gsize)
        pilot_gt = GroupTrace(gids[0], ctx0.n_lanes)
        rec = _RecordingExecutor(
            kernel, ctx0, memory, arg_values, local_buffers,
            local_arg_buffers, pilot_gt, private_arena=private_arena,
        )
        rec.run()
        work_items = ctx0.n_lanes
        if store is not None and collect_trace:
            store.adopt(pilot_gt)
        traces[0] = pilot_gt if collect_trace else None
        pilot = rec

    if len(picks) > 1:
        ex = CodegenExecutor(
            kernel, lsize, gsize, arg_values, local_buffers,
            local_arg_buffers, memory, private_arena, collect_trace,
            pilot=pilot,
        )
        ex.store = store
        if not pilot_cached:
            pilot = _PilotSchedule(kernel, pilot)
            _remember_pilot(pkey, pilot)
        key = pilot.module_keys.get(tape_batch)
        if key is None:
            key = cache_key(
                kernel, ex.steps, ex.n, lsize, gsize, tape_batch,
                collect_trace,
            )
            pilot.module_keys[tape_batch] = key
        replay, plan, tier, src_bytes = _obtain_module(
            key, kernel, ex.steps, ex.n, collect_trace, cache_dir
        )
        ex.bind(replay, plan)
        if tier == "compile":
            events.emit(
                "codegen_compile",
                kernel=kernel.name,
                steps=len(ex.steps),
                source_bytes=src_bytes,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        else:
            events.emit(
                "codegen_cache_hit", kernel=kernel.name, tier=tier, key=key
            )
        if pilot_cached:
            events.emit(
                "codegen_cache_hit", kernel=kernel.name, tier="pilot", key=key
            )
        t1 = time.perf_counter()
        rest = list(range(0 if pilot_cached else 1, len(picks)))
        n_batches = 0
        for lo in range(0, len(rest), tape_batch):
            chunk = rest[lo:lo + tape_batch]
            n_batches += 1
            out = ex.replay_batch([gids[i] for i in chunk])
            if store is not None and collect_trace:
                store.adopt_group_lists(out)
            for slot, gt in out.items():
                traces[chunk[slot]] = gt
            work_items += n_lanes * len(chunk)
        events.emit(
            "codegen_replay",
            kernel=kernel.name,
            groups=len(rest),
            batches=n_batches,
            evicted=ex.evicted,
            wall_ms=(time.perf_counter() - t1) * 1e3,
        )

    for i in range(len(picks)):
        events.emit(
            "group_executed", group_id=list(gids[i]), work_items=n_lanes
        )
    group_traces = (
        [traces[i] for i in range(len(picks))] if collect_trace else []
    )
    return group_traces, work_items
