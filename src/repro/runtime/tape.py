"""Tape-compiled, group-batched execution backend for the SIMT interpreter.

The reference path (:mod:`repro.runtime.interpreter`) vectorises over the
*lane* axis but re-runs the block scheduler and per-instruction
``isinstance`` dispatch for every work-group.  Ten of the eleven paper
apps steer every work-group through the same block schedule; the
eleventh, AMD-SS, differs between groups only in which lanes take
``if (text[gid + j] != c) ok = 0;``, a predicable if-arm (below).  So
that per-group cost is pure overhead.  This backend removes it by
running work-groups in batches with a new leading *group* axis — every
value is ``(G, n_lanes)`` (or ``(G, n, k)`` for vectors; group-uniform
values stay ``(n,)`` and broadcast) — so one numpy op covers the whole
batch:

1. **Leader-recorded first batch**: the first batch runs through the
   reference scheduler's logic (min-RPO pending dict, ``alive`` mask,
   ``Br``/``CondBr``/``Ret``) steered by its first pick, row 0, the
   *leader*.  Each ``(block, mask)`` the leader reaches is compiled the
   first time into a list of argument-free Python closures with operand
   getters, dtypes and builtin handlers pre-resolved, and appended to a
   straight-line tape of :class:`_Step`\\ s together with the leader's
   branch-condition row and successor masks.
2. **Replay**: every later batch runs the recorded steps unchanged.
   Loop iterations share one closure list; only dynamic state (barrier
   phase, retired instructions, the private-arena cursor) lives on the
   executor.

**Predicated if-arms.**  A ``CondBr`` whose ``if_true`` arm only
computes and reads or writes scalar private slots, and rejoins the
``if_false`` block (the exact rule is :func:`predicated_arms`), does not
end its step in a guard.  The arm runs as the last closure of its
branch's step, for every row at once: pure ops at full width, as the
reference runs them, and slot stores under each row's ``mask & cond``.
Each row counts its own retired arm instructions (``arm_insts``).  The
step's only successor is the join, so every group keeps one schedule
whatever its condition row.

Batched ``__local``/private storage lives in per-batch scratch buffers
with out-of-band ids (``_SCRATCH_BASE``), and batched memory events are
split back into bit-identical per-group :class:`GroupTrace`\\ s.  While
recording, the leader also does what a serial launch's first group
does for the rest of the launch: its barriers are checked for
divergence and its k-th private-array ``alloca`` claims
``private_arena[k]`` from the allocator.

Correctness never depends on uniformity: a **divergence guard** after
every other ``CondBr`` compares each group's condition row (on the step's
active lanes) against the leader's, and the load/store closures check
that every group resolves the access to the leader's buffer.  Any
group that disagrees is *evicted*: its partial trace is split out, the
scheduler's pending-dict is reconstructed from the tape prefix, and at
the end of the batch the group finishes on the reference scalar path
via :meth:`GroupExecutor.resume_block` — starting at the exact
instruction that diverged, so no side effect is re-applied.  The
leader is never evicted: the guard and the buffer check compare
against row 0.  A group whose access falls outside its buffer, or
whose lanes span two buffers, is evicted the same way, unless it is
the batch's first pick, which raises :class:`MemoryFault` directly;
either way a fault surfaces in pick order, as in a serial launch.

Batching reorders the side effects of *different* groups; results are
bit-identical to group-by-group execution for kernels whose work-groups are independent — the OpenCL
execution model's own requirement, enforced by the differential suite.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.cfg import predecessors
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    ICmp,
    Load,
    Ret,
    Select,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, VectorType
from repro.ir.values import Argument, Constant, LocalArray, Value
from repro.runtime import ops
from repro.runtime.buffers import (
    MAX_BUFFER_BYTES,
    OFFSET_BITS,
    OFFSET_MASK,
    Buffer,
    Memory,
)
from repro.runtime.builtins import WorkItemContext, eval_builtin
from repro.runtime.errors import MemoryFault, RuntimeLaunchError
from repro.runtime.interpreter import (
    GroupExecutor,
    _reverse_postorder,
    barrier_divergence,
    block_weights,
    memory_fault,
    merge_pending,
)
from repro.runtime.trace import GroupTrace, MemEvent
from repro.session import events

#: scratch (batch-local) buffer ids start here — far above any id the
#: ordinary allocator hands out, and small enough that ``id << 40``
#: still fits an int64 pointer.  Scratch buffers are registered into
#: ``Memory.buffers`` directly and removed at batch end, so
#: ``Memory._next_id`` is exactly where a serial launch leaves it.
_SCRATCH_BASE = 1 << 22


class _Step:
    """One executed (block, mask) of the recorded schedule."""

    __slots__ = (
        "bb", "mask", "succ", "cond", "alive_before", "weight", "ops", "guard",
    )

    def __init__(self, bb: BasicBlock, mask: np.ndarray) -> None:
        self.bb = bb
        self.mask = mask
        self.succ: List[Tuple[BasicBlock, np.ndarray]] = []
        #: the leader's full condition row, for a ``CondBr`` terminator
        self.cond: Optional[np.ndarray] = None
        self.alive_before: Optional[np.ndarray] = None
        self.weight = 0
        self.ops: List = []
        self.guard = None


def _scalar_slot(ptr: Value) -> bool:
    """Whether ``ptr`` is a register-allocated scalar private slot."""
    return isinstance(ptr, Alloca) and not isinstance(
        ptr.allocated_type, (ArrayType, VectorType)
    )


def _predicable(inst) -> bool:
    """An instruction a predicated arm may hold: pure, or a load/store of
    a scalar private slot (never traced, never faults)."""
    if isinstance(inst, (BinOp, ICmp, FCmp, Cast, Select)):
        return True
    return isinstance(inst, (Load, Store)) and _scalar_slot(inst.ptr)


def predicated_arms(
    fn: Function, rpo: Dict[BasicBlock, int]
) -> Dict[BasicBlock, BasicBlock]:
    """Map each block ``B`` whose ``CondBr`` arm can be predicated to
    that arm ``T`` (its ``if_true`` block; ``F`` is ``if_false``).

    ``T`` qualifies when ``T is not F``, ``B`` is its only predecessor,
    it ends in ``Br F``, ``rpo[B] < rpo[T] < rpo[F]``, every other
    instruction in it is :func:`_predicable`, and no value it defines is
    used outside it.  Then the min-RPO scheduler runs ``T`` right after
    ``B`` and ``F`` later with all of ``B``'s lanes, so running ``T``'s
    pure ops at full width and its slot stores under ``mask & cond`` as
    part of ``B``'s step is exact, whatever each group's condition.
    """
    preds = predecessors(fn)
    arms: Dict[BasicBlock, BasicBlock] = {}
    for bb in fn.blocks:
        term = bb.terminator
        if not isinstance(term, CondBr) or bb not in rpo:
            continue
        t, f = term.if_true, term.if_false
        if (
            t is not f
            and preds[t] == [bb]
            and isinstance(t.terminator, Br)
            and t.terminator.target is f
            and rpo[bb] < rpo[t] < rpo[f]
            and all(_predicable(i) for i in t.instructions[:-1])
            and all(u.parent is t for i in t.instructions for u, _ in i.uses)
        ):
            arms[bb] = t
    return arms


class _BatchedContext:
    """Mirror of :class:`WorkItemContext` with a leading group axis.

    Group-invariant queries (local ids, sizes) return the same ``(n,)``
    arrays the serial context returns — they broadcast against batched
    operands; per-group queries return ``(G, n)`` int64 arrays.
    """

    def __init__(
        self,
        slot_gids: List[Tuple[int, ...]],
        local_size: Tuple[int, ...],
        global_size: Tuple[int, ...],
    ) -> None:
        ndim = len(local_size)
        self.ndim = ndim
        self.local_size = local_size
        self.global_size = global_size
        self.num_groups = tuple(
            global_size[d] // local_size[d] for d in range(ndim)
        )
        n = int(np.prod(local_size))
        self.n_lanes = n
        flat = np.arange(n, dtype=np.int64)
        self.local_ids: List[np.ndarray] = []
        stride = 1
        for d in range(ndim):
            self.local_ids.append((flat // stride) % local_size[d])
            stride *= local_size[d]
        #: per dimension, the batch's group coordinates, shape (G,)
        self.gcols = [
            np.array([gid[d] for gid in slot_gids], dtype=np.int64)
            for d in range(ndim)
        ]
        self.global_ids = [
            self.local_ids[d][None, :] + self.gcols[d][:, None] * local_size[d]
            for d in range(ndim)
        ]

    def compact(self, keep: np.ndarray) -> None:
        self.gcols = [c[keep] for c in self.gcols]
        self.global_ids = [g[keep] for g in self.global_ids]

    def _dim(self, args: List[np.ndarray]) -> int:
        return int(np.asarray(args[0]).ravel()[0])

    def query(self, name: str, args: List[np.ndarray], n: int) -> np.ndarray:
        ones = np.ones(n, dtype=np.int64)
        if name == "get_global_id":
            d = self._dim(args)
            return self.global_ids[d] if d < self.ndim else 0 * ones
        if name == "get_local_id":
            d = self._dim(args)
            return self.local_ids[d] if d < self.ndim else 0 * ones
        if name == "get_group_id":
            d = self._dim(args)
            if d < self.ndim:
                return self.gcols[d][:, None] * ones
            return 0 * ones
        if name == "get_local_size":
            d = self._dim(args)
            return (self.local_size[d] if d < self.ndim else 1) * ones
        if name == "get_global_size":
            d = self._dim(args)
            return (self.global_size[d] if d < self.ndim else 1) * ones
        if name == "get_num_groups":
            d = self._dim(args)
            return (self.num_groups[d] if d < self.ndim else 1) * ones
        if name == "get_global_offset":
            return 0 * ones
        if name == "get_work_dim":
            return np.full(n, self.ndim, dtype=np.uint32)
        raise KeyError(name)


def _expected_ndim(v: Value) -> int:
    """The batched rank of a value: 3 for vectors, 2 otherwise.

    A smaller observed rank means the value is group-uniform (a plain
    ``(n,)``/``(n, k)`` array shared by every group) — those are never
    compacted and are copied whole into an evicted group's executor.
    """
    return 3 if isinstance(v.type, VectorType) else 2


class TapeExecutor:
    """Records the tape while its first batch runs and replays it over
    every later batch."""

    def __init__(
        self,
        fn: Function,
        lsize: Tuple[int, ...],
        gsize: Tuple[int, ...],
        arg_values: Dict[Argument, object],
        local_buffers: Dict[LocalArray, Buffer],
        local_arg_buffers: Dict[Argument, Buffer],
        memory: Memory,
        private_arena: List[Buffer],
        collect_trace: bool,
    ) -> None:
        self.fn = fn
        self.lsize = lsize
        self.gsize = gsize
        self.arg_values = arg_values
        self.local_buffers = local_buffers
        self.local_arg_buffers = local_arg_buffers
        self.memory = memory
        self.private_arena = private_arena
        self.collect_trace = collect_trace
        self.steps: List[_Step] = []
        self.n = int(np.prod(lsize))
        self._lane_ids = np.arange(self.n, dtype=np.int64)
        #: a group that follows the whole tape retires this many
        #: instructions and passes this many barriers
        self.sched_inst_count = 0
        self.sched_barriers = 0
        #: the leader's live lanes while the tape is being recorded (its
        #: barriers are checked against them); None during replay
        self._rec_alive: Optional[np.ndarray] = None

        # -- dynamic (per-batch) state, read by the shared closures ------
        self.env: Dict[Value, Optional[np.ndarray]] = {}
        self.slots: Dict[Alloca, np.ndarray] = {}
        #: original batch slot index of each surviving row, ascending
        self.live: np.ndarray = np.empty(0, np.int64)
        self.phase = 0
        self.barriers = 0
        self.inst_count = 0
        #: per surviving row, the instructions its predicated arms
        #: retired (``inst_count`` is the schedule's, shared by all rows)
        self.arm_insts: np.ndarray = np.empty(0, np.int64)
        self.arena_next = 0
        self.step_idx = 0
        #: one tuple per traced access: (space, is_store, buffer_id,
        #: scratch_stride, int32 offsets (G, L), lanes (L,), elem_size,
        #: phase, inst_id, live), where ``live`` maps the offsets' rows
        #: to slots
        self.records: List[tuple] = []
        self.bctx: Optional[_BatchedContext] = None
        self.slot_gids: List[Tuple[int, ...]] = []
        #: scratch buffer id -> (serial buffer id, per-group byte stride)
        self.scratch_map: Dict[int, Tuple[int, int]] = {}
        self._scratch: List[Buffer] = []
        self._scratch_next = _SCRATCH_BASE
        self._private_slabs: List[Tuple[Buffer, int]] = []
        self._batch_size = 0
        self._done: Dict[int, Optional[GroupTrace]] = {}
        #: evicted groups waiting to finish on the reference path
        self._deferred: List[tuple] = []
        self.evicted = 0

        self._consts: Dict[Constant, np.ndarray] = {}
        #: (block, mask bytes) -> its closures
        self._block_ops: Dict[Tuple[BasicBlock, bytes], List] = {}
        #: branch block -> its predicated arm; set when recording starts
        self._arms: Dict[BasicBlock, BasicBlock] = {}
        self._weights: Dict[BasicBlock, int] = {}
        self.n_closures = 0
        self.n_arms = 0
        self.compile_s = 0.0

    # -- compilation -------------------------------------------------------
    def _closures_for(self, bb: BasicBlock, mask: np.ndarray) -> List:
        """The closure list of ``(bb, mask)``, compiled on first use: a
        loop body scheduled 400 times compiles once."""
        key = (bb, mask.tobytes())
        entry = self._block_ops.get(key)
        if entry is None:
            t0 = time.perf_counter()
            entry = self._block_ops[key] = self._compile_block(bb, mask)
            if bb in self._arms:
                entry.append(self._compile_arm(bb, mask))
                self.n_arms += 1
            self.compile_s += time.perf_counter() - t0
            self.n_closures += len(entry)
        return entry

    def _set_guard(self, step: _Step, term: CondBr) -> None:
        step.guard = (
            self._getter(term.cond),
            step.cond[step.mask].copy(),
            len(step.bb.instructions) - 1,
        )

    def _getter(self, v: Value):
        if isinstance(v, Constant):
            arr = self._consts.get(v)
            if arr is None:
                arr = ops.splat(v, self.n)
                arr.setflags(write=False)
                self._consts[v] = arr
            return lambda: arr
        env = self.env
        return lambda: env[v]

    def _compile_block(self, bb: BasicBlock, mask: np.ndarray) -> List:
        closures: List = []
        for idx, inst in enumerate(bb.instructions):
            if inst.is_terminator:
                break
            op = self._compile_inst(inst, mask, bb, idx)
            if op is not None:
                closures.append(op)
        return closures

    def _compile_arm(self, bb: BasicBlock, mask: np.ndarray):
        """One closure running ``bb``'s predicated arm (see
        :func:`predicated_arms`) for the lanes of ``mask`` whose
        condition holds, in every row at once: pure ops at full width,
        as the reference runs them, and slot stores under the per-row
        lane mask.  Each row's retired arm instructions go to
        ``arm_insts``; a batch in which no lane takes the arm skips it,
        since no value it defines is used outside it."""
        term = bb.instructions[-1]
        arm = term.if_true
        slots = self.slots
        gc = self._getter(term.cond)
        weight = self._weights[arm]
        take = mask  # rebound by run_arm for each batch

        def slot_store(inst: Store):
            ptr, gval = inst.ptr, self._getter(inst.value)

            def run_arm_store():
                np.copyto(slots[ptr], gval(), casting="unsafe", where=take)
            return run_arm_store

        closures = [
            slot_store(inst) if isinstance(inst, Store)
            else self._compile_inst(inst, mask, arm, idx)
            for idx, inst in enumerate(arm.instructions[:-1])
        ]

        def run_arm():
            nonlocal take
            take = mask & gc()
            if not take.any():
                return
            for op in closures:
                op()
            self.arm_insts += weight * take.sum(axis=-1)
        return run_arm

    def _compile_inst(self, inst, mask: np.ndarray, bb: BasicBlock, idx: int):
        if isinstance(inst, Load):
            return self._compile_load(inst, mask, bb, idx)
        if isinstance(inst, Store):
            return self._compile_store(inst, mask, bb, idx)
        if isinstance(inst, Call):
            return self._compile_call(inst, mask)
        if isinstance(inst, Alloca):
            return self._compile_alloca(inst)
        f, operands = ops.resolve(inst)
        env = self.env
        g = [self._getter(o) for o in operands]
        if len(g) == 1:
            (g0,) = g

            def run_pure():
                env[inst] = f(g0())
        elif len(g) == 2:
            g0, g1 = g

            def run_pure():
                env[inst] = f(g0(), g1())
        elif len(g) == 3:
            g0, g1, g2 = g

            def run_pure():
                env[inst] = f(g0(), g1(), g2())
        else:
            def run_pure():
                env[inst] = f(*[gi() for gi in g])
        return run_pure

    def _compile_alloca(self, inst: Alloca):
        env = self.env
        slots = self.slots
        ty = inst.allocated_type
        n = self.n
        if isinstance(ty, ArrayType):
            size = ty.size
            nbytes = size * n
            lane_off = self._lane_ids * size

            def run_alloca_arr():
                k = self.arena_next
                self.arena_next += 1
                if self._rec_alive is not None and k == len(self.private_arena):
                    # the allocator state a serial launch's first group
                    # leaves; evicted groups' resumes reuse these buffers
                    self.private_arena.append(self.memory.alloc(
                        nbytes, f"private:{inst.name or inst.id}"
                    ))
                buf = self._private_slab(k, nbytes)
                env[inst] = (
                    buf.base_addr + self.live * nbytes
                )[:, None] + lane_off
            return run_alloca_arr
        if isinstance(ty, VectorType):
            dt = ty.element.numpy_dtype
            count = ty.count

            def run_alloca_vec():
                slots[inst] = np.zeros((len(self.live), n, count), dtype=dt)
            return run_alloca_vec
        dt = ops.np_type(ty)

        def run_alloca():
            slots[inst] = np.zeros((len(self.live), n), dtype=dt)
        return run_alloca

    def _private_slab(self, k: int, nbytes_per_group: int) -> Buffer:
        while k >= len(self._private_slabs):
            buf = self._new_scratch(self._batch_size * nbytes_per_group)
            self._private_slabs.append((buf, nbytes_per_group))
        buf, size = self._private_slabs[k]
        if size != nbytes_per_group:  # pragma: no cover - schedule-fixed
            raise RuntimeLaunchError("private slab size drifted from tape")
        return buf

    def _new_scratch(self, nbytes: int) -> Buffer:
        sid = self._scratch_next
        self._scratch_next += 1
        buf = Buffer(self.memory, sid, nbytes, "tape-scratch")
        self.memory.buffers[sid] = buf
        self._scratch.append(buf)
        return buf

    def _compile_call(self, inst: Call, mask: np.ndarray):
        env = self.env
        if inst.callee == "barrier":
            def run_barrier():
                alive = self._rec_alive
                if alive is not None and not np.array_equal(mask, alive):
                    raise barrier_divergence(
                        self.fn.name, self.slot_gids[0], self.phase, mask, alive
                    )
                self.phase += 1
                self.barriers += 1
            return run_barrier
        if inst.callee in ("mem_fence", "printf"):
            return None
        getters = [self._getter(a) for a in inst.args]

        def run_call():
            env[inst] = eval_builtin(inst, [g() for g in getters], self.bctx)
        return run_call

    # -- batched loads/stores ---------------------------------------------
    def _batched_addrs(self, gp, G: int) -> np.ndarray:
        addrs = gp()
        if addrs.ndim == 1:
            addrs = np.broadcast_to(addrs, (G, self.n))
        return addrs

    def _compile_load(self, inst: Load, mask: np.ndarray, bb, idx: int):
        env = self.env
        slots = self.slots
        ptr = inst.ptr
        if isinstance(ptr, Alloca) and not isinstance(
            ptr.allocated_type, ArrayType
        ):
            def run_slot_load():
                env[inst] = slots[ptr].copy()
            return run_slot_load

        gp = self._getter(ptr)
        full = bool(mask.all())
        j0 = int(mask.argmax())
        ty = inst.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        lanes = self._lane_ids[mask]
        lanes.setflags(write=False)
        elem = ty.size
        vec = isinstance(ty, VectorType)
        if vec:
            dt = ty.element.numpy_dtype
            comp = np.arange(ty.count, dtype=np.int64)
        else:
            dt = ops.np_type(ty)
        isz = dt.itemsize

        def load() -> bool:
            G = len(self.live)
            if not G:
                return True
            addrs = self._batched_addrs(gp, G)
            am = addrs if full else addrs[:, mask]
            ids = am >> OFFSET_BITS
            id0 = int(ids.flat[0])
            bad = (ids != id0).any(axis=1)
            if bad.any():
                keep = self._span_fault(bad, bb, idx)
                if not len(self.live):
                    return True
                addrs = addrs[keep]
                am = am[keep]
                G = len(self.live)
            if full:
                offs = addrs & OFFSET_MASK
                offs_m = offs
            else:
                safe = np.where(mask, addrs, addrs[:, j0:j0 + 1])
                offs = safe & OFFSET_MASK
                offs_m = am & OFFSET_MASK
            ix = (offs // isz)[..., None] + comp if vec else offs // isz
            try:
                val = self.memory.buffers[id0].view(dt)[ix]
            except (IndexError, KeyError):
                self._fault("load", id0, ix, dt, offs_m, bb, idx)
                return False
            if record:
                sid, stride = self.scratch_map.get(id0, (id0, 0))
                self.records.append((
                    space, False, sid, stride, offs_m.astype(np.int32),
                    lanes, elem, self.phase, inst.id, self.live,
                ))
            env[inst] = val
            return True

        def run_load():
            # a fault evicts its rows and the rest redo the load; a loop,
            # not recursion, so no closure references itself
            while not load():
                pass
        return run_load

    def _compile_store(self, inst: Store, mask: np.ndarray, bb, idx: int):
        slots = self.slots
        ptr = inst.ptr
        gval = self._getter(inst.value)
        n = self.n
        if isinstance(ptr, Alloca) and not isinstance(
            ptr.allocated_type, ArrayType
        ):
            vec_slot = isinstance(ptr.allocated_type, VectorType)
            val_is_vec = isinstance(inst.value.type, VectorType)
            if mask.all():
                # a full-width write skips the boolean fancy index: the
                # broadcast setitem assigns (and casts) the same values
                widen = vec_slot and not val_is_vec

                def run_slot_store_full():
                    v = gval()
                    slots[ptr][...] = v[..., None] if widen else v
                return run_slot_store_full

            def run_slot_store():
                slot = slots[ptr]
                v = gval()
                if vec_slot:
                    if val_is_vec:
                        v = np.broadcast_to(v, slot.shape)
                        slot[:, mask, :] = v[:, mask, :]
                    else:
                        v = np.broadcast_to(v, slot.shape[:2])
                        slot[:, mask, :] = v[:, mask, None]
                else:
                    v = np.broadcast_to(v, slot.shape)
                    slot[:, mask] = v[:, mask].astype(slot.dtype, copy=False)
            return run_slot_store

        gp = self._getter(ptr)
        ty = inst.value.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        lanes = self._lane_ids[mask]
        lanes.setflags(write=False)
        elem = ty.size
        vec = isinstance(ty, VectorType)
        if vec:
            dt = ty.element.numpy_dtype
            comp = np.arange(ty.count, dtype=np.int64)
            kc = ty.count
        else:
            dt = ops.np_type(ty)
            to_u8 = dt == np.dtype(bool)
            if to_u8:
                dt = np.dtype(np.uint8)
        isz = dt.itemsize

        def store() -> bool:
            G = len(self.live)
            if not G:
                return True
            v = gval()
            addrs = self._batched_addrs(gp, G)
            am = addrs[:, mask]
            ids = am >> OFFSET_BITS
            id0 = int(ids.flat[0])
            bad = (ids != id0).any(axis=1)
            if bad.any():
                keep = self._span_fault(bad, bb, idx)
                if not len(self.live):
                    return True
                am = am[keep]
                if v.ndim >= 2 + int(vec):
                    v = v[keep]
                G = len(self.live)
            offs = am & OFFSET_MASK
            if vec:
                ix = (offs // isz)[..., None] + comp
                v = np.broadcast_to(v, (G, n, kc))[:, mask]
            else:
                ix = offs // isz
                if to_u8:
                    v = v.astype(np.uint8)
                v = np.broadcast_to(v, (G, n))[:, mask].astype(dt, copy=False)
            try:
                self.memory.buffers[id0].view(dt)[ix] = v
            except (IndexError, KeyError):
                self._fault("store", id0, ix, dt, offs, bb, idx)
                return False
            if record:
                sid, stride = self.scratch_map.get(id0, (id0, 0))
                self.records.append((
                    space, True, sid, stride, offs.astype(np.int32), lanes,
                    elem, self.phase, inst.id, self.live,
                ))
            return True

        def run_store():
            # see run_load
            while not store():
                pass
        return run_store

    # -- eviction ----------------------------------------------------------
    def _evict(
        self, bad: np.ndarray, bb: BasicBlock, inst_idx: int, reason: str
    ) -> np.ndarray:
        for r in np.flatnonzero(bad):
            self._evict_one(int(r), bb, inst_idx, reason)
        keep = ~bad
        self._compact(keep)
        return keep

    def _evict_one(
        self, row: int, bb: BasicBlock, inst_idx: int, reason: str
    ) -> None:
        self.evicted += 1
        slot = int(self.live[row])
        gid_t = self.slot_gids[slot]
        step = self.steps[self.step_idx]
        events.emit(
            "tape_evict",
            kernel=self.fn.name,
            group_id=list(gid_t),
            step=self.step_idx,
            reason=f"{reason} in {bb.name}[{inst_idx}]",
        )

        gt: Optional[GroupTrace] = None
        n_prefix = 0
        if self.collect_trace:
            gt = GroupTrace(gid_t, self.n)
            gt.inst_count = self.inst_count + int(self.arm_insts[row])
            gt.barriers = self.barriers
            gt.events = self._split_events(slot)
            n_prefix = len(gt.events)

        # reconstruct the scheduler's pending-dict from the tape prefix
        pending: Dict[BasicBlock, np.ndarray] = {
            self.fn.entry: np.ones(self.n, dtype=bool)
        }
        for s in self.steps[: self.step_idx]:
            pending.pop(s.bb, None)
            merge_pending(pending, s.succ)
        pending.pop(step.bb, None)

        ctx = WorkItemContext(gid_t, self.lsize, self.gsize)
        ex = GroupExecutor(
            self.fn, ctx, self.memory, self.arg_values,
            self.local_buffers, self.local_arg_buffers, gt,
            private_arena=self.private_arena,
        )
        ex.emit_group_executed = False
        ex.phase = self.phase
        ex.alive = step.alive_before.copy()
        ex._arena_next = self.arena_next
        for v, arr in self.env.items():
            if arr is None:
                continue
            ex.values[v] = (
                arr[row].copy() if arr.ndim == _expected_ndim(v) else arr.copy()
            )
        for a, arr in self.slots.items():
            ex.slots[a] = arr[row].copy()
        self._deferred.append(
            (slot, ex, bb, inst_idx, step.mask.copy(), pending, gt, n_prefix)
        )

    def _resume_evicted(self) -> None:
        """Finish the batch's evicted groups on the reference path.

        They run after the batch's own rows and in pick order, so the
        private arena is claimed first by the leader and an error is
        the one a serial launch meets first.
        """
        deferred, self._deferred = self._deferred, []
        deferred.sort(key=lambda d: d[0])
        for slot, ex, bb, inst_idx, mask, pending, gt, n_prefix in deferred:
            ex.resume_block(bb, inst_idx, mask, pending)
            if gt is not None:
                # the resume path traced through the scratch local
                # buffers; map those events back onto the serial arena ids
                for e in gt.events[n_prefix:]:
                    m = self.scratch_map.get(e.buffer_id)
                    if m is not None:
                        sid, stride = m
                        e.buffer_id = sid
                        e.offsets = e.offsets - slot * stride
            self._done[slot] = gt

    def _span_fault(
        self, bad: np.ndarray, bb: BasicBlock, inst_idx: int
    ) -> np.ndarray:
        """A batched access's ``bad`` rows touch a buffer other than the
        leader's first lane's.  If the batch's first pick is one of them,
        its own lanes span two buffers: it raises the reference's
        :class:`MemoryFault` at once, as :meth:`_fault` does.  Any other
        such group is evicted, and its resume meets the fault in pick
        order."""
        if bad[0] and self.live[0] == 0:
            raise MemoryFault("access spans multiple buffers")
        return self._evict(bad, bb, inst_idx, "buffer mismatch")

    def _fault(
        self,
        access: str,
        buf_id: int,
        ix: np.ndarray,
        dt: np.dtype,
        offs: np.ndarray,
        bb: BasicBlock,
        inst_idx: int,
    ) -> None:
        """A batched access fell outside its buffer (``ix`` holds the
        element indices it used, ``offs`` the active lanes' byte
        offsets).  The batch's first pick raises the reference's
        :class:`MemoryFault` at once; any other faulting group is
        evicted, and its resume raises it in pick order."""
        buf = self.memory.buffers.get(buf_id)
        G = len(ix)
        if buf is None:
            bad = np.ones(G, dtype=bool)
        else:
            bad = (ix.reshape(G, -1) >= len(buf.view(dt))).any(axis=1)
        if bad[0] and self.live[0] == 0:
            raise memory_fault(self.memory.buffers, access, buf_id, offs[0])
        self._evict(bad, bb, inst_idx, f"{access} fault")

    def _compact(self, keep: np.ndarray) -> None:
        for v, arr in self.env.items():
            if arr is not None and arr.ndim == _expected_ndim(v):
                self.env[v] = arr[keep]
        for a, arr in self.slots.items():
            self.slots[a] = arr[keep]
        self.arm_insts = self.arm_insts[keep]
        self.live = self.live[keep]
        self.bctx.compact(keep)

    # -- trace splitting ---------------------------------------------------
    def _split_events(self, slot: int) -> List[MemEvent]:
        """Events of one group (the eviction path: records up to now).

        Consecutive records overwhelmingly share the same ``live``
        array object, so the slot's row index is recomputed only when
        the identity changes instead of per record.
        """
        out: List[MemEvent] = []
        last_ref = None
        pos = -1
        for (space, is_store, sid, stride, offs, lanes, elem,
             phase, inst_id, live_ref) in self.records:
            if live_ref is not last_ref:
                last_ref = live_ref
                p = int(np.searchsorted(live_ref, slot))
                pos = p if p < len(live_ref) and live_ref[p] == slot else -1
            if pos < 0:
                continue
            row = offs[pos]
            out.append(MemEvent(
                space, is_store, sid,
                row - slot * stride if stride else row,
                lanes, elem, phase, inst_id,
            ))
        return out

    def _split_surviving(self) -> None:
        """Split the batch's records into per-survivor GroupTraces.

        One record-outer pass: each record's rows are dealt to the
        groups named by its ``live`` array directly, so no per-group
        index search happens at all (the searchsorted-per-record cost
        of :meth:`_split_events` times the batch size was the single
        hottest part of replay).
        """
        per_slot: Dict[int, List[MemEvent]] = {int(s): [] for s in self.live}
        for (space, is_store, sid, stride, offs, lanes, elem,
             phase, inst_id, live_ref) in self.records:
            rows = list(offs)
            if stride:
                for pos, slot in enumerate(live_ref.tolist()):
                    evs = per_slot.get(slot)
                    if evs is not None:
                        evs.append(MemEvent(
                            space, is_store, sid, rows[pos] - slot * stride,
                            lanes, elem, phase, inst_id,
                        ))
            else:
                for pos, slot in enumerate(live_ref.tolist()):
                    evs = per_slot.get(slot)
                    if evs is not None:
                        evs.append(MemEvent(
                            space, is_store, sid, rows[pos],
                            lanes, elem, phase, inst_id,
                        ))
        # per_slot is in row order, as arm_insts is
        for (slot, evs), arm_insts in zip(
            per_slot.items(), self.arm_insts.tolist()
        ):
            gt = GroupTrace(self.slot_gids[slot], self.n)
            gt.inst_count = self.sched_inst_count + arm_insts
            gt.barriers = self.sched_barriers
            gt.events = evs
            self._done[slot] = gt

    # -- batched replay ----------------------------------------------------
    def _reset_batch(self, slot_gids: List[Tuple[int, ...]]) -> None:
        """Reset all per-batch state and bind entry values for the batch."""
        G0 = len(slot_gids)
        self.slot_gids = slot_gids
        self._batch_size = G0
        self.live = np.arange(G0, dtype=np.int64)
        self.env.clear()
        self.slots.clear()
        self.records = []
        self.phase = 0
        self.barriers = 0
        self.inst_count = 0
        self.arm_insts = np.zeros(G0, dtype=np.int64)
        self.arena_next = 0
        self._done = {}
        self._deferred = []
        self.scratch_map = {}
        self._scratch = []
        self._scratch_next = _SCRATCH_BASE
        self._private_slabs = []
        self.bctx = _BatchedContext(slot_gids, self.lsize, self.gsize)
        n = self.n

        # argument bindings: group-uniform values stay (n,) exactly as
        # the serial executor builds them; per-group local bases get
        # the batch axis
        for arg, v in self.arg_values.items():
            if isinstance(v, Buffer):
                self.env[arg] = np.full(n, v.base_addr, dtype=np.int64)
            else:
                self.env[arg] = np.full(n, v, dtype=ops.np_type(arg.type))
        for owner, buf in list(self.local_buffers.items()) + list(
            self.local_arg_buffers.items()
        ):
            nbytes = buf.nbytes
            sbuf = self._new_scratch(G0 * nbytes)
            self.scratch_map[sbuf.id] = (buf.id, nbytes)
            bases = sbuf.base_addr + np.arange(G0, dtype=np.int64) * nbytes
            self.env[owner] = np.broadcast_to(bases[:, None], (G0, n))

    def _apply_guard(self, step: _Step) -> None:
        g = step.guard
        if g is None or not len(self.live):
            return
        getter, expected, term_idx = g
        c = getter()
        if c.ndim == 1:
            cm = np.broadcast_to(c, (len(self.live), self.n))[:, step.mask]
        else:
            cm = c[:, step.mask]
        bad = (cm != expected).any(axis=1)
        if bad.any():
            self._evict(bad, step.bb, term_idx, "branch divergence")

    def _run_steps(self) -> None:
        """Replay the recorded tape over the batch."""
        with np.errstate(all="ignore"):
            for si, step in enumerate(self.steps):
                if not len(self.live):
                    break
                self.step_idx = si
                self.inst_count += step.weight
                for op in step.ops:
                    op()
                self._apply_guard(step)

    def _record_steps(self) -> None:
        """Run the batch through the reference scheduler's logic, steered
        by the leader (row 0), appending each scheduled (block, mask)
        to the tape as it runs."""
        fn = self.fn
        rpo = _reverse_postorder(fn)
        weights = self._weights = block_weights(fn)
        self._arms = predicated_arms(fn, rpo)
        alive = np.ones(self.n, dtype=bool)
        pending: Dict[BasicBlock, np.ndarray] = {fn.entry: alive}
        with np.errstate(all="ignore"):
            while pending:
                bb = min(pending, key=lambda b: rpo.get(b, 1 << 30))
                mask = pending.pop(bb) & alive
                if not mask.any():
                    continue
                step = _Step(bb, mask)
                step.ops = self._closures_for(bb, mask)
                step.alive_before = alive
                step.weight = weights[bb] * int(mask.sum())
                self.step_idx = len(self.steps)
                self.steps.append(step)
                self.inst_count += step.weight
                self._rec_alive = alive
                for op in step.ops:
                    op()
                term = bb.instructions[-1]
                if bb in self._arms:
                    # the arm ran among the step's ops; every lane of
                    # the step goes on to the join
                    step.succ = [(term.if_false, mask)]
                elif isinstance(term, CondBr):
                    c = self._getter(term.cond)()
                    step.cond = (c if c.ndim == 1 else c[0]).copy()
                    self._set_guard(step, term)
                    self._apply_guard(step)
                    step.succ = [
                        (term.if_true, mask & step.cond),
                        (term.if_false, mask & ~step.cond),
                    ]
                elif isinstance(term, Br):
                    step.succ = [(term.target, mask)]
                elif isinstance(term, Ret):
                    alive = alive & ~mask
                else:  # pragma: no cover
                    raise RuntimeLaunchError(f"unknown terminator {term!r}")
                merge_pending(pending, step.succ)
        self._rec_alive = None
        self.sched_inst_count = self.inst_count
        self.sched_barriers = self.barriers

    def _finish_batch(self) -> Dict[int, Optional[GroupTrace]]:
        self._resume_evicted()
        if self.collect_trace:
            self._split_surviving()
        else:
            for slot in self.live:
                self._done[int(slot)] = None
        return self._done

    def _cleanup_batch(self) -> None:
        for buf in self._scratch:
            self.memory.buffers.pop(buf.id, None)
        self._scratch = []
        self._private_slabs = []
        # the executor's closures make it a reference cycle until
        # release(): hold no batch values or traces past the batch, so a
        # dropped trace is freed by reference counting
        self._done = {}
        self.records = []
        self.env.clear()

    def release(self) -> None:
        """Drop the compiled closures at the end of the launch.  They
        reference the executor, so until then it is a reference cycle
        that only the cyclic collector could free, with everything it
        holds."""
        for closures in self._block_ops.values():
            closures.clear()

    def replay_batch(
        self, slot_gids: List[Tuple[int, ...]]
    ) -> Dict[int, Optional[GroupTrace]]:
        """Run one batch of groups through the tape, recording it on the
        first call; returns slot -> trace."""
        self._reset_batch(slot_gids)
        try:
            if self.steps:
                self._run_steps()
            else:
                self._record_steps()
            return self._finish_batch()
        finally:
            self._rec_alive = None
            self._cleanup_batch()


def execute_tape(
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
) -> Tuple[List[GroupTrace], int]:
    """Execute ``picks`` with the tape backend; the drop-in replacement
    for the serial group loop of :func:`repro.runtime.ndrange.launch`.

    Returns ``(group_traces, work_items)`` — traces in pick order when
    ``collect_trace`` — with buffer side effects equivalent to the
    serial loop for group-independent kernels.
    """
    ndim = len(gsize)

    def gid_of(flat: int) -> Tuple[int, ...]:
        gid = []
        rem = int(flat)
        for d in range(ndim):
            gid.append(rem % groups_per_dim[d])
            rem //= groups_per_dim[d]
        return tuple(gid)

    gids = [gid_of(p) for p in picks]
    # a batch stacks its groups' __local buffers in one scratch buffer;
    # keeping that below the buffer limit keeps its offsets int32
    local_bytes = max(
        [b.nbytes for b in (*local_buffers.values(), *local_arg_buffers.values())],
        default=0,
    )
    if local_bytes:
        tape_batch = min(tape_batch, (MAX_BUFFER_BYTES - 1) // local_bytes)

    t0 = time.perf_counter()
    tape = TapeExecutor(
        kernel, lsize, gsize, arg_values, local_buffers, local_arg_buffers,
        memory, private_arena, collect_trace,
    )
    traces: Dict[int, Optional[GroupTrace]] = {}
    n_batches = 0
    try:
        for lo in range(0, len(picks), tape_batch):
            chunk = gids[lo:lo + tape_batch]
            n_batches += 1
            out = tape.replay_batch(chunk)
            for slot, gt in out.items():
                traces[lo + slot] = gt
    finally:
        tape.release()
    events.emit(
        "tape_compile",
        kernel=kernel.name,
        steps=len(tape.steps),
        closures=tape.n_closures,
        arms=tape.n_arms,
        wall_ms=tape.compile_s * 1e3,
    )
    events.emit(
        "tape_replay",
        kernel=kernel.name,
        groups=len(picks),
        batches=n_batches,
        evicted=tape.evicted,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )

    for gid in gids:
        events.emit("group_executed", group_id=list(gid), work_items=tape.n)
    group_traces = (
        [traces[i] for i in range(len(picks))] if collect_trace else []
    )
    return group_traces, tape.n * len(picks)

