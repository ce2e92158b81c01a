"""The SIMT work-group interpreter.

One :class:`GroupExecutor` runs one work-group.  Every IR value evaluates
to a numpy array over the group's work-items (the "lanes"), so the
interpreter's inner loop is a loop over *instructions*, not work-items —
the per-element work is vectorised, per the scientific-Python guidance.

Divergent control flow uses lane masks.  Pending blocks are scheduled in
reverse post-order (successors visited false-edge-first when computing
the order), which makes masks reconverge at join points and lets loops
drain fully before their exit blocks run — the property the barrier
check relies on.

The value of every pure instruction comes from :mod:`repro.runtime.ops`,
which the tape backend shares, so the two backends differ only in
scheduling, batching, eviction and faults.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    Br,
    Call,
    Cast,
    CondBr,
    GEP,
    Instruction,
    Load,
    Ret,
    Store,
)
from repro.ir.types import AddressSpace, ArrayType, VectorType
from repro.ir.values import Argument, Constant, LocalArray, Value
from repro.runtime import ops
from repro.runtime.buffers import OFFSET_MASK, Buffer, Memory
from repro.runtime.builtins import WorkItemContext, eval_builtin
from repro.runtime.errors import BarrierDivergenceError, MemoryFault, RuntimeLaunchError
from repro.runtime.trace import GroupTrace, MemEvent


def _reverse_postorder(fn: Function) -> Dict[BasicBlock, int]:
    """RPO with successors visited in reverse (false edge first).

    This ordering places loop bodies before loop exits, so min-RPO
    scheduling drains a loop completely before running its exit block.

    Iterative (explicit stack of block/successor-iterator frames) so a
    deep single-chain CFG cannot hit python's recursion limit; the
    visit order is exactly the recursive formulation's.
    """
    seen = {fn.entry}
    post: List[BasicBlock] = []
    stack: List[Tuple[BasicBlock, object]] = [
        (fn.entry, iter(reversed(fn.entry.successors())))
    ]
    while stack:
        bb, succs = stack[-1]
        for succ in succs:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(reversed(succ.successors()))))
                break
        else:
            post.append(bb)
            stack.pop()
    return {bb: i for i, bb in enumerate(reversed(post))}


def merge_pending(
    pending: Dict[BasicBlock, np.ndarray],
    out: List[Tuple[BasicBlock, np.ndarray]],
) -> None:
    """Merge a terminator's ``(successor, lane mask)`` list into the
    scheduler's pending dict; a successor no lane takes is not queued."""
    for succ, m in out:
        if succ in pending:
            pending[succ] = pending[succ] | m
        elif m.any():
            pending[succ] = m


def block_weights(fn: Function) -> Dict[BasicBlock, int]:
    """Retired-instruction weight per lane of each block (casts and GEPs
    fold into addressing modes on real ISAs and are not counted)."""
    return {
        bb: sum(
            0 if isinstance(i, (Cast, GEP, Alloca)) else 1
            for i in bb.instructions
        )
        for bb in fn.blocks
    }


def memory_fault(
    buffers: Dict[int, Buffer], access: str, buf_id: int, offs: np.ndarray
) -> MemoryFault:
    """The named error for an access outside its buffer (numpy's
    ``IndexError``) or into no buffer at all (the registry's
    ``KeyError``).  Every backend raises it with one group's offsets,
    so a fault reads the same whichever path executed the group."""
    offset = int(offs.max())
    if offset > OFFSET_MASK // 2 and buf_id + 1 in buffers:
        # a negative index: the address fell below the next buffer
        buf_id, offset = buf_id + 1, offset - (OFFSET_MASK + 1)
    buf = buffers.get(buf_id)
    if buf is None:
        return MemoryFault(f"{access} through dangling buffer id {buf_id}")
    return MemoryFault(
        f"{access} at byte offset {offset} is outside buffer "
        f"{buf.name or buf.id} ({buf.nbytes} B)"
    )


def barrier_divergence(
    fn_name: str,
    group_id: Tuple[int, ...],
    phase: int,
    mask: np.ndarray,
    alive: np.ndarray,
) -> BarrierDivergenceError:
    """The named error for a barrier reached by the lanes in ``mask``
    while the lanes in ``alive`` are still live."""
    lane_ids = np.arange(len(mask), dtype=np.int64)
    arrived = lane_ids[mask]
    missing = lane_ids[alive & ~mask]

    def _ids(a: np.ndarray) -> str:
        shown = ", ".join(str(int(i)) for i in a[:8])
        return f"{{{shown}{', ...' if a.size > 8 else ''}}}"

    return BarrierDivergenceError(
        f"barrier in {fn_name} reached by "
        f"{int(mask.sum())}/{int(alive.sum())} live work-items "
        f"of group {group_id} (phase {phase}): "
        f"arrived={_ids(arrived)} missing={_ids(missing)}",
        function=fn_name,
        group_id=group_id,
        phase=phase,
        arrived=arrived.tolist(),
        missing=missing.tolist(),
    )


class GroupExecutor:
    """Executes one work-group of a kernel launch."""

    def __init__(
        self,
        fn: Function,
        ctx: WorkItemContext,
        memory: Memory,
        arg_values: Dict[Argument, object],
        local_buffers: Dict[LocalArray, Buffer],
        local_arg_buffers: Dict[Argument, Buffer],
        trace: Optional[GroupTrace] = None,
        private_arena: Optional[List[Buffer]] = None,
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.memory = memory
        self.trace = trace
        self.n = ctx.n_lanes
        self.values: Dict[Value, np.ndarray] = {}
        self.slots: Dict[Alloca, np.ndarray] = {}
        self.phase = 0
        self.alive = np.ones(self.n, dtype=bool)
        #: cleared by the tape backend for executors that only *finish*
        #: a group (eviction resumes), so each group still produces
        #: exactly one ``group_executed`` event
        self.emit_group_executed = True
        self.rpo = _reverse_postorder(fn)
        self._lane_ids = np.arange(self.n, dtype=np.int64)
        #: buffers allocated for private arrays; freed by the launcher
        self.private_buffers: List[Buffer] = []
        #: launcher-owned buffer pool reused across work-groups: the
        #: k-th alloca execution of each group maps to the k-th entry
        #: (zeroed on reuse), so homogeneous groups allocate only once
        self._arena = private_arena
        self._arena_next = 0
        self._block_weight = block_weights(fn)
        #: each pure instruction's resolved :func:`ops.resolve` pair
        self._pure: Dict[Instruction, tuple] = {}

        for arg, v in arg_values.items():
            if isinstance(v, Buffer):
                self.values[arg] = np.full(self.n, v.base_addr, dtype=np.int64)
            else:
                dt = ops.np_type(arg.type)
                self.values[arg] = np.full(self.n, v, dtype=dt)
        for arg, buf in local_arg_buffers.items():
            self.values[arg] = np.full(self.n, buf.base_addr, dtype=np.int64)
        for la, buf in local_buffers.items():
            self.values[la] = np.full(self.n, buf.base_addr, dtype=np.int64)

    # -- value access ----------------------------------------------------------
    def get(self, v: Value) -> np.ndarray:
        if isinstance(v, Constant):
            return ops.splat(v, self.n)
        return self.values[v]

    # -- main loop ---------------------------------------------------------------
    def run(self, pending: Optional[Dict[BasicBlock, np.ndarray]] = None) -> None:
        """Drain the block scheduler to completion.

        ``pending`` injects a mid-flight scheduler state instead of the
        fresh ``{entry: alive}`` start — the tape backend uses it to hand
        a work-group evicted from a batched replay back to this scalar
        path without re-running (and re-applying the side effects of)
        the prefix it already executed.
        """
        from repro.session import events

        if pending is None:
            pending = {self.fn.entry: self.alive.copy()}
        rpo = self.rpo
        with np.errstate(all="ignore"):
            while pending:
                bb = min(pending, key=lambda b: rpo.get(b, 1 << 30))
                mask = pending.pop(bb) & self.alive
                if not mask.any():
                    continue
                merge_pending(pending, self.exec_block(bb, mask))
        if self.emit_group_executed:
            events.emit(
                "group_executed",
                group_id=list(self.ctx.group_id),
                work_items=self.n,
            )

    def resume_block(
        self,
        bb: BasicBlock,
        start_index: int,
        mask: np.ndarray,
        pending: Dict[BasicBlock, np.ndarray],
    ) -> None:
        """Finish ``bb`` from instruction ``start_index`` on, then drain.

        The tape backend calls this when a group diverges from the taped
        schedule partway through a block: the instructions before
        ``start_index`` already executed (their effects are applied and
        traced), so only the tail is run here — the block's retired-
        instruction weight was accounted when the block started, exactly
        as :meth:`exec_block` would have.
        """
        with np.errstate(all="ignore"):
            for inst in bb.instructions[start_index:]:
                if inst.is_terminator:
                    merge_pending(pending, self.exec_terminator(inst, mask))
                    self.run(pending)
                    return
                self.exec_inst(inst, mask)
        raise RuntimeLaunchError(f"block {bb.name} has no terminator")

    def exec_block(self, bb: BasicBlock, mask: np.ndarray):
        if self.trace is not None:
            self.trace.inst_count += self._block_weight[bb] * int(mask.sum())
        for inst in bb.instructions:
            if inst.is_terminator:
                return self.exec_terminator(inst, mask)
            self.exec_inst(inst, mask)
        raise RuntimeLaunchError(f"block {bb.name} has no terminator")

    def exec_terminator(self, inst: Instruction, mask: np.ndarray):
        if isinstance(inst, Br):
            return [(inst.target, mask)]
        if isinstance(inst, CondBr):
            cond = self.get(inst.cond)
            t = mask & cond
            f = mask & ~cond
            return [(inst.if_true, t), (inst.if_false, f)]
        if isinstance(inst, Ret):
            self.alive &= ~mask
            return []
        raise RuntimeLaunchError(f"unknown terminator {inst!r}")

    # -- per-instruction evaluation -------------------------------------------------
    def exec_inst(self, inst: Instruction, mask: np.ndarray) -> None:
        if isinstance(inst, Load):
            self.values[inst] = self._load(inst, mask)
        elif isinstance(inst, Store):
            self._store(inst, mask)
        elif isinstance(inst, Call):
            self._call(inst, mask)
        elif isinstance(inst, Alloca):
            self._alloca(inst)
        else:
            pure = self._pure.get(inst)
            if pure is None:
                pure = self._pure[inst] = ops.resolve(inst)
            f, operands = pure
            self.values[inst] = f(*[self.get(o) for o in operands])

    # -- memory ---------------------------------------------------------------------
    def _alloca(self, inst: Alloca) -> None:
        ty = inst.allocated_type
        if isinstance(ty, ArrayType):
            # real per-work-item memory (addressable with GEP)
            size = ty.size
            nbytes = size * self.n
            if self._arena is not None:
                idx = self._arena_next
                self._arena_next += 1
                if idx < len(self._arena) and len(self._arena[idx].data) == nbytes:
                    buf = self._arena[idx]
                    buf.data[:] = 0  # fresh-allocation semantics
                else:
                    buf = self.memory.alloc(
                        nbytes, f"private:{inst.name or inst.id}"
                    )
                    if idx < len(self._arena):
                        self.memory.free(self._arena[idx])
                        self._arena[idx] = buf
                    else:
                        self._arena.append(buf)
            else:
                buf = self.memory.alloc(nbytes, f"private:{inst.name or inst.id}")
                self.private_buffers.append(buf)
            self.values[inst] = buf.base_addr + self._lane_ids * size
            return
        if isinstance(ty, VectorType):
            self.slots[inst] = np.zeros((self.n, ty.count), dtype=ty.element.numpy_dtype)
        else:
            self.slots[inst] = np.zeros(self.n, dtype=ops.np_type(ty))
        self.values[inst] = None  # register-allocated slot; loads special-cased

    def _slot_for(self, ptr: Value) -> Optional[np.ndarray]:
        if isinstance(ptr, Alloca) and ptr in self.slots:
            return self.slots[ptr]
        return None

    def _load(self, inst: Load, mask: np.ndarray) -> np.ndarray:
        slot = self._slot_for(inst.ptr)
        if slot is not None:
            return slot.copy()
        addrs = self.get(inst.ptr)
        buf_id, offs = Memory.split(np.where(mask, addrs, addrs[mask.argmax()] if mask.any() else 0))
        ty = inst.type
        self._record(inst, buf_id, offs, mask, is_store=False)
        if isinstance(ty, VectorType):
            dt = ty.element.numpy_dtype
            k = dt.itemsize
            base = offs // k
            lanes = np.arange(ty.count, dtype=np.int64)
            idx = base[:, None] + lanes[None, :]
        else:
            dt = ops.np_type(ty)
            idx = offs // dt.itemsize
        try:
            return self.memory.buffers[buf_id].view(dt)[idx]
        except (KeyError, IndexError):
            raise memory_fault(self.memory.buffers, "load", buf_id, offs) from None

    def _store(self, inst: Store, mask: np.ndarray) -> None:
        value = self.get(inst.value)
        slot = self._slot_for(inst.ptr)
        if slot is not None:
            if slot.ndim == 2:
                slot[mask, :] = value[mask, :] if value.ndim == 2 else value[mask, None]
            else:
                slot[mask] = np.broadcast_to(value, (self.n,))[mask].astype(
                    slot.dtype, copy=False
                )
            return
        addrs = self.get(inst.ptr)
        sel = addrs[mask]
        if len(sel) == 0:
            return
        buf_id, offs = Memory.split(sel)
        ty = inst.value.type
        self._record(inst, buf_id, offs, mask, is_store=True, already_masked=True)
        if isinstance(ty, VectorType):
            dt = ty.element.numpy_dtype
            k = dt.itemsize
            idx = (offs // k)[:, None] + np.arange(ty.count, dtype=np.int64)[None, :]
            value = value[mask]
        else:
            dt = ops.np_type(ty)
            if dt == np.dtype(bool):
                dt = np.dtype(np.uint8)
                value = value.astype(np.uint8)
            idx = offs // dt.itemsize
            value = value[mask].astype(dt, copy=False)
        try:
            self.memory.buffers[buf_id].view(dt)[idx] = value
        except (KeyError, IndexError):
            raise memory_fault(self.memory.buffers, "store", buf_id, offs) from None

    def _record(
        self,
        inst: Instruction,
        buf_id: int,
        offs: np.ndarray,
        mask: np.ndarray,
        is_store: bool,
        already_masked: bool = False,
    ) -> None:
        if self.trace is None:
            return
        space = inst.addrspace  # type: ignore[attr-defined]
        if space == AddressSpace.PRIVATE:
            return  # private slots/arrays model registers/stack; not traced
        # boolean indexing and the int32 cast each make a fresh array,
        # so the event owns both without a further copy
        lanes = self._lane_ids[mask]
        offsets = (offs if already_masked else offs[mask]).astype(np.int32)
        ty = inst.type if isinstance(inst, Load) else inst.value.type  # type: ignore[attr-defined]
        self.trace.events.append(
            MemEvent(
                space=space,
                is_store=is_store,
                buffer_id=buf_id,
                offsets=offsets,
                lanes=lanes,
                elem_size=ty.size,
                phase=self.phase,
                inst_id=inst.id,
            )
        )

    # -- calls ------------------------------------------------------------------------
    def _call(self, inst: Call, mask: np.ndarray) -> None:
        if inst.callee == "barrier":
            if not np.array_equal(mask, self.alive):
                # diagnose before touching any state: the failing path
                # must not advance the phase or the trace barrier count
                raise barrier_divergence(
                    self.fn.name, self.ctx.group_id, self.phase, mask, self.alive
                )
            self.phase += 1
            if self.trace is not None:
                self.trace.barriers += 1
            return
        if inst.callee in ("mem_fence", "printf"):
            return
        args = [self.get(a) for a in inst.args]
        self.values[inst] = eval_builtin(inst, args, self.ctx)
