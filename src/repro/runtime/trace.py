"""Memory traces emitted by the interpreter, consumed by ``repro.perf``.

A trace is organised the way the devices consume it:

* events carry the *per-work-item* byte offsets of one vectorised access
  (that is a warp/wavefront-shaped view — what the GPU coalescing model
  needs);
* each event is stamped with the *barrier phase* it occurred in, so the
  CPU model can re-serialise the access stream the way CPU OpenCL
  runtimes execute a work-group (a loop over work-items *between
  barriers*, per Intel's/Twin Peaks' execution scheme cited in the
  paper).

An event's byte offsets are int32: a buffer is below 2 GiB
(:data:`repro.runtime.buffers.MAX_BUFFER_BYTES`), so every in-bounds
offset fits, and the trace takes half the memory of an int64 one.  A
consumer takes offsets of any integer width and widens them once, where
they meet 64-bit arithmetic (the fingerprint, the CPU stream, the GPU
transaction ids).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.ir.types import AddressSpace


@dataclass(slots=True)
class MemEvent:
    """One vectorised memory access by a work-group.

    Both backends record ``offsets`` as int32; events built by hand may
    carry any integer dtype, and every consumer accepts either.
    """

    space: AddressSpace
    is_store: bool
    buffer_id: int
    #: byte offsets within the buffer, one per active lane (int32)
    offsets: np.ndarray
    #: flat local ids of the active lanes (same length as offsets)
    lanes: np.ndarray
    elem_size: int
    #: barrier phase index within the work-group execution
    phase: int
    inst_id: int

    @property
    def count(self) -> int:
        return len(self.offsets)


@dataclass
class GroupTrace:
    """Everything one work-group did."""

    group_id: Tuple[int, ...]
    work_items: int
    events: List[MemEvent] = field(default_factory=list)
    #: dynamic instruction count summed over work-items
    inst_count: int = 0
    barriers: int = 0
    _fingerprint: Optional[bytes] = field(default=None, repr=False, compare=False)

    def accesses(self, space: Optional[AddressSpace] = None) -> int:
        return sum(e.count for e in self.events if space is None or e.space == space)

    def iter_events(self) -> Iterator[MemEvent]:
        """Stream this group's events."""
        yield from self.events

    def fingerprint(self) -> bytes:
        """Digest of the group's *relative* access pattern.

        Two groups of a homogeneous kernel touch the same buffers with
        the same per-event shapes, store flags, lane patterns and
        barrier structure — only the base offset into each buffer
        differs.  The fingerprint therefore covers, per event: the
        buffer's first-appearance slot (not its id), the address
        space, store flag, element size, barrier phase, instruction,
        access count, lane ids, and offsets relative to the buffer's
        minimum offset over the whole group — plus the group's
        work-item/instruction/barrier counts.  Groups with equal
        fingerprints produce identical relative streams, which the
        performance models use to reuse simulation results (see
        ``REPRO_PERF_MEMO``).

        It is one pass: each event becomes one row of an int64 table,
        whose lane column is the index of the event's lane ids among
        the group's distinct lane patterns (the tape shares a few lane
        arrays across all events, so each distinct content is hashed
        once), and the offsets of all events are widened to int64,
        rebased and hashed as one array, so the digest does not depend
        on the width the events carry their offsets at.  The digest is
        cached; traces are immutable once the interpreter returns them.
        """
        if self._fingerprint is None:
            slots: dict = {}
            by_object: dict = {}
            by_content: dict = {}
            rows = []
            for e in self.events:
                idx = by_object.get(id(e.lanes))
                if idx is None:
                    content = np.asarray(e.lanes, np.int64).tobytes()
                    idx = by_content.setdefault(content, len(by_content))
                    by_object[id(e.lanes)] = idx
                rows.append((
                    slots.setdefault(e.buffer_id, len(slots)), int(e.space),
                    int(e.is_store), e.elem_size, e.phase, e.inst_id, idx,
                    len(e.offsets),
                ))
            h = hashlib.sha256(
                np.array(
                    [self.work_items, self.inst_count, self.barriers,
                     len(rows), len(by_content)],
                    np.int64,
                ).tobytes()
            )
            if rows:
                table = np.array(rows, np.int64)
                h.update(table.tobytes())
                for content in by_content:
                    h.update(np.int64(len(content)).tobytes())
                    h.update(content)
                offs = np.concatenate([e.offsets for e in self.events])
                offs = offs.astype(np.int64, copy=False)
                slot_of = np.repeat(table[:, 0], table[:, 7])
                base = np.full(len(slots), np.iinfo(np.int64).max, np.int64)
                np.minimum.at(base, slot_of, offs)
                h.update(offs - base[slot_of])
            self._fingerprint = h.digest()
        return self._fingerprint

    def serialized(self, spaces: Tuple[AddressSpace, ...]) -> "SerializedStream":
        """Re-serialise events the way a CPU runtime executes the group.

        Between consecutive barriers, work-items run to completion one
        after another; so the per-lane sub-streams of each phase are
        concatenated lane-major.  Returns arrays of (line-addressable)
        int64 byte offsets, buffer ids, sizes and store flags in that
        order.
        """
        sel = [e for e in self.events if e.space in spaces]
        if not sel:
            empty64 = np.empty(0, np.int64)
            return SerializedStream(
                empty64, empty64.copy(), np.empty(0, np.int32),
                np.empty(0, bool), np.empty(0, np.int8),
            )
        offs = np.concatenate([e.offsets for e in sel])
        lanes = np.concatenate([e.lanes for e in sel])
        counts = [e.count for e in sel]

        def per_access(values, dtype):
            return np.repeat(np.array(values, dtype), counts)

        bufs = per_access([e.buffer_id for e in sel], np.int64)
        sizes = per_access([e.elem_size for e in sel], np.int32)
        stores = per_access([e.is_store for e in sel], bool)
        spc = per_access([int(e.space) for e in sel], np.int8)
        phases = per_access([e.phase for e in sel], np.int64)
        # stable sort by (phase, lane) keeps program order within each
        # lane's phase sub-stream
        order = np.lexsort((lanes, phases))
        return SerializedStream(
            offs[order].astype(np.int64),
            bufs[order],
            sizes[order],
            stores[order],
            spc[order],
        )


@dataclass
class SerializedStream:
    offsets: np.ndarray
    buffer_ids: np.ndarray
    sizes: np.ndarray
    stores: np.ndarray
    spaces: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def line_ids(self, line_size: int) -> np.ndarray:
        """Globally-unique cache line ids for every access."""
        return (self.buffer_ids << 40) | (self.offsets // line_size)


@dataclass
class KernelTrace:
    """Trace of a launch; may cover only a sample of the work-groups."""

    groups: List[GroupTrace]
    total_groups: int
    local_size: Tuple[int, ...]
    global_size: Tuple[int, ...]

    @property
    def sampled_groups(self) -> int:
        return len(self.groups)

    @property
    def scale(self) -> float:
        """Multiplier extrapolating sampled groups to the full launch."""
        return self.total_groups / max(1, len(self.groups))

    def total_inst_count(self) -> float:
        return self.scale * sum(g.inst_count for g in self.groups)

    def iter_events(self) -> Iterator[MemEvent]:
        for g in self.groups:
            yield from g.events
