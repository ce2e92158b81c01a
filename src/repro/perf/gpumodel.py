"""GPU timing model: coalescing, banked scratch-pad, latency hiding.

Used by the Fig. 2 motivation experiment (Fermi / Kepler / Tahiti).

Per vectorised memory event the work-group is cut into warps:

* **global** accesses cost one transaction per distinct ``segment``-byte
  block touched by the warp (the coalescing rule) — an uncoalesced
  column access explodes into ``warp_size`` transactions, which is what
  makes Matrix Transpose without local memory catastrophic on GPUs;
  transactions then probe the (optional) L1 and the L2;
* **local** (scratch-pad) accesses cost the bank-conflict degree of the
  warp: the maximum number of *distinct words* wanted from one bank.

Both rules are applied to a whole work-group at once: its events are
concatenated, tagged with their event index and lexsorted, so one
sorted pass per address-space class replaces a sort per event.

Compute cost is issue-throughput-bound; the final group cost is
``compute + (1 - latency_hiding) * memory`` — multithreading overlaps
most memory time with compute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.ir.types import AddressSpace
from repro.session import events
from repro.perf.devices import GPUSpec
from repro.perf.fastcache import make_hierarchy, memo_enabled
from repro.runtime.trace import GroupTrace, KernelTrace, MemEvent


@dataclass
class GPUGroupCost:
    compute_cycles: float
    mem_cycles: float
    spm_cycles: float
    transactions: int

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.mem_cycles + self.spm_cycles


class GPUModel:
    def __init__(
        self,
        spec: GPUSpec,
        memoize: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.spec = spec
        #: reuse the simulated cost of groups with an identical
        #: relative access pattern (see GroupTrace.fingerprint)
        self.memoize = memo_enabled() if memoize is None else memoize
        self.backend = backend
        self._group_costs: Dict[bytes, GPUGroupCost] = {}

    def _caches(self):
        s = self.spec
        specs = []
        if s.global_l1:
            specs.append((s.l1_kb, s.l1_assoc, s.line_size, "L1"))
        specs.append((s.l2_kb / s.compute_units, s.l2_assoc, s.line_size, "L2"))
        return make_hierarchy(specs, prefetch=False, backend=self.backend)

    def _spm_cycles(self, local: List[MemEvent]) -> float:
        """Scratch-pad cost of all local events of a group.

        Per (event, warp) the bank-conflict degree is the maximum number
        of *distinct words* wanted from one bank (a broadcast of the
        same word is free).  One lexsort on (event, warp, bank, word)
        puts every (event, warp, bank) run in order; its distinct words
        are the run's word boundaries, and the degree is the maximum of
        those counts over the warp's banks.
        """
        s = self.spec
        ev = _event_index(local)
        warps = np.concatenate([e.lanes for e in local]) // s.warp_size
        words = np.concatenate([e.offsets for e in local]) // 4
        banks = words % s.spm_banks
        order = np.lexsort((words, banks, warps, ev))
        ev, warps, banks, words = ev[order], warps[order], banks[order], words[order]
        new_warp = _run_starts(ev, warps)
        new_bank = new_warp | _run_starts(banks)
        new_word = new_bank | _run_starts(words)
        bank_starts = np.flatnonzero(new_bank)
        distinct = np.add.reduceat(new_word.astype(np.int64), bank_starts)
        degrees = np.maximum.reduceat(distinct, np.flatnonzero(new_warp[bank_starts]))
        return int(degrees.sum()) * s.cost_spm

    def _transactions(self, other: List[MemEvent]) -> np.ndarray:
        """Coalesce global/constant events into per-warp segment
        transactions: one line id per distinct ``segment``-byte block
        touched by each warp, event-major, then warp-major, segments
        ascending (the order the events were issued in)."""
        s = self.spec
        ev = _event_index(other)
        warps = np.concatenate([e.lanes for e in other]) // s.warp_size
        segs = np.concatenate([e.offsets for e in other]) // s.segment
        order = np.lexsort((segs, warps, ev))
        ev, warps, segs = ev[order], warps[order], segs[order]
        first = _run_starts(ev, warps, segs)
        buffers = np.array([e.buffer_id for e in other], np.int64)
        return (buffers[ev[first]] << 40) | segs[first].astype(np.int64)

    def time_group(self, gt: GroupTrace) -> GPUGroupCost:
        if self.memoize:
            key = gt.fingerprint()
            cached = self._group_costs.get(key)
            if cached is not None:
                if events.bus_active():
                    events.emit(
                        "model_memo_hit",
                        device=self.spec.name,
                        fingerprint_sha1=hashlib.sha1(key).hexdigest()[:12],
                    )
                return cached
        s = self.spec
        local: List[MemEvent] = []
        other: List[MemEvent] = []
        for ev in gt.events:
            if ev.count:
                (local if ev.space == AddressSpace.LOCAL else other).append(ev)
        spm_cycles = self._spm_cycles(local) if local else 0.0

        mem_cycles = 0.0
        transactions = 0
        if other:
            stream = self._transactions(other)
            transactions = len(stream)
            counts = self._caches().run(stream)
            level_costs = (
                [s.cost_l1, s.cost_l2] if s.global_l1 else [s.cost_l2]
            )
            mem_cycles = sum(
                h * c for h, c in zip(counts.level_hits, level_costs)
            )
            mem_cycles += counts.memory * s.cost_mem

        compute_cycles = gt.inst_count / s.issue_width
        hidden = 1.0 - s.latency_hiding
        cost = GPUGroupCost(
            compute_cycles=compute_cycles,
            mem_cycles=mem_cycles * hidden,
            spm_cycles=spm_cycles,
            transactions=transactions,
        )
        if self.memoize:
            self._group_costs[key] = cost
        return cost

    def time_kernel(self, trace: KernelTrace) -> float:
        total = sum(self.time_group(g).cycles for g in trace.groups)
        cycles = trace.scale * total
        events.emit(
            "model_kernel_timed",
            device=self.spec.name,
            cycles=float(cycles),
            groups=len(trace.groups),
        )
        return cycles


def _event_index(evs: List[MemEvent]) -> np.ndarray:
    """The index of its event for every lane of the concatenated events."""
    return np.repeat(np.arange(len(evs)), [e.count for e in evs])


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted ``keys`` that start a new run of equal
    key tuples (the first row always does)."""
    start = np.zeros(len(keys[0]), dtype=bool)
    start[0] = True
    for k in keys:
        start[1:] |= k[1:] != k[:-1]
    return start
