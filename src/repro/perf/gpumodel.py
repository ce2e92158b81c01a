"""GPU timing model: coalescing, banked scratch-pad, latency hiding.

Used by the Fig. 2 motivation experiment (Fermi / Kepler / Tahiti).

Per vectorised memory event the work-group is cut into warps:

* **global** accesses cost one transaction per distinct ``segment``-byte
  block touched by the warp (the coalescing rule) — an uncoalesced
  column access explodes into ``warp_size`` transactions, which is what
  makes Matrix Transpose without local memory catastrophic on GPUs;
  transactions then look up the (optional) L1 and the L2;
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.types import AddressSpace
from repro.perf.devices import GPUSpec
from repro.perf.fastcache import make_hierarchy, memo_enabled
from repro.perf.pricing import group_costs, kernel_cycles, run_levels
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
    ) -> None:
        self.spec = spec
        #: reuse the simulated cost of groups with an identical
        #: relative access pattern (see GroupTrace.fingerprint)
        self.memoize = memo_enabled() if memoize is None else memoize
        self._group_costs: Dict[bytes, GPUGroupCost] = {}

    def _caches(self):
        s = self.spec
        specs = []
        if s.global_l1:
            specs.append((s.l1_kb, s.l1_assoc, s.line_size, "L1"))
        specs.append((s.l2_kb / s.compute_units, s.l2_assoc, s.line_size, "L2"))
        return make_hierarchy(specs, prefetch=False)

    def _degree_sum(self, local: List[MemEvent]) -> int:
        """Summed bank-conflict degree of all local events of a group.

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
        return int(degrees.sum())

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
        return group_costs(gt, [self])[0]

    def time_kernel(self, trace: KernelTrace) -> float:
        return kernel_cycles(trace, [self])[0]

    @staticmethod
    def price_group(gt: GroupTrace, models: List["GPUModel"]) -> List[GPUGroupCost]:
        """The cost of ``gt`` on each GPU model, with every shared step
        done once: the local/global split of the events, one conflict
        degree sum per (warp size, bank count), and one transaction
        stream per (warp size, segment) whose cache-level prefixes are
        simulated once (Fermi and Kepler share all three)."""
        local: List[MemEvent] = []
        other: List[MemEvent] = []
        for ev in gt.events:
            if ev.count:
                (local if ev.space == AddressSpace.LOCAL else other).append(ev)
        degree_sums: Dict[Tuple[int, int], int] = {}
        streams: Dict[Tuple[int, int], Tuple[np.ndarray, dict]] = {}
        out = []
        for m in models:
            s = m.spec
            spm_cycles = 0.0
            if local:
                key = (s.warp_size, s.spm_banks)
                if key not in degree_sums:
                    degree_sums[key] = m._degree_sum(local)
                spm_cycles = degree_sums[key] * s.cost_spm

            mem_cycles = 0.0
            transactions = 0
            if other:
                key = (s.warp_size, s.segment)
                if key not in streams:
                    streams[key] = (m._transactions(other), {})
                stream, prefixes = streams[key]
                transactions = len(stream)
                counts = run_levels(m._caches(), stream, prefixes)
                level_costs = (
                    [s.cost_l1, s.cost_l2] if s.global_l1 else [s.cost_l2]
                )
                mem_cycles = sum(
                    h * c for h, c in zip(counts.level_hits, level_costs)
                )
                mem_cycles += counts.memory * s.cost_mem

            compute_cycles = gt.inst_count / s.issue_width
            hidden = 1.0 - s.latency_hiding
            out.append(
                GPUGroupCost(
                    compute_cycles=compute_cycles,
                    mem_cycles=mem_cycles * hidden,
                    spm_cycles=spm_cycles,
                    transactions=transactions,
                )
            )
        return out


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
