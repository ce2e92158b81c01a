"""Cache-only CPU timing model.

Execution scheme (what Intel's CPU runtime and Twin Peaks do, as cited
in the paper's Section VI-C):

* each work-group runs on one hardware thread;
* between barriers, the work-items of the group execute *serially* —
  this is the implicit tiling that gives CPUs data locality without
  local memory;
* ``__local`` memory is ordinary cacheable memory: staging data through
  it costs real instructions and real cache traffic (the paper's
  motivation for removing it).

Cost model per work-group::

    cycles = instructions / ipc
           + sum(level_hits * lat_level) / mlp
           + (memory_misses_prefetched * lat_mem * prefetch_factor
              + other_misses * lat_mem) / mlp
           + barriers * work_items * barrier_cost

The private L1/L2 are simulated per group (fresh — a group's stream is
what the thread sees); the shared LLC is approximated by a
per-thread slice of ``l3_size / cores``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.types import AddressSpace
from repro.perf.cache import collapse_consecutive
from repro.perf.devices import CPUSpec
from repro.perf.fastcache import make_hierarchy, memo_enabled
from repro.perf.pricing import group_costs, kernel_cycles, run_levels
from repro.runtime.trace import GroupTrace, KernelTrace

_CACHED_SPACES = (AddressSpace.GLOBAL, AddressSpace.CONSTANT, AddressSpace.LOCAL)


@dataclass
class CPUGroupCost:
    inst_cycles: float
    mem_cycles: float
    barrier_cycles: float
    accesses: int
    level_hits: List[int]
    memory_misses: int
    prefetched: int

    @property
    def cycles(self) -> float:
        return self.inst_cycles + self.mem_cycles + self.barrier_cycles


class CPUModel:
    def __init__(
        self,
        spec: CPUSpec,
        warm_local: bool = True,
        memoize: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.spec = spec
        #: model the __local arena as thread-resident (cache-warm); the
        #: ablation benchmark sets False to show why this matters
        self.warm_local = warm_local
        #: reuse the simulated cost of groups with an identical
        #: relative access pattern (see GroupTrace.fingerprint);
        #: defaults to the REPRO_PERF_MEMO switch
        self.memoize = memo_enabled() if memoize is None else memoize
        #: cache backend override ('fast'/'reference'); None = process default
        self.backend = backend
        self._group_costs: Dict[bytes, CPUGroupCost] = {}

    def _hierarchy(self):
        s = self.spec
        specs = [
            (s.l1[0], s.l1[1], s.line_size, "L1"),
            (s.l2[0], s.l2[1], s.line_size, "L2"),
        ]
        if s.l3 is not None:
            # one thread's slice of the shared LLC
            specs.append((s.l3[0] / s.cores, s.l3[1], s.line_size, "LLC"))
        return make_hierarchy(specs, backend=self.backend)

    def time_group(self, gt: GroupTrace) -> CPUGroupCost:
        return group_costs(gt, [self])[0]

    def time_kernel(self, trace: KernelTrace) -> float:
        """Total cycle estimate for the launch (single-thread-equivalent;
        the core count cancels in normalised comparisons)."""
        return kernel_cycles(trace, [self])[0]

    @staticmethod
    def price_group(gt: GroupTrace, models: List["CPUModel"]) -> List[CPUGroupCost]:
        """The cost of ``gt`` on each CPU model, with every shared step
        done once: one serialisation of the group, one line stream and
        warm-local fill set per line size, and one simulation per
        distinct cache-level prefix and warm-local setting (SNB,
        Nehalem and MIC share their L1, SNB and Nehalem their L2)."""
        stream = gt.serialized(_CACHED_SPACES)
        #: line size -> (every access's line, consecutive repeats collapsed)
        lines: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: line size -> the local arena's lines
        fills: Dict[int, np.ndarray] = {}
        prefixes: Dict[bool, dict] = {False: {}, True: {}}
        out = []
        for m in models:
            size = m.spec.line_size
            if size not in lines:
                all_lines = stream.line_ids(size)
                lines[size] = (all_lines, collapse_consecutive(all_lines))
            all_lines, accessed = lines[size]
            hier = m._hierarchy()
            if m.warm_local:
                # the __local arena belongs to the executing thread and
                # is reused across thousands of work-groups — warm, not cold
                if size not in fills:
                    local = stream.spaces == int(AddressSpace.LOCAL)
                    fills[size] = np.unique(all_lines[local])
                hier.fill(fills[size])
            counts = run_levels(hier, accessed, prefixes[m.warm_local])
            out.append(m._cost(gt, counts, len(accessed)))
        return out

    def _cost(self, gt: GroupTrace, counts, accesses: int) -> CPUGroupCost:
        s = self.spec
        lat = [s.lat_l1, s.lat_l2, s.lat_l3]
        mem_cycles = sum(h * l for h, l in zip(counts.level_hits, lat))
        full = counts.memory - counts.prefetched
        mem_cycles += full * s.lat_mem + counts.prefetched * s.lat_mem * s.prefetch_factor
        mem_cycles /= s.mlp

        inst_cycles = gt.inst_count / s.ipc
        barrier_cycles = gt.barriers * gt.work_items * s.barrier_cost
        return CPUGroupCost(
            inst_cycles=inst_cycles,
            mem_cycles=mem_cycles,
            barrier_cycles=barrier_cycles,
            accesses=accesses,
            level_hits=counts.level_hits,
            memory_misses=counts.memory,
            prefetched=counts.prefetched,
        )
