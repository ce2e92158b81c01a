"""Set-associative LRU cache simulation (the reference oracle).

This per-access implementation is the semantic ground truth; the
vectorised fast path in :mod:`repro.perf.fastcache` must produce
bit-identical hit/miss/prefetch counts (enforced by the equivalence
test suite) and is what the performance models use by default.

The simulator is line-granular and driven by pre-computed numpy arrays
of line ids (the vectorisable part — extraction, collapsing of
consecutive same-line accesses — happens before the inherently
sequential LRU walk).

Set indexing uses the low bits of the line id, which is what makes
power-of-two row strides conflict-prone — the mechanism behind the
paper's "data elements are kicked out of caches before reuse"
observation for column-major matrix access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """One cache level: ``size_kb`` KiB, ``assoc``-way, LRU replacement."""

    def __init__(self, size_kb: float, assoc: int, line_size: int = 64, name: str = "") -> None:
        self.line_size = line_size
        self.assoc = assoc
        self.name = name
        n_lines = int(size_kb * 1024) // line_size
        self.n_sets = max(1, n_lines // assoc)
        # each set: python list of tags, MRU at the end
        self.sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        self.sets = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, line: int) -> bool:
        """One access; returns True on hit."""
        ways = self.sets[line % self.n_sets]
        self.stats.accesses += 1
        if line in ways:
            # move to MRU position
            ways.remove(line)
            ways.append(line)
            self.stats.hits += 1
            return True
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)
        return False

    def fill(self, line: int) -> None:
        """Insert without counting an access (prefetch fills)."""
        ways = self.sets[line % self.n_sets]
        if line in ways:
            ways.remove(line)
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)


def collapse_consecutive(lines: np.ndarray) -> np.ndarray:
    """Drop immediately repeated line ids (intra-line spatial locality;
    those accesses pipeline for free and are already counted as
    instructions)."""
    if len(lines) == 0:
        return lines
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return lines[keep]


@dataclass
class HierarchyCounts:
    """How many accesses were served by each level."""

    level_hits: List[int]
    memory: int
    prefetched: int = 0

    @property
    def total(self) -> int:
        return sum(self.level_hits) + self.memory


class CacheHierarchy:
    """Private L1/L2 (+ optional LLC slice) with a next-line prefetcher.

    The prefetcher tracks the last miss line: a memory access to the
    immediately following line within the same 4 KiB page is counted as
    ``prefetched`` (served at a fraction of memory latency) — this is
    what rewards streaming access over strided/column access.
    """

    def __init__(self, levels: List[SetAssocCache], prefetch: bool = True) -> None:
        self.levels = levels
        self.prefetch = prefetch

    def reset(self) -> None:
        for lv in self.levels:
            lv.reset()

    def fill(self, lines: np.ndarray) -> None:
        """Warm every level with ``lines`` (uncounted fills, in order)."""
        for lv in self.levels:
            for line in np.asarray(lines, dtype=np.int64).tolist():
                lv.fill(line)

    def run(self, lines: np.ndarray) -> HierarchyCounts:
        levels = self.levels
        n_levels = len(levels)
        hits = [0] * n_levels
        memory = 0
        prefetched = 0
        prev_miss = -2
        lines_per_page = 4096 // levels[0].line_size
        for line in lines.tolist():
            served = -1
            for i in range(n_levels):
                if levels[i].access(line):
                    served = i
                    break
            if served >= 0:
                hits[served] += 1
                # fill upper levels (inclusive hierarchy)
                for j in range(served):
                    levels[j].fill(line)
            else:
                memory += 1
                if (
                    self.prefetch
                    and line == prev_miss + 1
                    and (line % lines_per_page) != 0
                ):
                    prefetched += 1
                prev_miss = line
        return HierarchyCounts(hits, memory, prefetched)
