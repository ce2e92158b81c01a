"""Unit tests for the cache simulator and access-stream helpers."""

import numpy as np

from repro.perf.cache import (
    CacheHierarchy,
    SetAssocCache,
    collapse_consecutive,
)


class TestSetAssocCache:
    def test_cold_miss_then_hit(self):
        c = SetAssocCache(1, 2, 64)  # 1 KiB, 2-way: 8 sets
        assert not c.access(5)
        assert c.access(5)
        assert c.stats.accesses == 2 and c.stats.hits == 1

    def test_lru_eviction(self):
        c = SetAssocCache(size_kb=64 / 1024 * 2, assoc=2, line_size=64)  # 1 set...
        c = SetAssocCache(0.125, 2, 64)  # 2 lines total: 1 set, 2-way
        assert c.n_sets == 1
        c.access(1)
        c.access(2)
        c.access(1)      # 1 becomes MRU
        c.access(3)      # evicts 2 (LRU)
        assert c.access(1)
        assert not c.access(2)

    def test_set_conflicts_with_power_of_two_stride(self):
        """Lines 64 sets apart in a 64-set cache all collide — the paper's
        column-access pathology."""
        c = SetAssocCache(32, 8, 64)  # 32 KiB / 64 B / 8-way = 64 sets
        lines = [i * 64 for i in range(16)]  # same set index
        for l in lines:
            c.access(l)
        # revisit: 16 lines > 8 ways -> all miss again
        hits = sum(c.access(l) for l in lines)
        assert hits == 0

    def test_spread_stride_fits(self):
        c = SetAssocCache(32, 8, 64)
        lines = [i * 65 for i in range(16)]  # different sets
        for l in lines:
            c.access(l)
        hits = sum(c.access(l) for l in lines)
        assert hits == 16

    def test_fill_does_not_count(self):
        c = SetAssocCache(1, 2, 64)
        c.fill(7)
        assert c.stats.accesses == 0
        assert c.access(7)

    def test_reset(self):
        c = SetAssocCache(1, 2, 64)
        c.access(1)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(1)

    def test_hit_rate(self):
        c = SetAssocCache(1, 2, 64)
        c.access(1)
        c.access(1)
        assert c.stats.hit_rate == 0.5
        assert SetAssocCache(1, 2).stats.hit_rate == 0.0


class TestCollapse:
    def test_consecutive_duplicates_dropped(self):
        lines = np.array([1, 1, 1, 2, 2, 1, 3])
        np.testing.assert_array_equal(collapse_consecutive(lines), [1, 2, 1, 3])

    def test_empty(self):
        assert len(collapse_consecutive(np.array([], dtype=np.int64))) == 0

    def test_no_duplicates_unchanged(self):
        lines = np.arange(5)
        np.testing.assert_array_equal(collapse_consecutive(lines), lines)


class TestHierarchy:
    def _hier(self, prefetch=True):
        return CacheHierarchy(
            [SetAssocCache(0.25, 4, 64), SetAssocCache(1, 4, 64)], prefetch=prefetch
        )

    def test_levels_counted(self):
        h = self._hier()
        counts = h.run(np.array([1, 1, 1]))
        assert counts.memory == 1
        assert counts.level_hits == [2, 0]
        assert counts.total == 3

    def test_l2_catches_l1_evictions(self):
        h = self._hier()
        # L1 = 4 lines (1 set x 4? 0.25KB/64 = 4 lines, 1 set 4-way)
        stream = np.array([0, 1, 2, 3, 4, 0])  # 5 lines thrash L1 set
        counts = h.run(stream)
        assert counts.level_hits[1] >= 1  # the re-access of 0 hits L2

    def test_prefetch_detected_for_sequential_misses(self):
        h = self._hier()
        stream = np.arange(100, 110)  # sequential lines, all cold misses
        counts = h.run(stream)
        assert counts.memory == 10
        assert counts.prefetched >= 8

    def test_prefetch_stops_at_page_boundary(self):
        h = self._hier()
        # lines 63,64 cross the 4 KiB page boundary (64 lines/page)
        counts = h.run(np.array([63, 64]))
        assert counts.prefetched == 0

    def test_prefetch_disabled(self):
        h = self._hier(prefetch=False)
        counts = h.run(np.arange(50, 60))
        assert counts.prefetched == 0

    def test_strided_stream_not_prefetched(self):
        h = self._hier()
        counts = h.run(np.arange(0, 640, 64))
        assert counts.prefetched == 0
