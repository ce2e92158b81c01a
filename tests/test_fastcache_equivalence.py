"""Fast-path cache simulation must be bit-identical to the reference.

The vectorised simulator in ``repro.perf.fastcache`` is only allowed to
change wall-clock time, never a modeled number: these tests drive both
implementations with the same randomized streams (strided, column,
streaming and uniform-random patterns, plus warm fills and chunked
incremental access) and require identical per-access hit masks,
``CacheStats`` and ``HierarchyCounts`` — including the next-line
prefetcher's 4 KiB page-boundary rule.  Sets that overflow their ways
are decided by a bitset window test; its own section drives it through
multi-word bitsets, high associativity, long windows, the CPU models'
geometries and its memory-budget fallback to the sequential walk.
Real app traces close the loop: both variants of every Table III app
price identically through the CPU and GPU models on either backend
(the same check at bench scale is ``benchmarks/test_pricing_equivalence.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.harness import run_app
from repro.apps.registry import TABLE_ORDER, get_app
from repro.perf import fastcache
from repro.perf.cache import CacheHierarchy, SetAssocCache
from repro.perf.devices import CPU_DEVICES, FERMI, SNB
from repro.perf.fastcache import (
    FastCacheHierarchy,
    FastSetAssocCache,
    cache_backend,
    lru_hits,
    make_hierarchy,
)
from tests.conftest import assert_pricing_exact

# -- stream generators ----------------------------------------------------------


def _pattern_stream(pattern: str, n: int, stride: int, span: int) -> np.ndarray:
    i = np.arange(n, dtype=np.int64)
    if pattern == "streaming":
        return i % span
    if pattern == "strided":
        return (i * stride) % span
    if pattern == "column":
        # row-major matrix walked down a column: large power-of-two-ish
        # stride, the paper's conflict-miss workhorse
        return (i * 64) % span
    raise AssertionError(pattern)


pattern_st = st.sampled_from(["streaming", "strided", "column"])


# -- single level ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    pattern=pattern_st,
    n=st.integers(1, 300),
    stride=st.integers(1, 17),
    span=st.integers(1, 4096),
    size_kb=st.sampled_from([0.5, 1, 2, 4]),
    assoc=st.sampled_from([1, 2, 4, 8]),
)
def test_single_level_matches_reference(pattern, n, stride, span, size_kb, assoc):
    lines = _pattern_stream(pattern, n, stride, span)
    ref = SetAssocCache(size_kb, assoc)
    fast = FastSetAssocCache(size_kb, assoc)
    ref_hits = np.array([ref.access(int(l)) for l in lines.tolist()])
    fast_hits = fast.access_many(lines)
    assert np.array_equal(ref_hits, fast_hits)
    assert (ref.stats.accesses, ref.stats.hits) == (
        fast.stats.accesses,
        fast.stats.hits,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 250),
    n_chunks=st.integers(1, 5),
    warm=st.integers(0, 30),
    assoc=st.sampled_from([2, 4, 8]),
)
def test_random_stream_with_fills_and_chunks(seed, n, n_chunks, warm, assoc):
    """Uniform-random lines, warm fills first, then incremental batches."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 300, n).astype(np.int64)
    warm_lines = rng.integers(0, 300, warm).astype(np.int64)
    ref = SetAssocCache(1, assoc)
    fast = FastSetAssocCache(1, assoc)
    for w in warm_lines.tolist():
        ref.fill(w)
    fast.fill_many(warm_lines)
    ref_hits = np.array([ref.access(int(l)) for l in lines.tolist()], dtype=bool)
    cuts = np.sort(rng.integers(0, n + 1, n_chunks - 1))
    chunks = [c for c in np.split(lines, cuts)]
    got = [fast.access_many(c) for c in chunks]
    fast_hits = np.concatenate(got) if got else np.zeros(0, bool)
    assert np.array_equal(ref_hits, fast_hits)
    assert (ref.stats.accesses, ref.stats.hits) == (
        fast.stats.accesses,
        fast.stats.hits,
    )


def test_scalar_shims():
    ref = SetAssocCache(0.5, 2)
    fast = FastSetAssocCache(0.5, 2)
    for line in [1, 2, 1, 9, 17, 1, 2]:
        assert ref.access(line) == fast.access(line)
    ref.fill(5)
    fast.fill(5)
    assert ref.access(5) == fast.access(5) is True
    assert (ref.stats.accesses, ref.stats.hits) == (
        fast.stats.accesses,
        fast.stats.hits,
    )


def test_lru_hits_empty_stream():
    assert lru_hits(np.empty(0, np.int64), 8, 2).shape == (0,)


def test_conflicted_set_exact_eviction_order():
    """A 2-way set cycled through 3 lines must miss every time."""
    lines = np.array([0, 8, 16, 0, 8, 16, 0, 8, 16], dtype=np.int64)
    hits = lru_hits(lines, 8, 2)  # all map to set 0
    assert not hits.any()
    # with 3 ways everything after the first round hits
    hits3 = lru_hits(lines, 8, 3)
    assert hits3.sum() == 6


# -- conflicted sets: the bitset window test -----------------------------------


def _reference_hits(lines: np.ndarray, size_kb: float, assoc: int) -> np.ndarray:
    ref = SetAssocCache(size_kb, assoc)
    return np.array([ref.access(line) for line in lines.tolist()], dtype=bool)


def _set_stream(rng, n_sets: int, sets: int, distinct: int, n: int) -> np.ndarray:
    """``n`` accesses spread over ``sets`` sets, each touched by up to
    ``distinct`` lines: uniform reuse mixed with cyclic sweeps, so the
    windows range from a few accesses to most of the stream."""
    set_ids = rng.choice(n_sets, size=sets, replace=False)
    tags = rng.integers(0, distinct, n)
    sweep = rng.random(n) < 0.5
    tags[sweep] = np.arange(n)[sweep] % distinct
    return (tags * n_sets + rng.choice(set_ids, n)).astype(np.int64)


@pytest.mark.parametrize("assoc", [2, 8, 16, 20])
@pytest.mark.parametrize("distinct", [40, 100, 200])
def test_window_test_multiword_bitsets(assoc, distinct):
    """Sets with more than 64 and 128 distinct lines need 2 and 4 words
    per bitset; associativity reaches the LLC's 16 and 20 ways."""
    rng = np.random.default_rng(assoc * 1000 + distinct)
    n_sets = 4
    lines = _set_stream(rng, n_sets, 3, distinct, 2500)
    size_kb = n_sets * assoc * 64 / 1024
    hits = lru_hits(lines, n_sets, assoc)
    assert np.array_equal(hits, _reference_hits(lines, size_kb, assoc))
    assert 0 < hits.sum() < len(lines)


@pytest.mark.parametrize("assoc", [8, 16, 20])
def test_window_test_long_windows(assoc):
    """Windows of more than 2**10 accesses, decided at the table's top
    levels: a reuse after ``assoc - 1`` other lines hits, after
    ``assoc`` it misses, however long the window."""
    filler_hit = [1 + k % (assoc - 1) for k in range(1100)]
    filler_miss = [1 + k % assoc for k in range(1500)]
    tags = [0] + filler_hit + [0] + filler_miss + [0]
    rng = np.random.default_rng(assoc)
    tags += rng.integers(0, 3 * assoc, 2000).tolist()
    n_sets = 2
    lines = np.array(tags, dtype=np.int64) * n_sets + 1
    hits = lru_hits(lines, n_sets, assoc)
    assert np.array_equal(hits, _reference_hits(lines, n_sets * assoc * 64 / 1024, assoc))
    assert hits[len(filler_hit) + 1] and not hits[len(filler_hit) + len(filler_miss) + 2]


def _cpu_levels():
    for dev in CPU_DEVICES.values():
        yield f"{dev.name}-L1", (dev.l1[0], dev.l1[1])
        yield f"{dev.name}-L2", (dev.l2[0], dev.l2[1])
        if dev.l3 is not None:
            yield f"{dev.name}-LLC", (dev.l3[0] / dev.cores, dev.l3[1])


@pytest.mark.parametrize(
    "size_kb, assoc", [spec for _, spec in _cpu_levels()],
    ids=[name for name, _ in _cpu_levels()],
)
def test_window_test_cpu_geometries(size_kb, assoc):
    """The L1, L2 and per-core LLC geometries the CPU models price on,
    driven by column walks that pile lines into a few sets."""
    ref, fast = SetAssocCache(size_kb, assoc), FastSetAssocCache(size_kb, assoc)
    rng = np.random.default_rng(int(size_kb) + assoc)
    lines = _set_stream(rng, fast.n_sets, 6, 3 * assoc, 3000)
    ref_hits = np.array([ref.access(line) for line in lines.tolist()], dtype=bool)
    assert np.array_equal(fast.access_many(lines), ref_hits)
    assert (ref.stats.accesses, ref.stats.hits) == (fast.stats.accesses, fast.stats.hits)


def _spy(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(fastcache, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fastcache, name, spy)
    return calls


def test_set_over_table_budget_takes_the_walk(monkeypatch):
    """A streaming set whose table (accesses x distinct lines / 64
    words) exceeds the budget is walked; another conflicted set in the
    same stream still takes the window test."""
    walks = _spy(monkeypatch, "_conflicted_hits")
    windows = _spy(monkeypatch, "_window_hits")
    n_sets, assoc, distinct = 4, 8, 2100
    stream_tags = np.tile(np.arange(distinct), 16)
    small = np.random.default_rng(0).integers(0, 3 * assoc, 3000)
    lines = np.concatenate([stream_tags * n_sets, small * n_sets + 1])
    words = len(stream_tags) * -(-distinct // 64)
    assert words > fastcache._TABLE_WORDS
    hits = lru_hits(lines, n_sets, assoc)
    assert np.array_equal(hits, _reference_hits(lines, n_sets * assoc * 64 / 1024, assoc))
    assert len(walks) == 1 and len(walks[0][0]) == len(stream_tags)
    assert len(windows) == 1


def test_sets_split_into_chunks_under_a_small_budget(monkeypatch):
    """Conflicted sets too many for one table are answered chunk by
    chunk, and a set too large for any chunk is walked."""
    monkeypatch.setattr(fastcache, "_TABLE_WORDS", 2000)
    walks = _spy(monkeypatch, "_conflicted_hits")
    windows = _spy(monkeypatch, "_window_hits")
    rng = np.random.default_rng(5)
    n_sets, assoc = 16, 4
    # a dozen sets of ~330 accesses x 2 words, and one of 1500 x 2
    big_set = rng.integers(0, 100, 1500) * n_sets + n_sets - 1
    lines = np.concatenate([_set_stream(rng, n_sets - 1, 12, 70, 4000), big_set])
    hits = lru_hits(lines, n_sets, assoc)
    assert np.array_equal(hits, _reference_hits(lines, n_sets * assoc * 64 / 1024, assoc))
    assert len(walks) == 1 and len(windows) > 1


# -- hierarchy (incl. prefetch page rule) --------------------------------------


def _hier_pair(specs, prefetch):
    ref = CacheHierarchy([SetAssocCache(*s) for s in specs], prefetch=prefetch)
    fast = FastCacheHierarchy(
        [FastSetAssocCache(*s) for s in specs], prefetch=prefetch
    )
    return ref, fast


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pattern=st.sampled_from(["streaming", "strided", "column", "random"]),
    n=st.integers(1, 400),
    prefetch=st.booleans(),
    warm=st.integers(0, 25),
)
def test_hierarchy_counts_match(seed, pattern, n, prefetch, warm):
    rng = np.random.default_rng(seed)
    if pattern == "random":
        lines = rng.integers(0, 400, n).astype(np.int64)
    else:
        lines = _pattern_stream(pattern, n, int(rng.integers(1, 9)), 311)
    specs = [(1, 2, 64, "L1"), (4, 8, 64, "L2")]
    ref, fast = _hier_pair(specs, prefetch)
    warm_lines = np.unique(rng.integers(0, 100, warm)).astype(np.int64)
    ref.fill(warm_lines)
    fast.fill(warm_lines)
    a, b = ref.run(lines), fast.run(lines)
    assert a.level_hits == b.level_hits
    assert a.memory == b.memory
    assert a.prefetched == b.prefetched
    assert a.total == b.total == len(lines)


def test_prefetch_page_boundary_rule():
    """Sequential misses prefetch, except the first line of a 4 KiB page."""
    # 64-byte lines -> 64 lines per page; a long cold streaming run
    lines = np.arange(0, 130, dtype=np.int64)
    specs = [(0.5, 1, 64, "L1")]
    ref, fast = _hier_pair(specs, prefetch=True)
    a, b = ref.run(lines), fast.run(lines)
    assert (a.memory, a.prefetched) == (b.memory, b.prefetched)
    # misses at lines 64 and 128 start new pages: not prefetched
    assert a.prefetched == 130 - 1 - 2


# -- the Table III apps, priced on SNB and Fermi -------------------------------


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_table_app_traces_price_exactly(app_id):
    """Both variants at test scale, 4 sampled groups, memo off."""
    app = get_app(app_id)
    for variant in ("with", "without"):
        trace = run_app(
            app, variant, "test", collect_trace=True, sample_groups=4
        ).trace
        assert_pricing_exact(trace, [SNB, FERMI])


# -- backend plumbing -----------------------------------------------------------


def test_make_hierarchy_backends():
    specs = [(1, 2, 64, "L1")]
    assert isinstance(make_hierarchy(specs, backend="fast"), FastCacheHierarchy)
    assert isinstance(make_hierarchy(specs, backend="reference"), CacheHierarchy)
    with pytest.raises(ValueError):
        make_hierarchy(specs, backend="nope")


def test_env_var_overrides_backend(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "reference")
    assert cache_backend() == "reference"
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "bogus")
    with pytest.raises(ValueError):
        cache_backend()


def test_reset_clears_history():
    fast = FastSetAssocCache(0.5, 2)
    fast.access_many(np.array([1, 2, 3], dtype=np.int64))
    fast.reset()
    assert fast.stats.accesses == 0
    # after reset, line 1 is cold again
    assert not fast.access_many(np.array([1], dtype=np.int64))[0]
