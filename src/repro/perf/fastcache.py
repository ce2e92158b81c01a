"""Vectorised set-associative LRU cache simulation — the fast path.

Semantically bit-identical to the reference simulator in
:mod:`repro.perf.cache` (which stays as the equivalence oracle), but
asymptotically and practically faster on realistic traces.

Two observations turn the per-access LRU walk into batch array work:

1. **LRU is offline.**  The reference cache inserts on every miss, and
   ``fill`` has the same state effect as ``access``, so a set's LRU
   stack is always the recency order of the distinct lines that touched
   it.  An access therefore hits iff fewer than ``assoc`` *distinct*
   same-set lines occurred since its previous occurrence — the classic
   stack-distance criterion.  In particular a set touched by at most
   ``assoc`` distinct lines over the whole stream can never evict:
   every repeat access hits, decidable with a few array passes and no
   per-access Python.  Real traces (tiled kernels reusing a warm local
   arena) resolve >90% of their accesses this way.  In the sets that
   do overflow their ways, the distinct-line count of each window is
   a popcount over a range-OR sparse table of per-line bitsets, still
   whole-array work; only a set whose table would exceed a fixed
   memory budget is walked sequentially, at reference speed.

2. **Hierarchy fills are no-ops.**  Because ``access`` inserts on miss
   before lower levels are probed, the upper-level ``fill`` calls made
   after a lower-level hit never change cache state (the line is
   already at MRU).  Each level's input stream is therefore exactly the
   subsequence of lines that missed every level above it, and levels
   are simulated one after another on filtered arrays.

Backend selection: the models default to this fast path; set the
``cache_backend`` session variable (``REPRO_CACHE_BACKEND=reference``,
a ``--config`` entry, or ``Session(cache_backend="reference")``) to
force the reference oracle, e.g. when debugging a suspected simulator
issue.  The
``perf_memo`` variable (``REPRO_PERF_MEMO=0``) disables group-trace
memoization in the models the same way.  Both knobs live in the
session config registry (:mod:`repro.session.config`); this module
performs config *lookups*, never raw environment reads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.cache import CacheHierarchy, CacheStats, HierarchyCounts, SetAssocCache

#: (size_kb, assoc, line_size, name) — the constructor signature shared
#: by both cache implementations
LevelSpec = Tuple[float, int, int, str]

_VALID_BACKENDS = ("fast", "reference")


def cache_backend() -> str:
    """The active simulation backend: ``'fast'`` or ``'reference'``.

    Resolved through the current session — defaults < config file/dict
    < ``$REPRO_CACHE_BACKEND`` < ``Session(cache_backend=...)``.
    """
    from repro.session import current_session

    return current_session().get("cache_backend")


def memo_enabled() -> bool:
    """Group-trace memoization default (``REPRO_PERF_MEMO=0`` disables)."""
    from repro.session import current_session

    return current_session().get("perf_memo")


def lru_hits(lines: np.ndarray, n_sets: int, assoc: int) -> np.ndarray:
    """Per-access hit mask of an ``assoc``-way LRU cache with ``n_sets``
    sets over a line-id stream, computed without sequential state.

    Accesses bind only within a set, so the stream is re-ordered
    set-major (stable) and each access is classified by the
    stack-distance criterion — it hits iff it has a previous occurrence
    ``p`` and fewer than ``assoc`` *distinct* same-set lines appeared
    strictly between ``p`` and it.  One stable sort by line yields
    every access's previous occurrence, and decides most accesses
    without looking inside the window:

    1. no previous occurrence: a miss;
    2. a set touched by at most ``assoc`` distinct lines over the whole
       stream can never evict, so every repeat in it hits.  On real
       traces (tiled kernels with a warm local arena) this resolves the
       vast majority of accesses, and a stream with no overflowing set
       is done after these few array passes;
    3. fewer than ``assoc`` accesses since ``p``: a hit.

    The remaining repeats in *conflicted* sets (ones that overflow
    their ways) take the window test of :func:`_window_hits`.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)

    # set-major stable ordering: windows (p, i) become contiguous
    # per-set runs, so position comparisons never cross sets.  Set ids
    # narrowed to 16 bits or fewer take numpy's radix sort.
    sets = (lines % n_sets).astype(np.min_scalar_type(n_sets - 1))
    order = np.argsort(sets, kind="stable")
    bucketed = lines[order]

    # stable sort by line: each equal neighbour pair in it is an access
    # and its previous occurrence, in stream order
    by_line = np.argsort(bucketed, kind="stable")
    sorted_lines = bucketed[by_line]
    same = np.zeros(n, dtype=bool)
    np.equal(sorted_lines[1:], sorted_lines[:-1], out=same[1:])
    hit_b = np.zeros(n, dtype=bool)
    hit_b[by_line] = same

    line_set = (sorted_lines[~same] % n_sets).astype(np.intp)
    u_per_set = np.bincount(line_set, minlength=n_sets)
    if (u_per_set > assoc).any():
        _decide_conflicted(
            hit_b, bucketed, by_line, same, line_set, u_per_set, n_sets, assoc
        )

    hits = np.empty(n, dtype=bool)
    hits[order] = hit_b
    return hits


#: uint64 words one range-OR table may hold (8 MiB).  A set's table has
#: one row per access and one bit per distinct line, so a long
#: streaming set could otherwise need hundreds of MB.
_TABLE_WORDS = 1 << 20


def _decide_conflicted(
    hit_b: np.ndarray,
    bucketed: np.ndarray,
    by_line: np.ndarray,
    same: np.ndarray,
    line_set: np.ndarray,
    u_per_set: np.ndarray,
    n_sets: int,
    assoc: int,
) -> None:
    """Overwrite ``hit_b`` (set-major; on entry "has a previous
    occurrence") with the exact verdicts of the conflicted sets.

    ``line_set`` is the set of each distinct line, in the line order of
    ``by_line``.  Repeats whose window needs a distinct-line count are
    answered chunk by chunk of whole sets, each chunk's table within
    ``_TABLE_WORDS``; a single set over that budget takes the reference
    LRU walk instead.
    """
    # the line-sorted positions of the conflicted sets' accesses: whole
    # runs of equal lines, so each run still starts with a first use
    run_len = np.diff(np.flatnonzero(~same), append=len(same))
    conflicted = u_per_set > assoc
    conf_run = conflicted[line_set]
    keep = np.repeat(conf_run, run_len)
    pos, repeat = by_line[keep], same[keep]
    set_len = np.bincount(line_set, weights=run_len, minlength=n_sets).astype(np.int64)
    run_len, run_set = run_len[conf_run], line_set[conf_run]

    # a window of fewer than ``assoc`` accesses cannot hold ``assoc``
    # distinct lines, so those repeats hit whatever the set
    pair = np.flatnonzero(repeat)
    cur, prev = pos[pair], pos[pair - 1]
    ask = cur - prev > assoc
    if not ask.any():
        return
    cur, prev = cur[ask], prev[ask]
    cur_set = np.repeat(run_set, run_len)[pair[ask]]

    # a line's bit is its rank among its set's distinct lines in
    # first-occurrence order: first occurrences come set-major in
    # ``bucketed``, so sorting them lays each set's lines out in a block
    by_first = np.argsort(pos[~repeat])
    u_conf = np.where(conflicted, u_per_set, 0)
    line_rank = np.empty(len(by_first), dtype=np.int64)
    line_rank[by_first] = np.arange(len(by_first)) - (
        np.cumsum(u_conf) - u_conf
    )[run_set[by_first]]
    # defined at the conflicted sets' positions only
    rank = np.empty(len(bucketed), dtype=np.int64)
    rank[pos] = np.repeat(line_rank, run_len)

    set_start = np.cumsum(set_len) - set_len
    words = (u_per_set + 63) >> 6
    asked = np.flatnonzero(np.bincount(cur_set, minlength=n_sets))
    walked = set_len[asked] * words[asked] > _TABLE_WORDS
    for s in asked[walked]:
        run = slice(set_start[s], set_start[s] + set_len[s])
        hit_b[run] = _conflicted_hits(bucketed[run], n_sets, assoc)

    chunks = _chunk_sets(asked[~walked], set_len, words)
    chunk_of = np.full(n_sets, -1)
    for c, chunk in enumerate(chunks):
        chunk_of[chunk] = c
    for c, chunk in enumerate(chunks):
        q = chunk_of[cur_set] == c
        hit_b[cur[q]] = _window_hits(
            chunk, cur[q], prev[q], cur_set[q], rank, set_len, set_start,
            words, assoc,
        )


def _chunk_sets(
    set_ids: np.ndarray, set_len: np.ndarray, words: np.ndarray
) -> List[np.ndarray]:
    """Split ``set_ids`` (each within budget alone) into consecutive
    runs whose table — total accesses × widest bitset — fits
    ``_TABLE_WORDS``."""
    if not set_ids.size:
        return []
    if set_len[set_ids].sum() * words[set_ids].max() <= _TABLE_WORDS:
        return [set_ids]
    chunks: List[np.ndarray] = []
    start = rows = width = 0
    for j, s in enumerate(set_ids.tolist()):
        grown = (rows + set_len[s], max(width, words[s]))
        if grown[0] * grown[1] > _TABLE_WORDS:
            chunks.append(set_ids[start:j])
            start, grown = j, (set_len[s], words[s])
        rows, width = grown
    chunks.append(set_ids[start:])
    return chunks


def _window_hits(
    chunk: np.ndarray,
    cur: np.ndarray,
    prev: np.ndarray,
    cur_set: np.ndarray,
    rank: np.ndarray,
    set_len: np.ndarray,
    set_start: np.ndarray,
    words: np.ndarray,
    assoc: int,
) -> np.ndarray:
    """Decide repeats ``cur`` (previous occurrences ``prev``, both
    set-major positions in the sets of ``chunk``) by counting the
    distinct lines strictly between them.

    The chunk's accesses are laid out set after set, each a bitset of
    its line's rank, stored word-major (one row per uint64 word).  A
    range-OR sparse table is built in place, level ``k`` holding the OR
    of ``2**k`` consecutive accesses; a window of ``g`` accesses is the
    OR of two overlapping level-``floor(log2 g)`` blocks, answered right
    after that level is built.  A window never spans two sets, so sets
    may share rank bits.
    """
    lens = set_len[chunk]
    m = int(lens.sum())
    shift = np.zeros(len(set_len), dtype=np.int64)
    shift[chunk] = set_start[chunk] - (np.cumsum(lens) - lens)
    r = rank[np.arange(m) + np.repeat(shift[chunk], lens)]
    table = np.zeros((int(words[chunk].max()), m), dtype=np.uint64)
    table[r >> 6, np.arange(m)] = np.left_shift(
        np.uint64(1), (r & 63).astype(np.uint64)
    )

    local = cur - shift[cur_set]
    gap = cur - prev - 1
    level = np.frexp(gap)[1] - 1  # floor(log2 gap), exact for ints
    lo = local - gap
    hi = local - np.left_shift(1, level)
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(level.max() + 2))
    out = np.empty(len(cur), dtype=bool)
    for k in range(int(level.max()) + 1):
        if k:
            half = 1 << (k - 1)
            for row in table:
                row[: m - half] |= row[half:]
        q = by_level[bounds[k] : bounds[k + 1]]
        if q.size:
            lo_q, hi_q = lo[q], hi[q]
            distinct = np.zeros(q.size, dtype=np.int64)
            for row in table:
                distinct += np.bitwise_count(row[lo_q] | row[hi_q])
            out[q] = distinct < assoc
    return out


def _conflicted_hits(sub: np.ndarray, n_sets: int, assoc: int) -> np.ndarray:
    """Hit mask for a set-major sub-stream, by the reference LRU walk.

    The sub-stream is grouped by set (one contiguous run per set), so
    the walk runs without per-access set lookups: the way list resets
    at each run boundary.  This is the only sequential part of the fast
    path; it runs only on a set whose window-test table would exceed
    ``_TABLE_WORDS``.
    """
    out = np.empty(len(sub), dtype=bool)
    cur_set = -1
    ways: List[int] = []
    for i, line in enumerate(sub.tolist()):
        s = line % n_sets
        if s != cur_set:
            cur_set = s
            ways = []
        if line in ways:
            ways.remove(line)
            ways.append(line)
            out[i] = True
        else:
            ways.append(line)
            if len(ways) > assoc:
                ways.pop(0)
            out[i] = False
    return out


class FastSetAssocCache:
    """Drop-in fast twin of :class:`repro.perf.cache.SetAssocCache`.

    Optimised for batch streaming: :meth:`access_many`/:meth:`fill_many`
    retain the stream history and evaluate hits offline, so a fill
    batch followed by one access batch (the models' usage) costs two
    vectorised passes.  The scalar ``access``/``fill`` shims exist for
    API compatibility and tests; they re-scan history and should not be
    used in hot loops.
    """

    def __init__(self, size_kb: float, assoc: int, line_size: int = 64, name: str = "") -> None:
        self.line_size = line_size
        self.assoc = assoc
        self.name = name
        n_lines = int(size_kb * 1024) // line_size
        self.n_sets = max(1, n_lines // assoc)
        self._chunks: List[np.ndarray] = []
        self.stats = CacheStats()

    def reset(self) -> None:
        self._chunks = []
        self.stats = CacheStats()

    # -- vector interface ------------------------------------------------------
    def access_many(self, lines: np.ndarray) -> np.ndarray:
        """Simulate a line-id stream; returns the per-access hit mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if len(lines) == 0:
            return np.zeros(0, dtype=bool)
        self._chunks.append(lines)
        if len(self._chunks) == 1:
            stream = lines
        else:
            stream = np.concatenate(self._chunks)
        hits = lru_hits(stream, self.n_sets, self.assoc)[len(stream) - len(lines):]
        self.stats.accesses += len(hits)
        self.stats.hits += int(hits.sum())
        return hits

    def fill_many(self, lines: np.ndarray) -> None:
        """Insert lines (MRU order) without counting accesses.

        A fill has the same state effect as an access — insert/move to
        MRU, evicting the LRU way on overflow — it just leaves the
        stats untouched, exactly like the reference ``fill``.  Because
        the mask is not needed, the fill just extends the retained
        history; hit evaluation happens lazily at the next access
        batch.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        if len(lines):
            self._chunks.append(lines)

    # -- scalar compatibility shims -------------------------------------------
    def access(self, line: int) -> bool:
        return bool(self.access_many(np.array([line], dtype=np.int64))[0])

    def fill(self, line: int) -> None:
        self.fill_many(np.array([line], dtype=np.int64))


class FastCacheHierarchy:
    """Fast twin of :class:`repro.perf.cache.CacheHierarchy`."""

    def __init__(self, levels: List[FastSetAssocCache], prefetch: bool = True) -> None:
        self.levels = levels
        self.prefetch = prefetch

    def reset(self) -> None:
        for lv in self.levels:
            lv.reset()

    def fill(self, lines: np.ndarray) -> None:
        """Warm every level with ``lines`` (uncounted fills, in order)."""
        for lv in self.levels:
            lv.fill_many(lines)

    def run(self, lines: np.ndarray, shared: Optional[dict] = None) -> HierarchyCounts:
        """Simulate ``lines`` level by level.

        ``shared`` lets hierarchies that run the same ``lines`` after
        the same fills reuse each other's levels: it maps a level prefix
        — ``(sets, ways, line size)`` of every level down to this one —
        to that level's hit count and the misses it passes down.  This
        is exact because a level sees nothing but the misses of the
        levels above it.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        level_hits: List[int] = []
        remaining = lines
        prefix: Tuple[Tuple[int, int, int], ...] = ()
        for lv in self.levels:
            prefix += ((lv.n_sets, lv.assoc, lv.line_size),)
            done = shared.get(prefix) if shared is not None else None
            if done is None:
                hit = lv.access_many(remaining)
                done = (int(hit.sum()), remaining[~hit])
                if shared is not None:
                    shared[prefix] = done
            level_hits.append(done[0])
            remaining = done[1]
        memory = len(remaining)
        prefetched = 0
        if self.prefetch and memory > 1:
            # reference rule: a memory miss one line after the previous
            # memory miss is prefetched, unless it starts a new 4 KiB page
            lines_per_page = 4096 // self.levels[0].line_size
            adjacent = remaining[1:] == remaining[:-1] + 1
            inside_page = (remaining[1:] % lines_per_page) != 0
            prefetched = int(np.count_nonzero(adjacent & inside_page))
        return HierarchyCounts(level_hits, memory, prefetched)


def make_hierarchy(
    level_specs: Sequence[LevelSpec],
    prefetch: bool = True,
    backend: Optional[str] = None,
):
    """Build a cache hierarchy on the selected backend.

    ``backend`` overrides the session's choice (see
    :func:`cache_backend`); pass ``'reference'`` to force the
    per-access oracle.
    """
    b = backend if backend is not None else cache_backend()
    if b == "fast":
        return FastCacheHierarchy(
            [FastSetAssocCache(*spec) for spec in level_specs], prefetch=prefetch
        )
    if b == "reference":
        return CacheHierarchy(
            [SetAssocCache(*spec) for spec in level_specs], prefetch=prefetch
        )
    raise ValueError(f"backend must be one of {_VALID_BACKENDS}, got {b!r}")
