"""Out-of-core trace spill: bounded residency, transparent rehydration.

``TraceSpillStore`` keeps the resident bytes of completed trace batches
under ``REPRO_TRACE_SPILL_MB``: segments past the mark are pickled,
zlib-compressed and appended to an anonymous temp file, and a group's
``events`` becomes a ``LazyEvents`` view that streams the segment back
on first access.  The contract: consumers never notice — every event is
bit-identical to the eager in-RAM trace, through spill, rehydration and
pickling (worker shards) — and resident bytes stay bounded while a
launch produces a trace far larger than the mark.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.ir.types import AddressSpace
from repro.parallel.diff import assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.trace import GroupTrace, LazyEvents, MemEvent, TraceSpillStore
from repro.session import Session, events

# ---------------------------------------------------------------------------
# store unit tests
# ---------------------------------------------------------------------------


def _group(gid: int, n_events: int = 4, n_lanes: int = 4096) -> GroupTrace:
    evs = [
        MemEvent(
            AddressSpace.GLOBAL,
            bool(i % 2),
            1,
            (np.arange(n_lanes, dtype=np.int64) * 4 + gid * 100_000),
            np.arange(n_lanes, dtype=np.int64),
            4,
            0,
            i,
        )
        for i in range(n_events)
    ]
    return GroupTrace((gid,), n_lanes, events=evs)


def test_store_spills_past_the_limit_and_rehydrates_bit_identically():
    groups = [_group(i) for i in range(6)]
    originals = [
        [(e.inst_id, e.is_store, e.offsets.copy(), e.lanes.copy())
         for e in g.events]
        for g in groups
    ]
    per_group = sum(
        e.offsets.nbytes + e.lanes.nbytes for e in groups[0].events
    )

    store = TraceSpillStore(limit_bytes=2 * per_group, kernel="unit")
    with events.collect() as sink:
        for g in groups:
            store.adopt_group_lists({0: g})

    assert store.spill_count >= 1
    assert store.spilled_bytes > 0
    assert store.resident_bytes <= store.limit_bytes
    assert store.peak_resident_bytes <= store.limit_bytes + per_group
    spills = sink.of_kind("trace_spill")
    assert len(spills) == store.spill_count
    for e in spills:
        assert e.payload["kernel"] == "unit"
        assert e.payload["bytes"] > 0
        assert e.payload["resident_bytes"] <= store.limit_bytes

    # every group now reads back bit-identically, spilled or not; the
    # reads themselves re-evict, so residency stays bounded throughout
    for g, orig in zip(groups, originals):
        assert isinstance(g.events, LazyEvents)
        got = list(g.iter_events())
        assert len(got) == len(orig)
        for e, (inst_id, is_store, offs, lanes) in zip(got, orig):
            assert e.inst_id == inst_id and e.is_store == is_store
            np.testing.assert_array_equal(e.offsets, offs)
            np.testing.assert_array_equal(e.lanes, lanes)
        assert store.resident_bytes <= store.limit_bytes + per_group

    # a re-read of an already-spilled-once segment costs no new blob
    written = store.spilled_bytes
    list(groups[0].iter_events())
    assert store.spilled_bytes == written


def test_lazy_events_quack_like_lists_and_pickle_self_contained():
    g = _group(0, n_events=3, n_lanes=8)
    store = TraceSpillStore(limit_bytes=1, kernel="unit")
    store.adopt_group_lists({0: g})  # immediately over the mark: spilled
    assert store.spill_count == 1
    lazy = g.events
    assert isinstance(lazy, LazyEvents)
    assert len(lazy) == 3
    assert lazy[1].inst_id == 1
    assert [e.inst_id for e in lazy] == [0, 1, 2]
    # pickling materialises (worker shards must not carry the store)
    plain = pickle.loads(pickle.dumps(lazy))
    assert isinstance(plain, list)
    assert [e.inst_id for e in plain] == [0, 1, 2]
    np.testing.assert_array_equal(plain[2].offsets, lazy[2].offsets)


def test_adopt_skips_empty_and_none_traces():
    store = TraceSpillStore(limit_bytes=1, kernel="unit")
    store.adopt(None)
    store.adopt_group_lists({0: None, 1: GroupTrace((1,), 4)})
    assert store.spill_count == 0 and store.resident_bytes == 0


def test_dropped_trace_is_freed_without_the_cycle_collector():
    g = _group(0)
    store = TraceSpillStore(limit_bytes=1 << 30, kernel="unit")
    store.adopt_group_lists({0: g})
    segment = weakref.ref(g.events._segment)
    owner = weakref.ref(store)
    gc.disable()
    try:
        del g, store
        assert segment() is None and owner() is None
    finally:
        gc.enable()


def test_dropped_segments_leave_the_resident_count():
    per_group = sum(e.offsets.nbytes + e.lanes.nbytes for e in _group(0).events)
    store = TraceSpillStore(limit_bytes=3 * per_group // 2, kernel="unit")
    first = _group(0)
    store.adopt_group_lists({0: first})
    del first  # nothing can read its segment any more: nothing to spill
    second = _group(1)
    store.adopt_group_lists({0: second})
    assert store.spill_count == 0
    assert store.resident_bytes <= store.limit_bytes


def test_close_releases_the_spill_file_and_is_idempotent():
    g = _group(0, n_events=3, n_lanes=8)
    store = TraceSpillStore(limit_bytes=1, kernel="unit")
    store.adopt_group_lists({0: g})  # over the mark: file created
    assert store._file is not None and not store.closed
    store.close()
    store.close()  # idempotent
    assert store.closed and store._file is None
    # a closed store refuses both directions
    with pytest.raises(RuntimeError, match="closed"):
        list(g.iter_events())
    with pytest.raises(RuntimeError, match="closed"):
        store.adopt_group_lists({0: _group(1, n_events=3, n_lanes=8)})


def _deleted_tmp_fds() -> set:
    """fd numbers holding anonymous (deleted) temp files — what a
    leaked ``TemporaryFile`` looks like on Linux."""
    import os

    out = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if "(deleted)" in target:
            out.add(fd)
    return out


_FAULTY_SPILL_SOURCE = r"""
__kernel void faulty(__global float* out, __global const float* in, int P)
{
    int gi = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < 256; i++) {
        acc += in[(gi + i) % 1024];
    }
    out[gi * P] = acc;
}
"""


def test_failed_launch_closes_the_spill_fd():
    """A launch that faults after spilling must not leave the store's
    anonymous spill fd open until garbage collection: ``launch()``'s
    exception path closes the store eagerly (trace of a failed launch
    is never returned), pinned here by scanning ``/proc/self/fd``."""
    from repro.runtime.errors import MemoryFault

    kernel = compile_kernel(_FAULTY_SPILL_SOURCE)
    data = np.ones(1024, dtype=np.float32)
    mem = Memory()
    inb = mem.from_array(data, "in")
    outb = mem.alloc(1024 * 4, "out")  # gi*2 overflows past gi=511

    before = _deleted_tmp_fds()
    with Session(trace_spill_mb=1).activate():
        with pytest.raises((MemoryFault, IndexError)):
            launch(
                kernel, (1024,), (16,), {"in": inb, "out": outb, "P": 2},
                memory=mem, collect_trace=True,
            )
    assert _deleted_tmp_fds() == before, "failed launch leaked its spill fd"


# ---------------------------------------------------------------------------
# launch-level: a trace far past the mark completes, bounded and identical
# ---------------------------------------------------------------------------

_SPILL_SOURCE = r"""
__kernel void spill(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float acc = 0.0f;
    for (int i = 0; i < 256; i++) {
        acc += in[(gi + i) % 1024];
        out[gi] = acc;
    }
}
"""


@pytest.mark.parametrize("backend", ("tape",))
def test_launch_past_the_spill_mark_is_bounded_and_bit_identical(backend):
    kernel = compile_kernel(_SPILL_SOURCE)
    rng = np.random.default_rng(5)
    data = rng.standard_normal(1024).astype(np.float32)

    def run(spill_mb, tape_batch=8):
        mem = Memory()
        inb = mem.from_array(data, "in")
        outb = mem.alloc(1024 * 4, "out")
        overrides = {"exec_backend": backend, "tape_batch": tape_batch}
        if spill_mb is not None:
            overrides["trace_spill_mb"] = spill_mb
        with Session(**overrides).activate():
            with events.collect() as sink:
                res = launch(
                    kernel, (1024,), (16,), {"in": inb, "out": outb},
                    memory=mem, collect_trace=True,
                )
        out = outb.read(np.float32, 1024)
        return res.trace, out, sink

    ref_trace, ref_out, ref_sink = run(None)
    assert not ref_sink.of_kind("trace_spill"), "default mark must not spill"
    # the launch's trace is far larger than the 1 MiB mark below
    trace_bytes = sum(
        e.offsets.nbytes + e.lanes.nbytes for e in ref_trace.iter_events()
    )
    assert trace_bytes > 4 * 1024 * 1024

    trace, out, sink = run(1)
    spills = sink.of_kind("trace_spill")
    assert spills, "a 1 MiB mark must force spilling"
    # each spill event snapshots residency mid-enforcement; the burst
    # always ends under the mark, and no snapshot ever exceeds the mark
    # by more than the one segment whose adoption triggered it
    limit = 1024 * 1024
    assert spills[-1].payload["resident_bytes"] <= limit
    assert max(e.payload["resident_bytes"] for e in spills) < 2 * limit
    np.testing.assert_array_equal(ref_out, out)
    assert_traces_equal(ref_trace, trace, f"{backend} spill=1MiB")
