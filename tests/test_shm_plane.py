"""The zero-copy shared-memory execution plane (DESIGN.md §16).

Three contracts:

* **bit-identity** — every Table III app, both variants, produces the
  same traces and output bytes whether buffers travel through the
  shared-memory arena (``pool_shm=1``) or the historical pickled-copy
  plane (``pool_shm=0``), enforced through :mod:`repro.parallel.diff`;
* **hygiene** — no ``/dev/shm`` segment and no spill fd survives a
  launch on any exit path: success, a worker faulting mid-shard, or a
  ``KeyboardInterrupt`` landing in the gather loop;
* **reuse** — search scoring rides the persistent pool and reproduces
  its serial results bit-for-bit.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import TABLE_ORDER, get_app
from repro.frontend import compile_kernel
from repro.parallel import pool as worker_pool
from repro.parallel.diff import assert_outputs_equal, assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.errors import RuntimeLaunchError
from repro.session import Session, events

_SOURCE = r"""
__kernel void copy(__global float* out, __global const float* in)
{
    out[get_global_id(0)] = in[get_global_id(0)];
}
"""

# groups other than group 0 read far outside the input buffer, so the
# fault happens mid-shard in a worker that already ran one group fine
_FAULTY_SOURCE = r"""
__kernel void faulty(__global float* out, __global const float* in)
{
    int idx = get_global_id(0);
    if (get_group_id(0) > 0)
        idx = idx + (1 << 20);
    out[get_global_id(0)] = in[idx];
}
"""


def _launch_with(source, workers, groups=4, lsize=8):
    kernel = compile_kernel(source)
    n = groups * lsize
    mem = Memory()
    data = np.arange(n, dtype=np.float32)
    args = {"in": mem.from_array(data, "in"), "out": mem.alloc(data.nbytes, "out")}
    res = launch(
        kernel, (n,), (lsize,), args, memory=mem,
        collect_trace=True, workers=workers,
    )
    return res, args["out"].read(np.float32, n)


# ---------------------------------------------------------------------------
# bit-identity: both planes, all apps, both variants
# ---------------------------------------------------------------------------


WORKER_COUNTS = (2, 4)


@pytest.mark.parametrize("shm", (0, 1), ids=("pickled-plane", "shm-plane"))
@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_apps_bit_identical_under_both_planes(app_id, shm):
    app = get_app(app_id)
    with Session(pool_shm=bool(shm)).activate():
        for variant in ("with", "without"):
            kernel, report = compile_app(app, variant)
            serial = execute_app(
                app, kernel, variant=variant, scale="test",
                collect_trace=True, report=report,
            )
            for workers in WORKER_COUNTS:
                parallel = execute_app(
                    app, kernel, variant=variant, scale="test",
                    collect_trace=True, workers=workers, report=report,
                )
                ctx = f"{app_id}[{variant}] pool_shm={shm} workers={workers}"
                assert_traces_equal(serial.trace, parallel.trace, ctx)
                assert_outputs_equal(serial.outputs, parallel.outputs, ctx)


def test_both_planes_agree_with_each_other():
    """The escape hatch is not a different semantics: identical bytes."""
    with Session(pool_shm=True).activate():
        _, out_shm = _launch_with(_SOURCE, workers=2)
    with Session(pool_shm=False).activate():
        _, out_pickle = _launch_with(_SOURCE, workers=2)
    np.testing.assert_array_equal(out_shm, out_pickle)


def test_shm_launch_emits_plane_events():
    with events.collect() as sink:
        _launch_with(_SOURCE, workers=2)
    assert len(sink.of_kind("shm_publish")) == 1
    pub = sink.of_kind("shm_publish")[0].payload
    assert pub["buffers"] == 2 and pub["bytes"] > 0
    tasks = sink.of_kind("pool_task")
    assert len(tasks) == 2  # one per shard
    assert sorted(t.payload["shard"] for t in tasks) == [0, 1]
    assert all(t.payload["groups"] == 2 for t in tasks)


def test_pickled_plane_skips_shm_entirely(monkeypatch):
    """``pool_shm=0`` must not touch ``/dev/shm`` at all — it is the
    escape hatch for hosts where POSIX shared memory is restricted."""
    from multiprocessing import shared_memory

    def forbidden(*a, **k):
        raise AssertionError("pool_shm=0 must not create shm segments")

    with Session(pool_shm=False).activate():
        monkeypatch.setattr(shared_memory.SharedMemory, "__init__", forbidden)
        _, out = _launch_with(_SOURCE, workers=2)
    np.testing.assert_array_equal(out, np.arange(32, dtype=np.float32))


# ---------------------------------------------------------------------------
# hygiene: nothing survives any exit path
# ---------------------------------------------------------------------------


def _dev_shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _warm():
    """Fork the persistent pool before snapshotting: its pipes and the
    executor machinery are long-lived by design, not leaks."""
    _launch_with(_SOURCE, workers=2)


def test_no_segments_or_fds_leak_after_success():
    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()
    for _ in range(3):
        res, out = _launch_with(_SOURCE, workers=2)
        assert res.trace is not None
        del res  # the trace holds the (legitimate) spill store
    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before


def test_no_segments_or_fds_leak_after_worker_fault():
    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()
    for _ in range(2):
        with pytest.raises(RuntimeLaunchError, match="failed"):
            _launch_with(_FAULTY_SOURCE, workers=2)
    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before


def test_no_segments_or_fds_leak_after_interrupt(monkeypatch):
    """A Ctrl-C landing in the gather loop: the interrupt propagates
    unwrapped, every outstanding shard is drained, and the arena plus
    every shard trace segment is unlinked before the launch unwinds."""
    import repro.parallel.engine as engine

    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()

    real_receive = engine._receive
    state = {"calls": 0}

    def interrupting_receive(fut):
        state["calls"] += 1
        if state["calls"] == 1:
            fut.result()  # let the worker finish (it created its segment)
            raise KeyboardInterrupt()
        return real_receive(fut)

    monkeypatch.setattr(engine, "_receive", interrupting_receive)
    with pytest.raises(KeyboardInterrupt):
        _launch_with(_SOURCE, workers=2)
    monkeypatch.setattr(engine, "_receive", real_receive)

    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before
    # the pool survived the interrupt and still serves launches
    _, out = _launch_with(_SOURCE, workers=2)
    np.testing.assert_array_equal(out, np.arange(32, dtype=np.float32))


# ---------------------------------------------------------------------------
# reuse: search scoring on the persistent pool
# ---------------------------------------------------------------------------


def test_search_reuses_pool_and_reproduces_serial_winners():
    from repro.search import SearchOptions, run_search

    serial = run_search(
        SearchOptions(apps=("NVD-MT",), scale="test", workers=1)
    )
    parallel = run_search(
        SearchOptions(apps=("NVD-MT",), scale="test", workers=2)
    )
    assert worker_pool._SHARED is not None  # scoring went through the pool
    s, p = serial.results[0], parallel.results[0]
    assert s.winner.pipeline == p.winner.pipeline
    assert s.winner.cycles == p.winner.cycles
    assert s.baseline.cycles == p.baseline.cycles
