"""The process-wide persistent worker pool.

Worker processes must survive across fan-outs — consecutive matrices,
fuzz campaigns and search runs reuse the *same pids* instead of forking
a pool per call — and the pool must recycle itself when a worker dies,
grow for wider fan-outs, and be torn down by the session that first
acquired it.  A fan-out under ``REPRO_WORKERS=2`` must finish and match
the serial grid exactly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import pool as worker_pool
from repro.session import Session, events

SRC = Path(__file__).resolve().parent.parent / "src"


def _fan_out(workers=2, tasks=4):
    """Run ``tasks`` trivial tasks on the shared pool; their pids."""
    pool = worker_pool.acquire(workers)
    assert pool is not None
    return [f.result() for f in [pool.submit(os.getpid) for _ in range(tasks)]]


def _shared_pids():
    pool = worker_pool._SHARED
    assert pool is not None, "no shared pool was created"
    pids = pool.worker_pids()
    assert pids, "shared pool has no live worker processes"
    return pool, pids


# ---------------------------------------------------------------------------
# pid stability: no per-call executor churn
# ---------------------------------------------------------------------------


def test_matrix_reuses_worker_processes():
    from repro.parallel.matrix import run_matrix
    from repro.perf.devices import CPU_DEVICES

    dev = [next(iter(CPU_DEVICES))]
    first = run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=dev, workers=2, scale="test"
    )
    pool1, pids1 = _shared_pids()
    second = run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=dev, workers=2, scale="test"
    )
    pool2, pids2 = _shared_pids()
    assert pool1 is pool2
    assert pids1 == pids2  # same worker processes, not a fresh fork
    assert first.values == second.values


def test_fuzz_campaigns_reuse_worker_processes(tmp_path):
    from repro.fuzz.runner import FuzzOptions, run_fuzz

    opts = FuzzOptions(
        seed=11, count=3, workers=2, out_dir=str(tmp_path / "repros")
    )
    run_fuzz(opts)
    pool1, pids1 = _shared_pids()
    run_fuzz(opts)
    pool2, pids2 = _shared_pids()
    assert pool1 is pool2
    assert pids1 == pids2


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


# ---------------------------------------------------------------------------
# recycling
# ---------------------------------------------------------------------------


def test_pool_recycles_after_worker_death():
    _fan_out()
    pool1, pids1 = _shared_pids()

    os.kill(pids1[-1], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not pool1.broken and time.monotonic() < deadline:
        time.sleep(0.05)
    assert pool1.broken

    with events.collect() as sink:
        pids = _fan_out()  # acquire() must recycle
    pool2, pids2 = _shared_pids()
    assert set(pids) <= set(pids2) and pids1[-1] not in pids2
    assert pool2 is not pool1
    recycles = sink.of_kind("pool_recycle")
    assert len(recycles) == 1
    assert recycles[0].payload["reason"] == "worker died"


def test_pool_grows_for_wider_fanout():
    p2 = worker_pool.acquire(2)
    assert p2 is not None
    with events.collect() as sink:
        p4 = worker_pool.acquire(4)
    assert p4 is not None and p4.n_workers == 4
    assert worker_pool._SHARED is p4
    assert sink.of_kind("pool_recycle")[0].payload["reason"] == "grow 2 -> 4"
    # a wide pool serves narrow fan-outs without another recycle
    assert worker_pool.acquire(2) is p4


# ---------------------------------------------------------------------------
# ownership
# ---------------------------------------------------------------------------


def test_owning_session_close_tears_down_pool():
    with Session():  # __exit__ calls close(), unlike activate()
        _fan_out()
        assert worker_pool._SHARED is not None
    # Session.close() ran on exit; the owner takes the pool with it
    assert worker_pool._SHARED is None


def test_non_owner_session_close_leaves_pool_warm():
    _fan_out()  # default session owns the pool
    pool1, _ = _shared_pids()
    with Session().activate():
        _fan_out()
    assert worker_pool._SHARED is pool1  # inner session was not the owner


def test_pool_start_event_emitted_once_per_pool():
    with events.collect() as sink:
        _fan_out()
        _fan_out()
    starts = sink.of_kind("pool_start")
    assert len(starts) == 1
    assert starts[0].payload["workers"] == 2


# ---------------------------------------------------------------------------
# fan-out under REPRO_WORKERS: finishes, matches serial
# ---------------------------------------------------------------------------


def _matrix_cli_grid(tmp_path, workers: str) -> dict:
    out = tmp_path / f"grid-{workers}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_WORKERS"] = workers
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "matrix", "--scale", "test",
         "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_matrix_cli_under_repro_workers_matches_serial(tmp_path):
    """Every matrix worker inherits ``workers=2`` from the environment;
    the run must still finish (each case launches serially inside its
    worker) and reproduce the serial grid float for float."""
    try:
        fanned = _matrix_cli_grid(tmp_path, "2")
    except subprocess.TimeoutExpired:
        pytest.fail("REPRO_WORKERS=2 repro matrix did not finish in 60 s")
    serial = _matrix_cli_grid(tmp_path, "1")
    assert fanned["workers"] == 2 and serial["workers"] == 1
    assert fanned["values"] == serial["values"]
    assert fanned["counts"] == serial["counts"]
