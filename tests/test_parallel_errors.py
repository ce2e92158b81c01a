"""Error paths around fan-out and the serial-only launch.

Bad ``workers`` values surface as named errors — ``ValueError`` from
:func:`resolve_workers`, :class:`RuntimeLaunchError` from
``execute_app`` (serial-only) — never as a hang or a raw traceback from
deep inside the pool plumbing.  Every fan-out (matrix, search, fuzz)
shares ``pool.fan_out``'s failure contract: a failed pool task is redone
in the parent and reported, a deterministic kernel error propagates
unchanged and is not redone, and an interrupt is never swallowed.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import get_app
from repro.frontend import compile_kernel
from repro.parallel.pool import WORKERS_ENV, resolve_workers
from repro.runtime import Memory, launch
from repro.runtime.errors import MemoryFault, RuntimeLaunchError

# groups other than group 0 read far outside the input buffer
_FAULTY_SOURCE = r"""
__kernel void faulty(__global float* out, __global const float* in)
{
    int idx = get_global_id(0);
    if (get_group_id(0) > 0)
        idx = idx + (1 << 20);
    out[get_global_id(0)] = in[idx];
}
"""


def _launch_with(source, groups=4, lsize=8):
    kernel = compile_kernel(source)
    n = groups * lsize
    mem = Memory()
    data = np.arange(n, dtype=np.float32)
    args = {"in": mem.from_array(data, "in"), "out": mem.alloc(data.nbytes, "out")}
    return launch(kernel, (n,), (lsize,), args, memory=mem, collect_trace=True)


# ---------------------------------------------------------------------------
# bad `workers` arguments
# ---------------------------------------------------------------------------


def test_launch_has_no_workers_parameter():
    assert "workers" not in inspect.signature(launch).parameters


@pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True, False])
def test_bad_workers_raise_launch_error(bad):
    """``execute_app`` keeps its ``workers`` keyword for old callers but
    runs serially: anything but ``None``/1 is a named launch error."""
    app = get_app("NVD-MT")
    kernel, _ = compile_app(app)
    with pytest.raises(RuntimeLaunchError, match="workers"):
        execute_app(app, kernel, workers=bad)


def test_execute_app_accepts_serial_workers():
    app = get_app("NVD-MT")
    kernel, _ = compile_app(app)
    want = execute_app(app, kernel).outputs
    for workers in (None, 1):
        got = execute_app(app, kernel, workers=workers).outputs
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


@pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True])
def test_resolve_workers_rejects_bad_values(bad):
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(bad)


# ---------------------------------------------------------------------------
# $REPRO_WORKERS environment default
# ---------------------------------------------------------------------------


def test_env_supplies_default_workers(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2  # explicit argument beats the env


def test_env_one_is_the_serial_escape_hatch(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert resolve_workers(None) == 1


@pytest.mark.parametrize("bad", ["zero", "", "0", "-2", "1.5"])
def test_invalid_env_raises(monkeypatch, bad):
    monkeypatch.setenv(WORKERS_ENV, bad)
    with pytest.raises(ValueError, match=WORKERS_ENV):
        resolve_workers(None)


def test_serial_fault_is_the_raw_error():
    with pytest.raises((MemoryFault, IndexError)) as excinfo:
        _launch_with(_FAULTY_SOURCE)
    assert not isinstance(excinfo.value, RuntimeLaunchError)


# ---------------------------------------------------------------------------
# the shared fan-out failure contract
# ---------------------------------------------------------------------------


class _FailedPool:
    """Executor double whose every task fails with ``exc``."""

    def __init__(self, exc):
        self._exc = exc

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        fut = Future()
        fut.set_exception(self._exc)
        return fut


def _use_failed_pool(monkeypatch, exc):
    from repro.parallel import pool

    pool.shutdown_shared()
    monkeypatch.setattr(pool, "make_pool", lambda n: _FailedPool(exc))


def _matrix(workers):
    from repro.parallel.matrix import run_matrix

    result = run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=["SNB"], workers=workers, scale="test"
    )
    return result.values, len(result.apps)


def _search(workers):
    from repro.search import SearchOptions, run_search

    (r,) = run_search(
        SearchOptions(apps=("NVD-MT",), depth=1, device="SNB", workers=workers)
    ).results
    return (r.baseline, r.winner, r.candidates), len(r.candidates)


def _fuzz(workers):
    from repro.fuzz import FuzzOptions, run_fuzz

    run = run_fuzz(FuzzOptions(seed=7, count=3, workers=workers))
    # explanations name IR value ids, which count up within a process
    verdicts = [dataclasses.replace(r.outcome, explanations=[]) for r in run.results]
    return [(r.source, v) for r, v in zip(run.results, verdicts)], len(verdicts)


@pytest.mark.parametrize(
    "where, run",
    [("matrix", _matrix), ("search", _search), ("fuzz", _fuzz)],
    ids=["matrix", "search", "fuzz"],
)
def test_failed_pool_tasks_are_redone_serially_and_reported(
    monkeypatch, where, run
):
    """Every case whose pool task fails is redone in the parent — the
    result equals the serial run — with one ``pool_fallback`` per case
    naming the caller."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.session import events

    serial, _ = run(1)
    _use_failed_pool(monkeypatch, BrokenProcessPool("worker died"))
    with events.collect() as sink:
        fanned, cases = run(2)
    assert fanned == serial
    falls = sink.of_kind("pool_fallback")
    assert cases >= 2 and len(falls) == cases
    assert {e.payload["where"] for e in falls} == {where}
    assert all("BrokenProcessPool" in e.payload["error"] for e in falls)


def _run_small_matrix(monkeypatch, exc):
    _use_failed_pool(monkeypatch, exc)
    return _matrix(2)


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeLaunchError("bad binding"),
        MemoryFault("oob"),
    ],
)
def test_matrix_does_not_retry_deterministic_kernel_errors(monkeypatch, exc):
    """A kernel error from a worker is what the serial path raises:
    the same exception, not wrapped, and the case is not redone."""
    import repro.parallel.matrix as matrix
    from repro.session import events

    redone = []
    monkeypatch.setattr(matrix, "_matrix_case", lambda *a: redone.append(a))
    with events.collect() as sink, pytest.raises(type(exc)) as excinfo:
        _run_small_matrix(monkeypatch, exc)
    assert excinfo.value is exc
    assert not redone and not sink.of_kind("pool_fallback")


def test_matrix_does_not_retry_barrier_divergence(monkeypatch):
    from repro.runtime.errors import BarrierDivergenceError

    exc = BarrierDivergenceError("diverged")
    with pytest.raises(BarrierDivergenceError) as excinfo:
        _run_small_matrix(monkeypatch, exc)
    assert excinfo.value is exc


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_matrix_lets_interrupts_propagate(monkeypatch, exc_type):
    with pytest.raises(exc_type):
        _run_small_matrix(monkeypatch, exc_type())
