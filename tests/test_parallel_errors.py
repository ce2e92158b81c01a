"""Error paths around fan-out and the serial-only launch.

Bad ``workers`` values surface as named errors — ``ValueError`` from
:func:`resolve_workers`, :class:`RuntimeLaunchError` from
``execute_app`` (serial-only) — never as a hang or a raw traceback from
deep inside the pool plumbing.  The experiment matrix retries only pool
infrastructure failures, never deterministic kernel errors, and never
swallows an interrupt.
"""

from __future__ import annotations

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
# matrix exception narrowing: KeyboardInterrupt/SystemExit propagate,
# deterministic kernel errors are not retried as pool failures
# ---------------------------------------------------------------------------


class _FakeFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self):
        raise self._exc


class _FakePool:
    """Pool double whose every future raises a chosen exception."""

    def __init__(self, exc):
        self._exc = exc

    def submit(self, fn, *args, **kwargs):
        return _FakeFuture(self._exc)


def _run_small_matrix(monkeypatch, exc):
    import repro.parallel.matrix as matrix
    from repro.perf.devices import CPU_DEVICES

    monkeypatch.setattr(matrix, "make_pool", lambda n: _FakePool(exc))
    dev = next(iter(CPU_DEVICES))
    return matrix.run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=[dev], workers=2, scale="test"
    )


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeLaunchError("bad binding"),
        MemoryFault("oob"),
    ],
)
def test_matrix_does_not_retry_deterministic_kernel_errors(monkeypatch, exc):
    with pytest.raises(RuntimeLaunchError, match="not retrying"):
        _run_small_matrix(monkeypatch, exc)


def test_matrix_does_not_retry_barrier_divergence(monkeypatch):
    from repro.runtime.errors import BarrierDivergenceError

    with pytest.raises(RuntimeLaunchError, match="not retrying"):
        _run_small_matrix(monkeypatch, BarrierDivergenceError("diverged"))


def test_matrix_retries_pool_infrastructure_failures(monkeypatch):
    result = _run_small_matrix(monkeypatch, RuntimeError("lost worker"))
    # both cases recomputed serially, values intact
    assert set(result.retried) == {"AMD-MM", "AMD-MT"}
    assert all(v > 0 for per_app in result.values.values() for v in per_app.values())


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_matrix_lets_interrupts_propagate(monkeypatch, exc_type):
    with pytest.raises(exc_type):
        _run_small_matrix(monkeypatch, exc_type())
