"""The process-wide persistent worker pool and the one case fan-out.

Every fan-out in the system — the experiment matrix, search candidate
scoring, fuzz campaigns — calls :func:`fan_out`, which spreads whole,
independent cases over **one** warm pool: the first fan-out forks it,
later fan-outs reuse the same worker processes (and everything warm
inside them, such as the compile cache), and it is torn down when the
session that first acquired it closes — or at interpreter exit,
whichever comes first.

``fan_out(fn, payloads, workers, where)`` returns ``[fn(*p) for p in
payloads]`` in input order, computed on the pool when ``workers``
resolves to more than 1 and there are at least two payloads.  Its
failure contract is the serial path's: a case's
:class:`RuntimeLaunchError`, :class:`MemoryFault` or
:class:`BarrierDivergenceError` propagates unchanged (a serial redo
would fail identically); any other ``Exception`` from a pool task —
broken pool, lost worker, a payload that does not pickle — is reported
with :func:`report_fallback` and the case is redone in the parent;
``KeyboardInterrupt``/``SystemExit`` propagate.

``acquire(n)`` hands out the shared :class:`WorkerPool`, built by
:func:`make_pool`.  The pool is recycled — old executor shut down, a
fresh one forked, a ``pool_recycle`` event emitted — when it is broken
(a worker died) or too small for the request.  When ``make_pool``
returns ``None`` the fan-out runs serially.

``resolve_workers`` normalises every ``workers=`` argument: ``None``
means the session's ``workers`` setting (``$REPRO_WORKERS``), the
number of cases fanned out at once; 1 is serial.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple

from repro.runtime.errors import (
    BarrierDivergenceError,
    MemoryFault,
    RuntimeLaunchError,
)
from repro.session import events

__all__ = ["PoolFallbackWarning", "WORKERS_ENV", "WorkerPool", "acquire",
           "fan_out", "make_pool", "report_fallback", "resolve_workers",
           "session_closed", "shutdown_shared"]

#: environment default for every ``workers=None`` entry point; setting
#: ``REPRO_WORKERS=1`` is the global escape hatch that forces serial
#: execution everywhere without touching call sites (registered in
#: :mod:`repro.session.config` as the ``workers`` variable)
WORKERS_ENV = "REPRO_WORKERS"


class PoolFallbackWarning(RuntimeWarning):
    """A fan-out silently degraded to serial execution."""


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalise a ``workers`` argument to an ``int >= 1``.

    ``None`` falls back to the session's ``workers`` setting
    (``$REPRO_WORKERS``, a ``--config`` file, ...), then to 1 (serial).
    Anything that is not a positive integer — including bools and
    numeric strings passed programmatically — raises ``ValueError``.
    """
    if workers is None:
        from repro.session import current_session

        return current_session().get("workers")
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive integer or None, got {workers!r}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def make_pool(n_workers: int) -> Optional[ProcessPoolExecutor]:
    """A process pool, or ``None`` when one cannot be created here.

    Prefers the cheap ``fork`` start method where the platform offers
    it.  Pool-creation failures (restricted sandboxes, missing
    semaphores) are a *fallback* condition, not an error — callers run
    serially instead; the failure is reported by
    :func:`report_fallback`.

    Only :func:`acquire` calls this, so the warm pool is reused
    instead of forked per fan-out.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
    except Exception as exc:
        report_fallback("make_pool", "process pool unavailable", exc)
        return None


def report_fallback(where: str, reason: str, exc: BaseException) -> None:
    """Report work that ran serially instead of on the pool: a
    ``pool_fallback`` event, or a :class:`PoolFallbackWarning` when no
    sink listens (never both, never neither).

    ``where`` names the fan-out (``make_pool``, ``matrix``, ``search``,
    ``fuzz``); the warning points at the caller of the function that
    fell back.
    """
    error = f"{type(exc).__name__}: {exc}"
    if events.bus_active():
        events.emit("pool_fallback", where=where, reason=reason, error=error)
    else:
        warnings.warn(
            f"parallel execution fell back to serial in {where}: "
            f"{reason} ({error})",
            PoolFallbackWarning,
            stacklevel=3,
        )


class WorkerPool:
    """Handle around the shared executor."""

    def __init__(self, executor, n_workers: int) -> None:
        self._executor = executor
        self.n_workers = n_workers

    def submit(self, fn, *args, **kwargs):
        return self._executor.submit(fn, *args, **kwargs)

    @property
    def broken(self) -> bool:
        # ProcessPoolExecutor sets _broken once any worker dies; test
        # doubles without the attribute are never considered broken
        return bool(getattr(self._executor, "_broken", False))

    def worker_pids(self) -> tuple:
        """Pids of the live worker processes (empty before first task)."""
        return tuple(sorted(getattr(self._executor, "_processes", {}) or ()))

    def _shutdown(self) -> None:
        shutdown = getattr(self._executor, "shutdown", None)
        if shutdown is not None:
            shutdown(wait=True, cancel_futures=True)


#: the shared pool, created by the first fan-out
_SHARED: Optional[WorkerPool] = None
#: weakref to the Session whose close() tears the shared pool down
_OWNER: Optional["weakref.ref"] = None
_ATEXIT_REGISTERED = False


def _claim_owner() -> None:
    """The first session to acquire the shared pool owns its teardown."""
    global _OWNER
    if _OWNER is not None and _OWNER() is not None:
        return
    from repro.session import current_session

    _OWNER = weakref.ref(current_session())


def acquire(n_workers: int) -> Optional[WorkerPool]:
    """The shared pool, sized for at least ``n_workers``, or ``None``
    (serial fallback, already observed by :func:`make_pool`)."""
    global _SHARED, _ATEXIT_REGISTERED
    pool = _SHARED
    if pool is not None:
        reason = None
        if pool.broken:
            reason = "worker died"
        elif pool.n_workers < n_workers:
            reason = f"grow {pool.n_workers} -> {n_workers}"
        if reason is None:
            return pool
        events.emit("pool_recycle", reason=reason, workers=n_workers)
        pool._shutdown()
        _SHARED = None

    t0 = time.perf_counter()
    executor = make_pool(n_workers)
    if executor is None:
        return None
    _SHARED = WorkerPool(executor, n_workers)
    _claim_owner()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_shared)
        _ATEXIT_REGISTERED = True
    events.emit(
        "pool_start",
        workers=n_workers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return _SHARED


#: deterministic kernel-execution failures of a case: the serial path
#: raises them, and a serial redo would raise them again
_CASE_ERRORS = (RuntimeLaunchError, MemoryFault, BarrierDivergenceError)


def _run_in_worker(fn: Callable, payload: Tuple) -> object:
    """Pool-child entry of every fan-out: first drop the event sinks
    inherited over ``fork`` — a child writing to the parent's JSONL
    file handle would interleave two streams."""
    events.bus()._sinks.clear()
    return fn(*payload)


def fan_out(
    fn: Callable, payloads: Iterable[Tuple], workers: Optional[int], where: str
) -> List:
    """``[fn(*p) for p in payloads]``, fanned out over the shared pool
    when ``workers`` resolves to more than 1; see the module docstring
    for the failure contract.  ``fn`` must be a module-level function
    (it is pickled by reference); ``where`` names the caller in
    ``pool_fallback`` reports."""
    payloads = list(payloads)
    n_workers = resolve_workers(workers)
    pool = (
        acquire(min(n_workers, len(payloads)))
        if n_workers > 1 and len(payloads) > 1
        else None
    )
    if pool is None:
        return [fn(*p) for p in payloads]
    futures = [pool.submit(_run_in_worker, fn, p) for p in payloads]
    results = []
    for payload, fut in zip(payloads, futures):  # input order
        try:
            results.append(fut.result())
        except _CASE_ERRORS:
            raise
        except Exception as exc:
            report_fallback(where, "case redone serially", exc)
            results.append(fn(*payload))
    return results


def shutdown_shared() -> None:
    """Tear down the shared pool (session close, atexit, tests)."""
    global _SHARED, _OWNER
    pool, _SHARED = _SHARED, None
    _OWNER = None
    if pool is not None:
        pool._shutdown()


def session_closed(session) -> None:
    """Hook for ``Session.close``: the owning session takes the pool
    down with it; any other session closing leaves it warm."""
    if _OWNER is not None and _OWNER() is session:
        shutdown_shared()
