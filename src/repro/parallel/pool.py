"""The process-wide persistent worker pool.

Every fan-out in the system — the experiment matrix, search candidate
scoring, fuzz campaigns — fans whole, independent cases out over
**one** warm pool: the first fan-out forks it, later fan-outs reuse the
same worker processes (and everything warm inside them, such as the
compile cache), and it is torn down when the session that first
acquired it closes — or at interpreter exit, whichever comes first.

``acquire(n, factory)`` hands out the shared :class:`WorkerPool`.  The
pool is recycled — old executor shut down, a fresh one forked, a
``pool_recycle`` event emitted — when it is broken (a worker died), too
small for the request, or the factory changed (tests monkeypatch their
module's ``make_pool``).

``factory`` is the *caller's* ``make_pool`` reference so the
``pool_fallback`` observability (and the test doubles patched over it)
keep working unchanged; a factory returning ``None`` makes ``acquire``
return ``None`` and the caller falls back to its serial loop.

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
from typing import Callable, Optional

from repro.session import events

__all__ = ["PoolFallbackWarning", "WORKERS_ENV", "WorkerPool", "acquire",
           "make_pool", "report_fallback", "resolve_workers",
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

    Fan-outs do not call this directly: they pass it (or a
    module-local alias of it) to :func:`acquire` as the factory, so the
    warm pool is reused instead of forked per call.
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

    ``where`` names the fan-out (``make_pool``, ``search``, ``fuzz``);
    the warning points at the caller of the function that fell back.
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

    def __init__(self, executor, n_workers: int, factory: Callable) -> None:
        self._executor = executor
        self.n_workers = n_workers
        self.factory = factory

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


def acquire(n_workers: int, factory: Callable) -> Optional[WorkerPool]:
    """The shared pool, sized for at least ``n_workers``, or ``None``
    (serial fallback, already observed by ``factory``)."""
    global _SHARED, _ATEXIT_REGISTERED
    pool = _SHARED
    if pool is not None:
        reason = None
        if pool.broken:
            reason = "worker died"
        elif pool.n_workers < n_workers:
            reason = f"grow {pool.n_workers} -> {n_workers}"
        elif pool.factory is not factory:
            reason = "pool factory changed"
        if reason is None:
            return pool
        events.emit("pool_recycle", reason=reason, workers=n_workers)
        pool._shutdown()
        _SHARED = None

    t0 = time.perf_counter()
    executor = factory(n_workers)
    if executor is None:
        return None
    _SHARED = WorkerPool(executor, n_workers, factory=factory)
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
