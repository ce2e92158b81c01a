"""The process-wide persistent worker pool.

Every fan-out in the system — sharded launches, the experiment matrix,
search candidate scoring, fuzz campaigns — used to build
its own ``ProcessPoolExecutor`` and tear it down per call, paying the
fork plus a cold interpreter in every worker each time.  This module
owns **one** warm pool for the whole process: the first fan-out forks
it, later fan-outs reuse the same worker processes (and everything warm
inside them: unpickled kernels, the codegen module cache, on-disk
artifact handles), and it is torn down when the session that first
acquired it closes — or at interpreter exit, whichever comes first.

``acquire(n, factory)`` hands out a :class:`WorkerPool` handle:

* with ``pool_persist`` (``$REPRO_POOL_PERSIST``, default on) the handle
  wraps the shared executor; ``release()`` is a no-op.  The pool is
  recycled — old executor shut down, a fresh one forked, a
  ``pool_recycle`` event emitted — when it is broken (a worker died),
  too small for the request, or the factory changed (tests monkeypatch
  their module's ``make_pool``).
* with ``pool_persist=0`` the handle owns a private executor and
  ``release()`` shuts it down — the pre-pool behaviour.

``factory`` is the *caller's* ``make_pool`` reference so the
``pool_fallback`` observability (and the test doubles patched over it)
keep working unchanged; a factory returning ``None`` makes ``acquire``
return ``None`` and the caller falls back to its serial loop.

The module also keeps the fan-out statistics the bench reports:
tasks dispatched, shared-memory bytes published, and per-worker warm
kernel-cache hit/miss counts (keyed by worker pid).
"""

from __future__ import annotations

import atexit
import time
import weakref
from typing import Callable, Dict, Optional

from repro.session import events

__all__ = ["WorkerPool", "acquire", "shutdown_shared", "session_closed",
           "stats", "reset_stats", "note_task", "note_publish"]


class WorkerPool:
    """Handle around one executor; persistent handles share it."""

    def __init__(self, executor, n_workers: int, persistent: bool,
                 factory: Callable) -> None:
        self._executor = executor
        self.n_workers = n_workers
        self.persistent = persistent
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

    def release(self) -> None:
        """Caller is done with this fan-out; persistent pools stay warm."""
        if not self.persistent:
            self._shutdown()

    def _shutdown(self) -> None:
        shutdown = getattr(self._executor, "shutdown", None)
        if shutdown is not None:
            shutdown(wait=True, cancel_futures=True)


#: the shared pool (persistent mode), created by the first fan-out
_SHARED: Optional[WorkerPool] = None
#: weakref to the Session whose close() tears the shared pool down
_OWNER: Optional["weakref.ref"] = None
_ATEXIT_REGISTERED = False

#: fan-out statistics for `repro bench` (see module docstring)
_STATS: Dict[str, object] = {}


def reset_stats() -> None:
    global _STATS
    _STATS = {
        "tasks": 0,
        "shm_bytes_published": 0,
        # worker pid -> {"tasks", "kernel_cache_hits", "kernel_cache_misses"}
        "per_worker": {},
    }


reset_stats()


def stats() -> Dict[str, object]:
    """A snapshot of the fan-out counters (deep enough to mutate safely)."""
    return {
        "tasks": _STATS["tasks"],
        "shm_bytes_published": _STATS["shm_bytes_published"],
        "per_worker": {pid: dict(c) for pid, c in _STATS["per_worker"].items()},
    }


def note_task(pid: int, kernel_cache_hit: Optional[bool] = None) -> None:
    _STATS["tasks"] += 1
    per = _STATS["per_worker"].setdefault(
        pid, {"tasks": 0, "kernel_cache_hits": 0, "kernel_cache_misses": 0}
    )
    per["tasks"] += 1
    if kernel_cache_hit is True:
        per["kernel_cache_hits"] += 1
    elif kernel_cache_hit is False:
        per["kernel_cache_misses"] += 1


def note_publish(nbytes: int) -> None:
    _STATS["shm_bytes_published"] += int(nbytes)


def _persist_default() -> bool:
    from repro.session import current_session

    return bool(current_session().get("pool_persist"))


def _claim_owner() -> None:
    """The first session to acquire the shared pool owns its teardown."""
    global _OWNER
    if _OWNER is not None and _OWNER() is not None:
        return
    from repro.session import current_session

    _OWNER = weakref.ref(current_session())


def acquire(n_workers: int, factory: Callable,
            persist: Optional[bool] = None) -> Optional[WorkerPool]:
    """A pool handle sized for ``n_workers``, or ``None`` (serial fallback,
    already observed by ``factory``)."""
    global _SHARED, _ATEXIT_REGISTERED
    if persist is None:
        persist = _persist_default()
    if not persist:
        executor = factory(n_workers)
        if executor is None:
            return None
        return WorkerPool(executor, n_workers, persistent=False, factory=factory)

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
    _SHARED = WorkerPool(executor, n_workers, persistent=True, factory=factory)
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
