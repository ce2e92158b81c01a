"""Sharded parallel experiment engine (DESIGN.md §9).

Two levels of sharding, one determinism contract:

* **work-group shards** — ``launch(..., workers=N)`` splits the
  canonical pick list into contiguous ranges executed by shared-nothing
  worker processes and merges traces and buffer writes back in shard
  order (:mod:`repro.parallel.engine`, :mod:`repro.parallel.sharding`);
* **experiment cases** — :func:`run_matrix` fans the (app × device)
  grid of Table IV / Fig. 10 / the extension-GPU scoring out over a
  pool, one application per case (:mod:`repro.parallel.matrix`).

Every fan-out shares one process-wide *persistent* worker pool
(:mod:`repro.parallel.pool`, ``$REPRO_POOL_PERSIST``) and, for sharded
launches, a zero-copy shared-memory data plane
(``$REPRO_POOL_SHM``, DESIGN.md §16).

Both levels are required to be *bit-identical* to serial execution;
:mod:`repro.parallel.diff` is the differential layer that enforces it.
``REPRO_WORKERS=1`` forces everything serial.
"""

from repro.parallel.diff import (
    DifferentialMismatch,
    assert_cycles_equal,
    assert_matrix_equal,
    assert_outputs_equal,
    assert_traces_equal,
    trace_mismatch,
)
from repro.parallel.engine import WORKERS_ENV, make_pool, resolve_workers
from repro.parallel.matrix import MatrixResult, run_matrix
from repro.parallel.pool import WorkerPool, acquire, shutdown_shared
from repro.parallel.sharding import merge_group_traces, select_groups, shard_ranges

__all__ = [
    "DifferentialMismatch",
    "MatrixResult",
    "WORKERS_ENV",
    "WorkerPool",
    "acquire",
    "assert_cycles_equal",
    "assert_matrix_equal",
    "assert_outputs_equal",
    "assert_traces_equal",
    "make_pool",
    "merge_group_traces",
    "resolve_workers",
    "run_matrix",
    "select_groups",
    "shard_ranges",
    "shutdown_shared",
    "trace_mismatch",
]
