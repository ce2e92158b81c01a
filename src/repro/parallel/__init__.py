"""Case-level parallelism and the differential layer (DESIGN.md §9).

The paper's evaluation is a grid of independent cases — 11 apps × 2
variants × 6 devices — so that is where the parallelism lives: whole
cases go through one :func:`fan_out` over one process-wide warm worker
pool (:mod:`repro.parallel.pool`), with one failure contract.
:func:`run_matrix` fans the (app × device) grid of Table IV / Fig. 10 /
the extension-GPU scoring out one application per case
(:mod:`repro.parallel.matrix`); search candidate scoring and fuzz
campaigns call the same ``fan_out``.  A single kernel launch always
runs serially in the process that issued it.

Fanned-out results are required to be *bit-identical* to serial
execution; :mod:`repro.parallel.diff` is the differential layer that
enforces it (and the one the execution backends are checked against).
``REPRO_WORKERS`` is the number of cases fanned out at once;
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
from repro.parallel.matrix import MatrixResult, run_matrix
from repro.parallel.pool import (
    WORKERS_ENV,
    WorkerPool,
    acquire,
    fan_out,
    make_pool,
    resolve_workers,
    shutdown_shared,
)

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
    "fan_out",
    "make_pool",
    "resolve_workers",
    "run_matrix",
    "shutdown_shared",
    "trace_mismatch",
]
