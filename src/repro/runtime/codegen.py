"""Compatibility stub: the generated-module execution tier is gone.

Execution has two backends, ``reference`` (the oracle) and ``tape``
(the fast path, :mod:`repro.runtime.tape`).  This module survives only
because the benchmark harness's cold reset (``perfbench/run.py``) still
calls :func:`clear_codegen_cache`; delete it together with that call in
the next change to the benchmark.
"""

from __future__ import annotations


def clear_codegen_cache() -> None:
    """No-op: the tape keeps no module-level cache to drop."""
