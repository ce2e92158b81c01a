"""Top-level frontend driver: OpenCL C source -> IR module / kernel.

These are thin shims over the session layer: the actual compile
pipeline — preprocess, parse, lower, the one pass pipeline (paper
Fig. 9's vendor compile), verification — lives in
:meth:`repro.session.Session.compile_source`, which also owns the LRU
compile cache (keyed on ``(source, defines, module_name, optimize)``)
and emits ``compile_start`` / ``compile_cache_hit`` /
``compile_cache_miss`` / ``compile_end`` events.

Because downstream passes (notably :class:`repro.core.GroverPass`)
mutate IR in place, every cache hit hands out a ``copy.deepcopy`` of
the cached module — callers own their module, exactly as if it had been
compiled fresh.  That copy is the linear structural clone of
``Module.__deepcopy__`` (:mod:`repro.ir.function`), not the generic
recursion.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.function import Function, Module

#: entries kept in a session's LRU compile cache
_COMPILE_CACHE_SIZE = 32


def clear_compile_cache() -> None:
    """Drop all memoized modules (mainly for tests and memory pressure)."""
    from repro.session import current_session

    current_session().clear_compile_cache()


def compile_source(
    source: str,
    defines: Optional[Dict[str, object]] = None,
    module_name: str = "kernel_module",
    optimize: bool = True,
    cache: bool = True,
) -> Module:
    """Compile OpenCL C source text into a verified IR module.

    ``cache=False`` bypasses the compile cache (used by benchmarks to
    measure cold compiles); ``optimize=False`` skips the pass pipeline
    and returns the lowered IR.
    """
    from repro.session import current_session

    return current_session().compile_source(
        source, defines, module_name=module_name, optimize=optimize, cache=cache
    )


def compile_kernel(
    source: str,
    name: Optional[str] = None,
    defines: Optional[Dict[str, object]] = None,
    optimize: bool = True,
    cache: bool = True,
) -> Function:
    """Compile source and return one kernel (the only one, or by name)."""
    return compile_source(source, defines, optimize=optimize, cache=cache).kernel(name)
