"""The Session: one object that owns configuration, caches and observability.

A :class:`Session` resolves every ``REPRO_*`` knob through the layered
registry of :mod:`repro.session.config` (defaults < config dict/file <
environment < explicit keywords), owns the LRU compile cache, chooses the
cache-simulation backend and the default worker count.  It implements
two entry points itself, ``compile_source`` and ``disable_local_memory``
(the analyzer-gated Grover pass); ``repro.frontend.compile_source`` and
``repro.core.grover.disable_local_memory`` delegate to them through
:func:`current_session`.

Every other entry point (``repro.runtime.launch``,
``repro.apps.harness.run_app``, ``repro.experiments.grid``,
``repro.search.run_search``, ...) is a plain function that reads its
settings from :func:`current_session`; call it under ``with
session.activate():`` so config lookups deep inside
``perf/fastcache.py`` or ``parallel/pool.py`` see *this* session's
values.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.session import events
from repro.session.config import (
    REGISTRY,
    ConfigError,
    coerce_value,
    load_config_file,
    validate_environ,
)
from repro.session.events import JsonlSink
from repro.session.passes import run_pipeline

__all__ = [
    "Session",
    "current_session",
    "reset_default_session",
    "session_from_flags",
]


class Session:
    """Layered configuration + owned caches + structured observability.

    Parameters
    ----------
    config:
        A dict of registry-named settings (``{"workers": 4}``) — the
        layer between registry defaults and environment variables.
    config_file:
        Path of a JSON file holding the same (loaded below ``config``).
    env:
        The environment mapping to consult (default ``os.environ``);
        unknown ``REPRO_*`` names in it are rejected here, at
        construction, so typos fail loudly.
    **overrides:
        Explicit per-session settings — the highest-precedence layer
        (``Session(cache_backend="reference", workers=2)``).
    """

    def __init__(
        self,
        config: Optional[Mapping[str, object]] = None,
        config_file: Optional[str] = None,
        env: Optional[Mapping[str, str]] = None,
        **overrides: object,
    ) -> None:
        self._env: Mapping[str, str] = os.environ if env is None else env
        validate_environ(self._env)
        layer: Dict[str, object] = {}
        if config_file is not None:
            layer.update(load_config_file(config_file))
        for name, value in (config or {}).items():
            layer[name] = coerce_value(name, value, source="config dict")
        self._config: Dict[str, object] = layer
        self._overrides: Dict[str, object] = {
            name: coerce_value(name, value, source=f"Session({name}=...)")
            for name, value in overrides.items()
        }
        self._compile_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._jsonl: Optional[JsonlSink] = None
        trace_out = self.get("trace_out")
        if trace_out:
            try:
                self._jsonl = JsonlSink(trace_out)
            except OSError as exc:
                raise ConfigError(
                    f"cannot open trace output {trace_out}: {exc.strerror or exc}"
                ) from None
            events.attach(self._jsonl)

    # -- configuration ---------------------------------------------------------
    def get(self, name: str) -> object:
        """Resolve one setting: overrides > environment > config > default."""
        var = REGISTRY.get(name)
        if var is None:
            raise ConfigError(f"unknown config key {name!r}; known: {sorted(REGISTRY)}")
        if name in self._overrides:
            return self._overrides[name]
        raw = self._env.get(var.env)
        # an empty string unsets a str/bool variable (historical
        # behaviour) but is a parse error for ints ($REPRO_WORKERS="")
        if raw is not None and (raw != "" or var.type == "int"):
            return var.parse_env(raw)
        if name in self._config:
            return self._config[name]
        return var.default

    def as_dict(self) -> Dict[str, object]:
        """Every registered setting at its resolved value."""
        return {name: self.get(name) for name in REGISTRY}

    # -- lifecycle -------------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this the session that shims and config lookups resolve to."""
        _STACK.append(self)
        try:
            yield self
        finally:
            _STACK.remove(self)

    def close(self) -> None:
        """Detach and close the session's JSONL sink, if any, and tear
        down the shared worker pool when this session owns it (the
        session that first acquired it; see :mod:`repro.parallel.pool`)."""
        from repro.parallel import pool as worker_pool

        worker_pool.session_closed(self)
        if self._jsonl is not None:
            events.detach(self._jsonl)
            self._jsonl.close()
            self._jsonl = None

    def __enter__(self) -> "Session":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)
        self.close()

    # -- compile pipeline ------------------------------------------------------
    def compile_source(
        self,
        source: str,
        defines: Optional[Dict[str, object]] = None,
        module_name: str = "kernel_module",
        optimize: bool = True,
        cache: bool = True,
    ):
        """Compile OpenCL C source text into a verified IR module.

        The implementation behind ``repro.frontend.compile_source``:
        session-owned LRU cache (every hit hands out a private deepcopy),
        the compile pipeline via :func:`run_pipeline` (skipped with
        ``optimize=False``, which leaves the lowered IR as it is), and
        ``compile_*`` events on the bus.
        """
        from pycparser import CParser
        from pycparser.c_parser import ParseError

        from repro.frontend.compile import _COMPILE_CACHE_SIZE
        from repro.frontend.errors import FrontendError
        from repro.frontend.lower import lower_translation_unit
        from repro.frontend.preprocess import preprocess
        from repro.ir.verifier import verify_module

        with self.activate():
            key = (
                source,
                tuple(sorted((str(k), str(v)) for k, v in (defines or {}).items())),
                module_name,
                optimize,
            )
            sha = hashlib.sha1(source.encode()).hexdigest()[:12]
            events.emit("compile_start", module=module_name, source_sha1=sha)
            if cache:
                hit = self._compile_cache.get(key)
                if hit is not None:
                    self._compile_cache.move_to_end(key)
                    events.emit("compile_cache_hit", module=module_name, source_sha1=sha)
                    return copy.deepcopy(hit)
                events.emit("compile_cache_miss", module=module_name, source_sha1=sha)
            t0 = time.perf_counter()
            pre = preprocess(source, defines)
            parser = CParser()
            try:
                ast = parser.parse(pre.text, filename=module_name)
            except ParseError as exc:
                raise FrontendError(f"parse error: {exc}") from exc
            module = lower_translation_unit(ast, pre.kernel_names, module_name)
            if optimize:
                for fn in module:
                    run_pipeline(fn)
            verify_module(module)
            events.emit(
                "compile_end",
                module=module_name,
                kernels=[fn.name for fn in module if fn.is_kernel],
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
            if cache:
                self._compile_cache[key] = copy.deepcopy(module)
                while len(self._compile_cache) > _COMPILE_CACHE_SIZE:
                    self._compile_cache.popitem(last=False)
            return module

    def compile_kernel(
        self,
        source: str,
        name: Optional[str] = None,
        defines: Optional[Dict[str, object]] = None,
        optimize: bool = True,
        cache: bool = True,
    ):
        return self.compile_source(
            source, defines, optimize=optimize, cache=cache
        ).kernel(name)

    def clear_compile_cache(self) -> None:
        self._compile_cache.clear()

    # -- transform -------------------------------------------------------------
    def disable_local_memory(
        self, kernel_or_module, kernel_name=None, local_size=None, **kwargs
    ):
        """Run the Grover pass on a kernel in place; returns the report.

        With ``analyze=True`` (``$REPRO_ANALYZE``) the static race
        analyzer vets the kernel as an independent arbiter: a decided
        intra-group race or barrier divergence — before *or* after the
        transformation (checked only when a candidate was transformed) —
        raises :class:`~repro.analysis.RaceDetected`
        instead of silently transforming an already-undefined kernel
        (Grover's Eq. 3 reasons per local array; it cannot see, e.g.,
        two individually-invertible stores that collide with each
        other).  ``local_size`` refines the check with concrete
        work-group geometry (defaults to ``reqd_work_group_size``).
        """
        from repro.core.grover import GroverPass
        from repro.ir.function import Module

        with self.activate():
            if isinstance(kernel_or_module, Module):
                kernel = kernel_or_module.kernel(kernel_name)
            else:
                kernel = kernel_or_module
            analyze = bool(self.get("analyze"))
            if analyze:
                self._veto_races(kernel, local_size, stage="pre-transform")
            report = GroverPass(**kwargs).run(kernel)
            # a pass that transformed nothing left the IR as it was, and
            # the pre-transform check has already passed it
            if analyze and report.transformed:
                self._veto_races(kernel, local_size, stage="post-transform")
            return report

    def _veto_races(self, kernel, local_size, stage: str) -> None:
        from repro.analysis import analyzer_veto

        rep = analyzer_veto(kernel, local_size, stage)
        if rep.verdict == "undecided":
            # the gate must not pretend to have checked what it could
            # not decide (typically: no work-group geometry was given)
            import warnings

            from repro.analysis import AnalysisUndecidedWarning

            warnings.warn(
                f"analyze gate ({stage}): {rep.pairs_undecided} access "
                f"pair(s) of kernel {kernel.name!r} are statically "
                "undecided; pass local_size= (or declare "
                "reqd_work_group_size) for a decisive check",
                AnalysisUndecidedWarning,
                stacklevel=3,
            )


#: activation stack; the top is what ``current_session()`` returns
_STACK: List[Session] = []
_DEFAULT: Optional[Session] = None


def current_session() -> Session:
    """The active session (innermost ``activate()``), else the process
    default — created lazily on first use."""
    if _STACK:
        return _STACK[-1]
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session()
    return _DEFAULT


def reset_default_session() -> None:
    """Drop the lazily-created default session (tests)."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.close()
    _DEFAULT = None


def session_from_flags(
    config_path: Optional[str] = None,
    trace_out: Optional[str] = None,
    **overrides: object,
) -> Session:
    """Build a Session from the shared CLI flags (``--config``/``--trace-out``)."""
    if trace_out:
        overrides["trace_out"] = trace_out
    return Session(config_file=config_path, **overrides)
