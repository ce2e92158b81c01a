"""Compile-launch-check harness shared by tests, benchmarks and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.registry import App
from repro.core import GroverPass, GroverReport
from repro.frontend import compile_kernel
from repro.ir.function import Function
from repro.runtime import KernelTrace, Memory, launch
from repro.runtime.errors import RuntimeLaunchError


@dataclass
class AppRun:
    app_id: str
    variant: str                    # 'with' | 'without'
    outputs: Dict[str, np.ndarray]
    trace: Optional[KernelTrace]
    report: Optional[GroverReport]  # set for the 'without' variant


def compile_app(app: App, variant: str = "with", **grover_kwargs) -> Tuple[Function, Optional[GroverReport]]:
    """Compile an app's kernel; for ``variant='without'`` run Grover."""
    kernel = compile_kernel(app.source, app.kernel_name, defines=app.defines)
    report = None
    if variant == "without":
        report = GroverPass(arrays=app.arrays, **grover_kwargs).run(kernel)
    elif variant != "with":
        raise ValueError(f"variant must be 'with' or 'without', got {variant!r}")
    return kernel, report


def run_app(
    app: App,
    variant: str = "with",
    scale: str = "test",
    collect_trace: bool = False,
    sample_groups: Optional[int] = None,
    **grover_kwargs,
) -> AppRun:
    """Compile (optionally transform) and execute one application."""
    kernel, report = compile_app(app, variant, **grover_kwargs)
    return execute_app(
        app,
        kernel,
        variant=variant,
        scale=scale,
        collect_trace=collect_trace,
        sample_groups=sample_groups,
        report=report,
    )


def execute_app(
    app: App,
    kernel: Function,
    variant: str = "with",
    scale: str = "test",
    collect_trace: bool = False,
    sample_groups: Optional[int] = None,
    workers: Optional[int] = None,
    report: Optional[GroverReport] = None,
) -> AppRun:
    """Execute an already-compiled kernel for ``app``.

    Splitting execution from :func:`compile_app` lets the differential
    suite launch one kernel object under several backends — transformed
    kernels get fresh instruction ids at every compile, so event-stream
    bit-identity is only defined per compiled kernel.

    ``workers`` is accepted for old callers and is serial-only: ``None``
    or 1; any other value raises :class:`RuntimeLaunchError`.
    """
    if workers is not None and (isinstance(workers, bool) or workers != 1):
        raise RuntimeLaunchError(
            f"workers={workers!r}: launches run serially; fan out whole "
            "cases instead (repro.experiments.grid)"
        )
    problem = app.make_problem(scale)

    mem = Memory()
    args: Dict[str, object] = {}
    buffers: Dict[str, object] = {}
    for name, value in problem.inputs.items():
        if isinstance(value, np.ndarray):
            buf = mem.from_array(value, name)
            buffers[name] = buf
            args[name] = buf
        else:
            args[name] = value
    out_arrays: Dict[str, np.ndarray] = {}
    for name, expected in problem.expected.items():
        if name not in buffers:
            buf = mem.alloc(expected.nbytes, name)
            buffers[name] = buf
            args[name] = buf

    res = launch(
        kernel,
        problem.global_size,
        problem.local_size,
        args,
        memory=mem,
        local_arg_sizes=problem.local_arg_sizes or None,
        collect_trace=collect_trace,
        sample_groups=sample_groups,
    )
    for name, expected in problem.expected.items():
        out_arrays[name] = (
            buffers[name]
            .read(expected.dtype, expected.size)
            .reshape(expected.shape)
        )
    return AppRun(app.id, variant, out_arrays, res.trace, report)


def validate_app(app: App, variant: str = "with", scale: str = "test", **kw) -> None:
    """Run the app at full fidelity and compare against the reference.

    Raises ``AssertionError`` with a useful message on mismatch — this is
    the paper's "each benchmark still runs correctly" check.
    """
    run = run_app(app, variant, scale, **kw)
    problem = app.make_problem(scale)
    for name, expected in problem.expected.items():
        got = run.outputs[name]
        if expected.dtype.kind in "fc":
            np.testing.assert_allclose(
                got,
                expected,
                atol=problem.atol,
                rtol=problem.rtol,
                err_msg=f"{app.id} [{variant}] output {name!r} mismatch",
            )
        else:
            np.testing.assert_array_equal(
                got, expected, err_msg=f"{app.id} [{variant}] output {name!r} mismatch"
            )
