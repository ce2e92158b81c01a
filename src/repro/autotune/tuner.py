"""The Grover auto-tuner.

Given kernel source and a launch description, compile the original
kernel and the Grover-transformed one, execute both on the device model
(collecting traces), and pick the faster version.  This is the
"empirical approach" of the paper's abstract made executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core import GroverError, GroverPass, GroverReport
from repro.frontend import compile_kernel
from repro.ir.function import Function
from repro.perf.devices import CPUSpec, GPUSpec
from repro.perf.timing import estimate_cost, normalized_performance
from repro.runtime import Memory, launch


@dataclass
class TuneResult:
    device: str
    #: 'with' or 'without' — the faster version
    best: str
    #: paper metric: >1 means the transformed (no-local) version won
    normalized_perf: float
    cycles_with: float
    cycles_without: float
    report: Optional[GroverReport]
    #: why tuning fell back to the original version, if it did
    reason: str = ""

    @property
    def improved(self) -> bool:
        return self.best == "without"


def _run_traced(
    kernel: Function,
    global_size: Sequence[int],
    local_size: Sequence[int],
    inputs: Dict[str, object],
    sample_groups: Optional[int],
    local_arg_sizes: Optional[Dict[str, int]] = None,
):
    mem = Memory()
    args: Dict[str, object] = {}
    for name, value in inputs.items():
        args[name] = mem.from_array(value, name) if isinstance(value, np.ndarray) else value
    res = launch(
        kernel,
        global_size,
        local_size,
        args,
        memory=mem,
        local_arg_sizes=local_arg_sizes,
        collect_trace=True,
        sample_groups=sample_groups,
    )
    return res.trace


def autotune(
    source: str,
    device: Union[str, CPUSpec, GPUSpec],
    global_size: Sequence[int],
    local_size: Sequence[int],
    inputs: Dict[str, object],
    kernel_name: Optional[str] = None,
    defines: Optional[Dict[str, object]] = None,
    arrays: Optional[Sequence[str]] = None,
    sample_groups: Optional[int] = 4,
    local_arg_sizes: Optional[Dict[str, int]] = None,
) -> TuneResult:
    """Measure the kernel with and without local memory; keep the winner.

    ``inputs`` maps argument names to numpy arrays (buffers are created
    and filled) or scalars.  Output buffers are included simply as
    zero-filled arrays of the right shape.
    """
    dev_name = device if isinstance(device, str) else device.name

    original = compile_kernel(source, kernel_name, defines=defines)
    try:
        transformed = compile_kernel(source, kernel_name, defines=defines)
        report = GroverPass(arrays=list(arrays) if arrays else None).run(transformed)
    except GroverError as exc:
        t_with = _run_traced(
            original, global_size, local_size, inputs, sample_groups,
            local_arg_sizes,
        )
        c_with = estimate_cost(t_with, device)
        return TuneResult(
            device=dev_name,
            best="with",
            normalized_perf=1.0,
            cycles_with=c_with.cycles,
            cycles_without=float("nan"),
            report=None,
            reason=f"Grover could not disable local memory: {exc}",
        )

    t_with = _run_traced(
        original, global_size, local_size, inputs, sample_groups,
        local_arg_sizes,
    )
    t_without = _run_traced(
        transformed, global_size, local_size, inputs, sample_groups,
        local_arg_sizes,
    )
    c_with = estimate_cost(t_with, device)
    c_without = estimate_cost(t_without, device)
    np_ratio = normalized_performance(c_with, c_without)
    return TuneResult(
        device=dev_name,
        best="without" if np_ratio > 1.0 else "with",
        normalized_perf=np_ratio,
        cycles_with=c_with.cycles,
        cycles_without=c_without.cycles,
        report=report,
    )
