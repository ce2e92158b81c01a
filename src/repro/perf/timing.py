"""High-level timing helpers shared by the experiments, the search, the
fuzz oracle and the benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Union

from repro.perf.cpumodel import CPUModel
from repro.perf.devices import CPUSpec, GPUSpec, device
from repro.perf.gpumodel import GPUModel
from repro.perf.pricing import kernel_cycles
from repro.runtime.trace import KernelTrace

Spec = Union[CPUSpec, GPUSpec]


@dataclass
class KernelCost:
    device: str
    cycles: float

    def speedup_over(self, other: "KernelCost") -> float:
        return other.cycles / self.cycles


def model_for(spec_or_name: Union[Spec, str]):
    spec = device(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    return GPUModel(spec) if spec.is_gpu else CPUModel(spec)


def price(trace: KernelTrace, devices: Sequence[Union[Spec, str]]) -> Dict[str, float]:
    """Cycles of ``trace`` on each of ``devices`` (specs or names), keyed
    by device name: equal to pricing it on each device alone, but every
    step the devices share is done once per group (see
    :mod:`repro.perf.pricing`)."""
    models = [model_for(d) for d in devices]
    return {m.spec.name: c for m, c in zip(models, kernel_cycles(trace, models))}


def estimate_cost(trace: KernelTrace, spec_or_name: Union[Spec, str]) -> KernelCost:
    spec = device(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    model = model_for(spec)
    return KernelCost(spec.name, model.time_kernel(trace))


def normalized_performance(with_local: KernelCost, without_local: KernelCost) -> float:
    """The paper's metric: performance without local memory divided by
    performance with local memory (``> 1`` means removing local memory
    helped)."""
    return with_local.cycles / without_local.cycles


def classify(np_ratio: float, threshold: float = 0.05) -> str:
    """Gain/loss/similar classification at the paper's 5% threshold."""
    if np_ratio > 1.0 + threshold:
        return "gain"
    if np_ratio < 1.0 - threshold:
        return "loss"
    return "similar"
