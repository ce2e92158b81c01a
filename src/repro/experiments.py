"""Experiment driver: regenerates the paper's tables and figures.

Traces are device-independent, so each distinct kernel, problem and
variant is executed once at the requested scale and then priced once
per device family (the three CPUs, or the three GPUs) with
:func:`repro.perf.price`.  Traces and cycles are memoised process-wide
because pytest-benchmark runs each benchmark body several times, keyed
by what determines the launch rather than by app id: NVD-MM-A, -B and
-AB are three Grover choices on one kernel, so their ``with`` baselines
are one trace and one pricing.

Everything here runs serially in the calling process; the fanned-out
(app × device) grid is :func:`repro.parallel.run_matrix` (``repro
matrix --workers N``), whose values are bit-identical to these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

from repro.apps.harness import run_app
from repro.apps.registry import TABLE_ORDER, App, get_app
from repro.parallel.matrix import MatrixResult, run_matrix  # noqa: F401  (re-export)
from repro.perf.devices import CPU_DEVICES, GPU_DEVICES, device
from repro.perf.timing import classify, price
from repro.runtime.trace import KernelTrace

#: work-groups simulated per launch at bench scale (extrapolated)
BENCH_SAMPLE_GROUPS = 4

#: launch key (see :func:`_launch_key`) -> trace
_trace_cache: Dict[Hashable, KernelTrace] = {}
#: launch key -> device -> cycles, one device family at a time
_cycles_cache: Dict[Hashable, Dict[str, float]] = {}


def _launch_key(app: App, variant: str, scale: str) -> Hashable:
    """What determines an app's trace: its kernel, problem and variant.

    ``make_problem`` compares by identity, so two :func:`kernel_app`
    wrappers never share an entry; the Grover ``arrays`` choice only
    matters once Grover runs."""
    arrays = None
    if variant == "without" and app.arrays is not None:
        arrays = tuple(app.arrays)
    return (
        app.source,
        app.kernel_name,
        tuple(sorted(app.defines.items())),
        app.make_problem,
        variant,
        arrays,
        scale,
    )


def app_trace(app_id: str, variant: str, scale: str = "bench") -> KernelTrace:
    app = get_app(app_id)
    key = _launch_key(app, variant, scale)
    if key not in _trace_cache:
        run = run_app(
            app,
            variant,
            scale,
            collect_trace=True,
            sample_groups=BENCH_SAMPLE_GROUPS if scale == "bench" else None,
        )
        assert run.trace is not None
        _trace_cache[key] = run.trace
    return _trace_cache[key]


def normalized_perf(app_id: str, device_name: str, scale: str = "bench") -> float:
    """The paper's metric on one app/device: cycles_with / cycles_without
    (> 1 means disabling local memory improved performance)."""
    return app_cycles(app_id, "with", device_name, scale) / app_cycles(
        app_id, "without", device_name, scale
    )


def app_cycles(app_id: str, variant: str, device_name: str, scale: str = "bench") -> float:
    """Modelled cycles of one (app, variant) on one device.

    The first request for a device prices the trace on its whole family
    at once, so a CPU request never pays for GPU pricing and the other
    members of the family come for free."""
    key = _launch_key(get_app(app_id), variant, scale)
    per_device = _cycles_cache.setdefault(key, {})
    if device_name not in per_device:
        family = GPU_DEVICES if device(device_name).is_gpu else CPU_DEVICES
        per_device.update(price(app_trace(app_id, variant, scale), list(family)))
    return per_device[device_name]


@dataclass
class Fig10Series:
    """One subplot of Figure 10: normalised perf per app on one device."""

    device: str
    values: Dict[str, float] = field(default_factory=dict)

    def classify_all(self, threshold: float = 0.05) -> Dict[str, str]:
        return {a: classify(v, threshold) for a, v in self.values.items()}


def figure10(device_name: str, scale: str = "bench") -> Fig10Series:
    series = Fig10Series(device_name)
    for app_id in TABLE_ORDER:
        series.values[app_id] = normalized_perf(app_id, device_name, scale)
    return series


@dataclass
class Table4:
    """Gain/loss/similar distribution over the 33 CPU test cases."""

    per_device: Dict[str, Dict[str, int]]

    @property
    def totals(self) -> Dict[str, int]:
        out = {"gain": 0, "loss": 0, "similar": 0}
        for counts in self.per_device.values():
            for k, v in counts.items():
                out[k] += v
        return out

    @property
    def cases(self) -> int:
        return sum(self.totals.values())


def table4(scale: str = "bench", threshold: float = 0.05) -> Table4:
    per_device = {}
    for dev in CPU_DEVICES:
        series = figure10(dev, scale)
        counts = {"gain": 0, "loss": 0, "similar": 0}
        for verdict in series.classify_all(threshold).values():
            counts[verdict] += 1
        per_device[dev] = counts
    return Table4(per_device)


#: the two applications of the Fig. 2 motivation study; the paper's MM
#: case manually removes the local tile of matrix A while keeping B's
#: (Section II-C), i.e. the NVD-MM-A variant
FIG2_APPS = ("NVD-MT", "NVD-MM-A")


def figure2(scale: str = "bench") -> Dict[str, Dict[str, float]]:
    """Normalised performance of MT and MM on all six platforms."""
    out: Dict[str, Dict[str, float]] = {}
    for app_id in FIG2_APPS:
        label = "MT" if "MT" in app_id else "MM"
        out[label] = {}
        for dev in list(GPU_DEVICES) + list(CPU_DEVICES):
            out[label][dev] = normalized_perf(app_id, dev, scale)
    return out


def clear_caches() -> None:
    _trace_cache.clear()
    _cycles_cache.clear()
