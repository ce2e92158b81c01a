"""Experiment driver: regenerates the paper's tables and figures.

Traces are device-independent, so each (application, variant) is
executed once at the requested scale and then priced once per device
family (the three CPUs, or the three GPUs) with
:func:`repro.perf.price`; results are memoised process-wide because
pytest-benchmark runs each benchmark body several times.

``figure10``/``table4`` accept ``workers=N`` to fan the matrix out over
the warm worker pool, one app per case (:func:`repro.parallel.run_matrix`); parallel
values are bit-identical to serial ones and are folded into the same
process-wide memo, so mixed serial/parallel callers stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.harness import run_app
from repro.apps.registry import TABLE_ORDER, get_app, table_apps
from repro.parallel.matrix import MatrixResult, run_matrix  # noqa: F401  (re-export)
from repro.perf.devices import CPU_DEVICES, GPU_DEVICES, device
from repro.perf.timing import classify, price
from repro.runtime.trace import KernelTrace

#: work-groups simulated per launch at bench scale (extrapolated)
BENCH_SAMPLE_GROUPS = 4

_trace_cache: Dict[Tuple[str, str, str], KernelTrace] = {}
_np_cache: Dict[Tuple[str, str, str], float] = {}
#: (app, variant, scale) -> device -> cycles, one device family at a time
_cycles_cache: Dict[Tuple[str, str, str], Dict[str, float]] = {}


def app_trace(app_id: str, variant: str, scale: str = "bench") -> KernelTrace:
    key = (app_id, variant, scale)
    if key not in _trace_cache:
        run = run_app(
            get_app(app_id),
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
    key = (app_id, device_name, scale)
    if key not in _np_cache:
        c_with = app_cycles(app_id, "with", device_name, scale)
        c_without = app_cycles(app_id, "without", device_name, scale)
        _np_cache[key] = c_with / c_without
    return _np_cache[key]


def app_cycles(app_id: str, variant: str, device_name: str, scale: str = "bench") -> float:
    """Modelled cycles of one (app, variant) on one device.

    The first request for a device prices the trace on its whole family
    at once, so a CPU request never pays for GPU pricing and the other
    members of the family come for free."""
    per_device = _cycles_cache.setdefault((app_id, variant, scale), {})
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


def _prefill_np_cache(
    devices: Tuple[str, ...], workers: Optional[int], scale: str
) -> None:
    """Fan the (app × device) grid out over worker processes.

    The parallel engine's values are bit-identical to the serial path,
    so they land in ``_np_cache`` and every downstream consumer —
    serial or parallel — reads the same floats.
    """
    from repro.parallel.matrix import run_matrix

    missing = [
        dev for dev in devices
        if any((a, dev, scale) not in _np_cache for a in TABLE_ORDER)
    ]
    if not missing:
        return
    matrix = run_matrix(
        apps=TABLE_ORDER, devices=missing, workers=workers, scale=scale
    )
    for dev, per_app in matrix.values.items():
        for app_id, value in per_app.items():
            _np_cache[(app_id, dev, scale)] = value


def figure10(
    device_name: str, scale: str = "bench", workers: Optional[int] = None
) -> Fig10Series:
    if workers is not None and workers > 1:
        _prefill_np_cache((device_name,), workers, scale)
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


def table4(
    scale: str = "bench",
    threshold: float = 0.05,
    workers: Optional[int] = None,
) -> Table4:
    if workers is not None and workers > 1:
        _prefill_np_cache(tuple(CPU_DEVICES), workers, scale)
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
    _np_cache.clear()
    _cycles_cache.clear()
