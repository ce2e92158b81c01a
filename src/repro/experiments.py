"""Experiment driver: regenerates the paper's tables and figures.

Traces are device-independent, so each distinct kernel, problem and
variant is executed once at the requested scale and then priced once
per device family (the three CPUs, or the three GPUs) with
:func:`repro.perf.price`.  Traces and cycles are memoised process-wide
because pytest-benchmark runs each benchmark body several times, keyed
by what determines the launch rather than by app id: NVD-MM-A, -B and
-AB are three Grover choices on one kernel, so their ``with`` baselines
are one trace and one pricing.

Every table and figure is a slice of one (app × device) grid,
:func:`grid`, whose unit of work is one application: both variants
traced once, then scored on every requested device.  ``grid`` hands
those rows to :func:`repro.parallel.pool.fan_out` (``where="matrix"``);
:func:`table4`, :func:`figure10` and :func:`figure2` ask for one worker,
so they run serially in the calling process, and ``repro matrix
--workers N`` (:func:`main`) fans the rows out over the shared worker
pool.  Pricing builds fresh models for each call, so the row order does
not matter: serial and fanned-out grids are bit-identical floats.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.apps.harness import run_app
from repro.apps.registry import SCALES, TABLE_ORDER, App, get_app, validate_app_ids
from repro.parallel.pool import fan_out, resolve_workers
from repro.perf.devices import CPU_DEVICES, DEVICES, GPU_DEVICES, device
from repro.perf.timing import classify, price
from repro.runtime.trace import KernelTrace
from repro.session import events

#: classification threshold of the paper's Table IV (±5 %)
DEFAULT_THRESHOLD = 0.05

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


def _app_row(app_id: str, devices: Tuple[str, ...], scale: str) -> Dict[str, float]:
    """One row of the grid: ``app_id``'s normalised perf on ``devices``.

    Runs identically in a pool worker and in the parent (the serial
    path and a redone case), which is what makes the grid exact."""
    return {dev: normalized_perf(app_id, dev, scale) for dev in devices}


def grid(
    apps: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
    scale: str = "bench",
    workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """``device -> app -> normalised perf`` over ``apps`` × ``devices``,
    one app per case fanned out over ``workers``.

    Defaults are the paper's Table IV: the 11 Table III apps on the
    three CPU devices.  Unknown ids fail before any work starts; the
    grid is in input order and bit-identical for any worker count.
    """
    app_ids = list(apps) if apps is not None else list(TABLE_ORDER)
    dev_names = tuple(devices) if devices is not None else tuple(CPU_DEVICES)
    for app_id in app_ids:
        get_app(app_id)
    for dev in dev_names:
        device(dev)
    n_workers = resolve_workers(workers)
    t0 = time.perf_counter()
    events.emit(
        "matrix_start", apps=app_ids, devices=list(dev_names), workers=n_workers
    )
    rows = fan_out(
        _app_row,
        [(app_id, dev_names, scale) for app_id in app_ids],
        n_workers,
        where="matrix",
    )
    events.emit(
        "matrix_end",
        cases=len(app_ids) * len(dev_names),
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return {
        dev: {app_id: row[dev] for app_id, row in zip(app_ids, rows)}
        for dev in dev_names
    }


def table4_counts(
    values: Dict[str, Dict[str, float]], threshold: float = DEFAULT_THRESHOLD
) -> Dict[str, Dict[str, int]]:
    """Per-device gain/loss/similar counts of a :func:`grid` (Table IV)."""
    out: Dict[str, Dict[str, int]] = {}
    for dev, per_app in values.items():
        counts = {"gain": 0, "loss": 0, "similar": 0}
        for v in per_app.values():
            counts[classify(v, threshold)] += 1
        out[dev] = counts
    return out


@dataclass
class Fig10Series:
    """One subplot of Figure 10: normalised perf per app on one device."""

    device: str
    values: Dict[str, float] = field(default_factory=dict)

    def classify_all(self, threshold: float = DEFAULT_THRESHOLD) -> Dict[str, str]:
        return {a: classify(v, threshold) for a, v in self.values.items()}


def figure10(device_name: str, scale: str = "bench") -> Fig10Series:
    values = grid(TABLE_ORDER, (device_name,), scale, workers=1)
    return Fig10Series(device_name, values[device_name])


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


def table4(scale: str = "bench", threshold: float = DEFAULT_THRESHOLD) -> Table4:
    values = grid(TABLE_ORDER, CPU_DEVICES, scale, workers=1)
    return Table4(table4_counts(values, threshold))


#: the two applications of the Fig. 2 motivation study; the paper's MM
#: case manually removes the local tile of matrix A while keeping B's
#: (Section II-C), i.e. the NVD-MM-A variant
FIG2_APPS = ("NVD-MT", "NVD-MM-A")


def figure2(scale: str = "bench") -> Dict[str, Dict[str, float]]:
    """Normalised performance of MT and MM on all six platforms."""
    devices = tuple(GPU_DEVICES) + tuple(CPU_DEVICES)
    values = grid(FIG2_APPS, devices, scale, workers=1)
    return {
        "MT" if "MT" in app_id else "MM": {dev: values[dev][app_id] for dev in devices}
        for app_id in FIG2_APPS
    }


def clear_caches() -> None:
    _trace_cache.clear()
    _cycles_cache.clear()


# ---------------------------------------------------------------------------
# ``repro matrix`` command line
# ---------------------------------------------------------------------------


def _parse_devices(spec: str) -> Tuple[str, ...]:
    if spec == "cpu":
        return tuple(CPU_DEVICES)
    if spec == "gpu":
        return tuple(GPU_DEVICES)
    if spec == "all":
        return tuple(DEVICES)
    return tuple(d.strip() for d in spec.split(",") if d.strip())


def main(argv: Optional[List[str]] = None) -> int:
    """``repro matrix``: print the grid and its Table IV counts."""
    p = argparse.ArgumentParser(
        prog="repro matrix",
        description="Run the (app x device) experiment matrix, optionally "
        "fanned out over worker processes (results are bit-identical "
        "to the serial run).",
    )
    p.add_argument("--apps", default=None,
                   help="comma-separated app ids (default: the Table III rows)")
    p.add_argument("--devices", default="cpu",
                   help="'cpu', 'gpu', 'all', or comma-separated device names")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel cases (default: $REPRO_WORKERS, then 1)")
    p.add_argument("--scale", default="bench", choices=SCALES,
                   help="problem scale")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="gain/loss threshold (paper: 0.05)")
    p.add_argument("--json", dest="json_path", default=None,
                   help="also write the grid to this JSON file")
    p.add_argument("--config", default=None,
                   help="JSON session config file (see repro.session.config)")
    p.add_argument("--trace-out", default=None,
                   help="write structured events as JSONL to this path")
    args = p.parse_args(argv)

    from repro.cli import require_positive
    from repro.reporting import ascii_table, normalized_perf_table
    from repro.session import session_from_flags

    apps = (
        [a.strip() for a in args.apps.split(",") if a.strip()]
        if args.apps else list(TABLE_ORDER)
    )
    devices = _parse_devices(args.devices)
    if not apps:
        p.error(f"--apps {args.apps!r} names no app")
    if not devices:
        p.error(f"--devices {args.devices!r} names no device")
    try:
        validate_app_ids(apps)
    except ValueError as exc:
        p.error(str(exc))
    unknown = [d for d in devices if d not in DEVICES]
    if unknown:
        p.error(f"unknown device(s): {', '.join(unknown)}; "
                f"known: {', '.join(DEVICES)}")
    require_positive(p, ("--workers", args.workers))
    with session_from_flags(args.config, args.trace_out):
        workers = resolve_workers(args.workers)
        values = grid(apps, devices, args.scale, workers)

    print(normalized_perf_table(values, apps))
    print()
    counts = table4_counts(values, args.threshold)
    rows = [
        [dev, c["gain"], c["loss"], c["similar"]] for dev, c in counts.items()
    ]
    totals = Table4(counts).totals
    rows.append(["TOTAL", totals["gain"], totals["loss"], totals["similar"]])
    print(ascii_table(
        ["device", "gain", "loss", "similar"], rows,
        title=f"Table IV distribution ({len(apps) * len(devices)} cases, "
        f"threshold {args.threshold:.0%}, workers={workers})",
    ))

    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(
                {
                    "scale": args.scale,
                    "workers": workers,
                    "values": values,
                    "counts": counts,
                },
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
    return 0
