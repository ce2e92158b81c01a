"""Case-level fan-out over the paper's experiment matrix.

The experiment matrix — Table IV, Fig. 10, the extension-GPU scoring —
is embarrassingly parallel: traces are device-independent, so the unit
of work is one *application* (both variants traced once, then scored on
every requested device).  ``run_matrix`` hands those cases to
:func:`repro.parallel.pool.fan_out` (``where="matrix"``); each case is
computed shared-nothing from its arguments, but the worker *processes*
persist across calls, so a worker's compile cache stays warm between
cases and between consecutive matrices.  The parent assembles the grid
in the deterministic ``apps``/``devices`` input order, so serial and
parallel results are bit-identical floats.

Failures follow the fan-out's one contract: a case's
:class:`RuntimeLaunchError`, :class:`MemoryFault` or
:class:`BarrierDivergenceError` propagates unchanged, exactly as on the
serial path; a case whose pool task fails for any other reason (broken
pool, lost worker, pickling) is reported as a ``pool_fallback`` and
redone in the parent.  ``workers=1``, ``$REPRO_WORKERS=1`` or an
unavailable pool all run the plain serial loop.

``python -m repro.cli matrix --workers 4`` is the command-line entry.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.pool import fan_out, resolve_workers
from repro.session import events

#: classification threshold of the paper's Table IV (±5 %)
DEFAULT_THRESHOLD = 0.05


def _matrix_case(
    app_id: str, devices: Tuple[str, ...], scale: str
) -> Dict[str, float]:
    """One case: trace both variants of ``app_id``, score every device.

    Runs identically in a worker process and in the parent (the serial
    path and a redone case), which is what makes the differential
    comparison exact.
    """
    from repro.experiments import normalized_perf

    return {dev: normalized_perf(app_id, dev, scale) for dev in devices}


@dataclass
class MatrixResult:
    """The (device × app) normalised-performance grid plus run metadata."""

    scale: str
    workers: int
    apps: List[str]
    devices: List[str]
    #: device -> app -> cycles_with / cycles_without
    values: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def cases(self) -> int:
        return len(self.apps) * len(self.devices)

    def classify_all(self, threshold: float = DEFAULT_THRESHOLD) -> Dict[str, Dict[str, str]]:
        from repro.perf.timing import classify

        return {
            dev: {app: classify(v, threshold) for app, v in per_app.items()}
            for dev, per_app in self.values.items()
        }

    def table4_counts(self, threshold: float = DEFAULT_THRESHOLD) -> Dict[str, Dict[str, int]]:
        """Per-device gain/loss/similar counts (the paper's Table IV)."""
        out: Dict[str, Dict[str, int]] = {}
        for dev, verdicts in self.classify_all(threshold).items():
            counts = {"gain": 0, "loss": 0, "similar": 0}
            for verdict in verdicts.values():
                counts[verdict] += 1
            out[dev] = counts
        return out


def run_matrix(
    apps: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    scale: str = "bench",
) -> MatrixResult:
    """Score ``apps`` × ``devices`` with ``workers`` parallel cases.

    Defaults reproduce the paper's Table IV: the 11 Table III apps on
    the three CPU devices.  Pass GPU device names for the
    extension-GPU matrix.  Results are bit-identical for any worker
    count.
    """
    from repro.apps.registry import TABLE_ORDER, get_app
    from repro.perf.devices import CPU_DEVICES, DEVICES

    app_ids = list(apps) if apps is not None else list(TABLE_ORDER)
    dev_names = tuple(devices) if devices is not None else tuple(CPU_DEVICES)
    for app_id in app_ids:
        get_app(app_id)  # unknown ids fail before any work is fanned out
    for dev in dev_names:
        if dev not in DEVICES:
            raise KeyError(f"unknown device {dev!r}; known: {sorted(DEVICES)}")

    n_workers = resolve_workers(workers)
    result = MatrixResult(
        scale=scale, workers=n_workers, apps=app_ids, devices=list(dev_names)
    )
    t0 = time.perf_counter()
    events.emit(
        "matrix_start",
        apps=list(app_ids),
        devices=list(dev_names),
        workers=n_workers,
    )

    cases = fan_out(
        _matrix_case,
        [(app_id, dev_names, scale) for app_id in app_ids],
        n_workers,
        where="matrix",
    )
    events.emit(
        "matrix_end",
        cases=result.cases,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )

    result.values = {
        dev: {app_id: vals[dev] for app_id, vals in zip(app_ids, cases)}
        for dev in dev_names
    }
    return result


# ---------------------------------------------------------------------------
# ``repro matrix`` command line
# ---------------------------------------------------------------------------

_DEVICE_SETS = ("cpu", "gpu", "all")


def _parse_devices(spec: str) -> Tuple[str, ...]:
    from repro.perf.devices import CPU_DEVICES, DEVICES, GPU_DEVICES

    if spec == "cpu":
        return tuple(CPU_DEVICES)
    if spec == "gpu":
        return tuple(GPU_DEVICES)
    if spec == "all":
        return tuple(DEVICES)
    return tuple(d.strip() for d in spec.split(",") if d.strip())


def main(argv: Optional[List[str]] = None) -> int:
    from repro.apps.registry import SCALES, validate_app_ids

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
    from repro.perf.devices import DEVICES
    from repro.reporting import ascii_table, normalized_perf_table
    from repro.session import session_from_flags

    apps = (
        [a.strip() for a in args.apps.split(",") if a.strip()]
        if args.apps else None
    )
    devices = _parse_devices(args.devices)
    if apps == []:
        p.error(f"--apps {args.apps!r} names no app")
    if not devices:
        p.error(f"--devices {args.devices!r} names no device")
    try:
        validate_app_ids(apps or ())
    except ValueError as exc:
        p.error(str(exc))
    unknown = [d for d in devices if d not in DEVICES]
    if unknown:
        p.error(f"unknown device(s): {', '.join(unknown)}; "
                f"known: {', '.join(DEVICES)}")
    require_positive(p, ("--workers", args.workers))
    with session_from_flags(args.config, args.trace_out):
        result = run_matrix(
            apps=apps,
            devices=devices,
            workers=args.workers,
            scale=args.scale,
        )

    print(normalized_perf_table(result.values, result.apps))
    print()
    counts = result.table4_counts(args.threshold)
    rows = [
        [dev, c["gain"], c["loss"], c["similar"]] for dev, c in counts.items()
    ]
    totals = {"gain": 0, "loss": 0, "similar": 0}
    for c in counts.values():
        for k in totals:
            totals[k] += c[k]
    rows.append(["TOTAL", totals["gain"], totals["loss"], totals["similar"]])
    print(ascii_table(
        ["device", "gain", "loss", "similar"], rows,
        title=f"Table IV distribution ({result.cases} cases, "
        f"threshold {args.threshold:.0%}, workers={result.workers})",
    ))

    if args.json_path:
        with open(args.json_path, "w") as f:
            json.dump(
                {
                    "scale": result.scale,
                    "workers": result.workers,
                    "values": result.values,
                    "counts": counts,
                },
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
