"""The repository benchmark: paper regeneration, fresh-kernel ingest and
rewrite search, end to end and per layer.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload paper-regen --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``, never from an
installed copy; without those sources the run exits non-zero and prints
no result.  Every ``REPRO_*`` variable is dropped first, so the program
runs at its default configuration.

A run sets the workload up (imports, app registry, inputs), then runs
passes as a closed loop with one client -- each operation starts when
the previous one has finished -- for about ``--seconds`` (at least two
passes; a pass starts only if half of a typical pass fits).  Every pass
starts from cold program caches, as a fresh CLI invocation would: the
experiment memo, the compile cache, the codegen module cache and the
worker pool are dropped before it.  The work counts of every pass
(compiles, launches, groups priced, candidates scored) must repeat
exactly, or the run is not correct.

``--trace 0`` reports the end-to-end metrics of untraced passes, with
times scaled to a reference speed of the shared host (``calibration.py``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``layers.py``) and the tracing
overhead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-regen", "kernel-ingest", "rewrite-search")
MIN_PASSES = 2
#: set-up is timed in this many fresh interpreters and the median reported
SETUP_PROBES = 9


def load_program() -> None:
    """Make the checkout's ``src/`` the only place ``repro`` comes from."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}")


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def cold_reset() -> None:
    """Drop every program cache a fresh CLI invocation would not have."""
    from repro import experiments, frontend
    from repro.parallel import pool
    from repro.runtime import codegen

    experiments.clear_caches()
    frontend.clear_compile_cache()
    codegen.clear_codegen_cache()
    pool.shutdown_shared()
    gc.collect()


def run_passes(wl, seconds: float, trace: bool) -> List[dict]:
    from layers import Probe
    from repro.session import events

    passes: List[dict] = []
    deadline = time.perf_counter() + seconds

    def another() -> bool:
        """Start a pass only if at least half of a typical one fits, so a
        run overshoots ``seconds`` by half a pass at most."""
        if len(passes) < MIN_PASSES:
            return True
        typical = statistics.median(p["pass_s"] for p in passes)
        return time.perf_counter() + typical / 2 < deadline

    calibration.sample()
    with Probe(timed=False) as probe:
        try:
            while another():
                traced = trace and len(passes) % 2 == 1
                cold_reset()
                probe.reset()
                probe.timed = traced
                sink = events.CollectorSink()
                if traced:
                    events.attach(sink)
                t0 = time.perf_counter()
                try:
                    lat, out = wl.run_pass()
                finally:
                    pass_s = time.perf_counter() - t0
                    events.detach(sink)
                record = {
                    "traced": traced,
                    "pass_s": pass_s,
                    # the operations alone, without calibration samples
                    "op_s": sum(lat) / 1e3,
                    "lat": lat,
                    "work": probe.work(),
                    "workers": max((p.n_workers for p in probe.pools), default=0),
                }
                if traced:
                    record["layers"] = probe.layer_metrics(sink, record["op_s"])
                record["attempted"], record["failed"] = wl.check(out)
                passes.append(record)
                print(f"# pass {len(passes)}{' (traced)' if traced else ''}: "
                      f"{pass_s:.3f} s, {record['attempted']} ops, "
                      f"{record['failed']} failed")
                print("work " + json.dumps(record["work"], sort_keys=True))
        finally:
            cold_reset()
    return passes


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its pool workers, each
    worker counted at the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def setup_s(args) -> float:
    """Median wall time of a fresh interpreter that only sets up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        times.append(time.perf_counter() - t0)
        calibration.sample()
    return statistics.median(times)


def op_quantile(lat: List[float], q: int) -> float:
    """The ``q``-th percentile of operation latencies."""
    return statistics.quantiles(lat, n=100, method="inclusive")[q - 1]


def end_to_end(passes: List[dict], args) -> Dict[str, float]:
    """The end-to-end metrics, times at the reference speed of
    ``calibration``: a pass is the sum of its operations' latencies."""
    timed = [p for p in passes if not p["traced"]]
    # before the set-up probes, which are children too
    rss = peak_rss_mb(max(p["workers"] for p in passes))
    setup = setup_s(args)
    scale = calibration.scale()
    print(f"# calibration: {calibration.summary()}")
    return {
        "pass_s": statistics.median(p["op_s"] for p in timed) * scale,
        "peak_rss_mb": rss,
        "setup_s": setup * scale,
    }


def per_layer(passes: List[dict]) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    traced_s = statistics.median(p["op_s"] for p in traced)
    out["traced_pass_s"] = traced_s
    out["trace_overhead_s"] = traced_s - statistics.median(
        p["op_s"] for p in untraced
    )
    # operation latency of the untraced passes, at the reference speed;
    # not bounded, as on a workload of a few long calls its percentiles
    # are as noisy as single calls
    lat = [ms for p in untraced for ms in p["lat"]]
    out["op_p50_ms"] = op_quantile(lat, 50) * calibration.scale()
    out["op_p90_ms"] = op_quantile(lat, 90) * calibration.scale()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Run one benchmark workload (see the module docstring)."
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's inputs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    load_program()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.size)
    if args.setup_only:
        return 0
    passes = run_passes(wl, args.seconds, bool(args.trace))
    repeat = all(p["work"] == passes[0]["work"] for p in passes)
    if not repeat:
        print("perfbench: work counts differ between passes, so some pass "
              "was not cold", file=sys.stderr)
    metrics = per_layer(passes) if args.trace else end_to_end(passes, args)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
