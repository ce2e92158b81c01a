"""The benchmark's three workloads.

A workload sets itself up from the seed (``__init__``), runs one pass
through the program's public functions one operation at a time
(``run_pass`` returns each operation's latency in ms and the results),
and checks a pass's results against the files under ``expected/``,
which ``oracles.py`` made from the independent oracles (``check``
returns the operations attempted and failed).  An operation fails when
it raises anything but one of the program's named verdicts, or when its
result differs from the expected one.  Pipelines, verification, Table IV
counts and kernel outputs must match exactly; cycle counts and
normalised performance within :data:`REL_TOL`.

Calls go through module attributes (``experiments.table4``,
``runtime.launch``, ...), looked up at call time, so that the layer
probes of ``layers.py`` see them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import os
import random
import sys
import time
import traceback
import warnings
from typing import Callable, Dict, List, Tuple

import numpy as np

import calibration
from repro import analysis, experiments, frontend, perf, runtime, search
from repro.analysis import AnalysisUndecidedWarning, RaceDetected
from repro.apps.registry import TABLE_ORDER, table_apps
from repro.core.grover import GroverError
from repro.fuzz.generate import generate_case
from repro.fuzz.oracle import input_data
from repro.perf.devices import CPU_DEVICES, GPU_DEVICES
from repro.runtime.errors import (
    BarrierDivergenceError,
    MemoryFault,
    RuntimeLaunchError,
)
from repro.session import Session

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

#: relative tolerance on cycles and normalised performance.  The oracles
#: price with the group memo off; the default path prices with it on,
#: which is approximate.  The largest drift measured between the two is
#: 2.0 % (PAB-ST on Nehalem at bench scale; PAB-ST's search winner drifts
#: 1.9 %), so 3 % passes the memo and catches a wrong model or trace.
REL_TOL = 0.03


def close(got: object, want: float) -> bool:
    return isinstance(got, numbers.Real) and abs(got - want) <= REL_TOL * abs(want)


def load_expected(name: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, name + ".json")) as fh:
        return json.load(fh)


def timed_op(fn: Callable[[], object]) -> Tuple[float, object]:
    """Run one operation: ``(latency_ms, result)``.  An unexpected
    exception is reported and becomes the result -- a failed operation,
    never a crashed run.  A calibration sample may run before it."""
    calibration.between_ops()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:
        ms = (time.perf_counter() - t0) * 1e3
        traceback.print_exc()
        return ms, exc
    return (time.perf_counter() - t0) * 1e3, result


class PaperRegen:
    """The paper's sweep, serially: ``experiments.table4``, ``figure10``
    on each GPU and ``figure2``; one operation is one of these calls.
    The inputs are the paper's 11 apps, so the seed changes nothing."""

    def __init__(self, seed: int, size: str) -> None:
        self.scale = "bench" if size == "full" else "test"
        table_apps()
        expected = load_expected("paper_regen")
        self.grid = expected["grid"][self.scale]
        self.table4 = expected["table4"][self.scale]
        scale = self.scale
        self.requests: List[Tuple[str, Callable[[], object]]] = [
            ("table4", lambda: experiments.table4(scale=scale))
        ]
        for dev in GPU_DEVICES:
            self.requests.append(
                (dev, lambda dev=dev: experiments.figure10(dev, scale=scale))
            )
        self.requests.append(("figure2", lambda: experiments.figure2(scale=scale)))

    def run_pass(self):
        lat, out = [], {}
        for label, call in self.requests:
            ms, out[label] = timed_op(call)
            lat.append(ms)
        return lat, out

    def check(self, out: Dict[str, object]) -> Tuple[int, int]:
        """One operation per (app, device) value of the 66-value grid."""
        bad = set()

        def expect(app: str, dev: str, get: Callable[[], object]) -> None:
            _, value = timed_op(get)
            if not close(value, self.grid[app][dev]):
                bad.add((app, dev))

        table4, fig2 = out["table4"], out["figure2"]
        for dev in CPU_DEVICES:
            counts = getattr(table4, "per_device", {}).get(dev)
            if counts != self.table4[dev]:
                bad.update((app, dev) for app in TABLE_ORDER)
                continue
            for app in TABLE_ORDER:
                # Table IV is counts; its values are the memo table4 filled
                expect(app, dev, lambda app=app, dev=dev:
                       experiments.normalized_perf(app, dev, self.scale))
        for dev in GPU_DEVICES:
            for app in TABLE_ORDER:
                expect(app, dev, lambda app=app, dev=dev: out[dev].values[app])
        for label, app in (("MT", "NVD-MT"), ("MM", "NVD-MM-A")):
            for dev in self.grid[app]:
                expect(app, dev, lambda label=label, dev=dev: fig2[label][dev])
        for app, dev in sorted(bad):
            print(f"# paper-regen: {app} on {dev} differs from the oracle",
                  file=sys.stderr)
        return len(TABLE_ORDER) * (len(CPU_DEVICES) + len(GPU_DEVICES)), len(bad)


class KernelIngest:
    """Fresh fuzz kernels, one operation each: compile with the cache
    bypassed, a full-grid traced launch, ``analysis.analyze_kernel``
    sharpened by that trace, Grover behind the analyzer gate, and pricing
    on SNB and Fermi.  The seed draws the kernels from the pool the
    expected file covers."""

    KERNELS = {"full": 300, "tiny": 12}
    DEVICES = ("SNB", "Fermi")

    def __init__(self, seed: int, size: str) -> None:
        expected = load_expected("kernel_ingest")
        self.expected = expected["kernels"]
        picks = random.Random(seed).sample(
            range(len(self.expected)), self.KERNELS[size]
        )
        self.items = []
        for index in picks:
            case = generate_case(expected["root_seed"], index)
            self.items.append((index, case, case.source(), input_data(case.in_elems)))
        # the gate warns about every kernel it cannot fully decide
        warnings.simplefilter("ignore", AnalysisUndecidedWarning)

    def run_pass(self):
        gate = Session(analyze=True)
        lat, out = [], []
        try:
            for _, case, source, data in self.items:
                ms, res = timed_op(
                    lambda case=case, source=source, data=data:
                    self._ingest(case, source, data, gate)
                )
                lat.append(ms)
                out.append(res)
        finally:
            gate.close()
        return lat, out

    def _ingest(self, case, source: str, data: np.ndarray, gate: Session) -> dict:
        try:
            module = frontend.compile_source(source, cache=False)
        except frontend.FrontendError:
            return {"error": "FrontendError"}
        kernel = module.kernel(case.kernel_name)
        result, trace = self._launch(kernel, case, data)
        # the full verdict replays the trace: static analysis alone calls
        # some kernels "clean" whose replay finds an irreversible access
        verdict = analysis.analyze_kernel(kernel, case.local_size, trace).verdict
        variant = copy.deepcopy(module).kernel(case.kernel_name)
        try:
            report = gate.disable_local_memory(
                variant, local_size=case.local_size, allow_partial=True
            )
            grover = "transformed" if report.transformed else "rejected"
        except RaceDetected:
            grover = "vetoed"
        except GroverError as exc:
            grover = type(exc).__name__
        if trace is not None:
            result["cycles"] = [
                perf.estimate_cost(trace, dev).cycles for dev in self.DEVICES
            ]
        # "clean" is Grover's precondition: any other verdict voids the
        # rewrite's guarantee, so such a variant is never launched
        if grover == "transformed" and verdict == "clean" and "out" in result:
            result["variant"] = self._launch(variant, case, data)[0]
        result["grover"] = grover
        return result

    def _launch(self, kernel, case, data: np.ndarray):
        """``(result, trace)``: the outputs, or the named error and no trace."""
        total = int(np.prod(case.global_size))
        mem = runtime.Memory()
        out = mem.alloc(total * 4, "out")
        args = {"out": out, "in": mem.from_array(data, "in"), "P": case.p_value}
        try:
            res = runtime.launch(
                kernel, case.global_size, case.local_size, args,
                memory=mem, collect_trace=True,
            )
        except (BarrierDivergenceError, MemoryFault, RuntimeLaunchError) as exc:
            return {"error": type(exc).__name__}, None
        return {"out": out.read(np.float32, total).tobytes()}, res.trace

    def check(self, out: List[object]) -> Tuple[int, int]:
        failed = 0
        for (index, *_), res in zip(self.items, out):
            why = _ingest_mismatch(self.expected[index], res)
            if why:
                failed += 1
                print(f"# kernel-ingest: kernel {index}: {why}", file=sys.stderr)
        return len(out), failed


def _ingest_mismatch(expected: dict, res: object) -> str:
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    if expected.get("error") != res.get("error"):
        return (f"outcome {res.get('error') or 'ok'}, "
                f"reference {expected.get('error') or 'ok'}")
    if "error" in expected:
        return ""
    if hashlib.sha256(res["out"]).hexdigest() != expected["out"]:
        return "outputs differ from the reference interpreter's"
    variant = res.get("variant")
    if variant is not None and variant.get("out") != res["out"]:
        return "the Grover variant's outputs differ from the original's"
    return ""


class RewriteSearch:
    """``search.run_search`` at test scale with the default beam, depth
    and device and ``min(2, nproc)`` pool workers, one app per
    operation; the seed orders the apps."""

    APPS = {"full": tuple(TABLE_ORDER), "tiny": ("NVD-MT", "AMD-MT")}

    def __init__(self, seed: int, size: str) -> None:
        table_apps()
        self.expected = load_expected("rewrite_search")["apps"]
        self.apps = list(self.APPS[size])
        random.Random(seed).shuffle(self.apps)
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def run_pass(self):
        lat, out = [], []
        for app in self.apps:
            options = search.SearchOptions(apps=(app,), workers=self.workers)
            ms, res = timed_op(lambda options=options: search.run_search(options))
            lat.append(ms)
            out.append(res)
        return lat, out

    def check(self, out: List[object]) -> Tuple[int, int]:
        failed = 0
        for app, run in zip(self.apps, out):
            exp = self.expected[app]
            ok = False
            if not isinstance(run, Exception):
                r = run.results[0]
                ok = (
                    r.verified
                    and list(r.winner.pipeline) == exp["pipeline"]
                    and close(r.winner.cycles, exp["cycles"])
                    and close(r.baseline.cycles, exp["baseline_cycles"])
                )
            if not ok:
                failed += 1
                print(f"# rewrite-search: {app} differs from the oracle's winner",
                      file=sys.stderr)
        return len(out), failed


WORKLOADS = {
    "paper-regen": PaperRegen,
    "kernel-ingest": KernelIngest,
    "rewrite-search": RewriteSearch,
}


def make(name: str, seed: int, size: str):
    return WORKLOADS[name](seed, size)
