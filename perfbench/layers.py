"""Layer probes: wrap each layer's public functions from outside ``src/``.

A :class:`Probe` replaces every binding of the public functions and
methods named in :data:`TARGETS` -- the defining module's attribute,
every ``from x import f`` copy in another ``repro`` module, and class
attributes -- with a wrapper, and puts the originals back on exit.  A
module imported later copies the wrapper from the defining module, so
only the defining modules are imported up front.

* ``timed=False`` keeps counters only (no clock reads, no event bus):
  the per-pass work counts the cold-pass guard compares.
* ``timed=True`` also keeps a span stack.  A layer's self time is the
  duration of its calls minus the part covered by calls into other
  layers, so the layers' self times add up to the wall time of the
  wrapped calls.  Ratios the return values cannot show (compile-cache
  hits, model memo hits, tape diverts, pool start-up) are read from the
  program's existing events through a ``CollectorSink``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

#: (layer, owner, attribute): owner is ``module`` or ``module:Class``
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("frontend", "repro.frontend.compile", "compile_kernel"),
    ("frontend", "repro.frontend.compile", "compile_source"),
    ("frontend", "repro.session.core:Session", "compile_source"),
    ("core", "repro.core.grover:GroverPass", "run"),
    ("core", "repro.session.core:Session", "disable_local_memory"),
    ("analysis", "repro.analysis.driver", "analyze_kernel"),
    ("runtime", "repro.apps.harness", "execute_app"),
    ("runtime", "repro.runtime.ndrange", "launch"),
    ("perf", "repro.perf.timing", "estimate_cost"),
    ("perf", "repro.perf.cpumodel:CPUModel", "time_kernel"),
    ("perf", "repro.perf.gpumodel:GPUModel", "time_kernel"),
    ("search", "repro.search.engine", "search_app"),
    ("search", "repro.search.engine", "verify_pipeline"),
    ("parallel", "repro.parallel.pool", "acquire"),
    ("parallel", "repro.parallel.pool:WorkerPool", "submit"),
    ("experiments", "repro.experiments", "table4"),
    ("experiments", "repro.experiments", "figure10"),
    ("experiments", "repro.experiments", "figure2"),
)

LAYERS = ("frontend", "core", "analysis", "runtime", "perf", "search",
          "parallel", "experiments")

#: the work counts that must repeat exactly from pass to pass and run to run
WORK_COUNTS = ("compiles", "launches", "groups_priced", "candidates_scored")

#: the event kind that marks a work-group diverted off the taped schedule;
#: the codegen executor inherits the tape's eviction path, so it is theirs too
DIVERT_EVENT = "tape_evict"


class Probe:
    """Counters (and, when ``timed``, per-layer self times) over the
    wrapped calls; use as a context manager around the passes."""

    def __init__(self, timed: bool) -> None:
        from repro.runtime.errors import (
            BarrierDivergenceError,
            MemoryFault,
            RuntimeLaunchError,
        )

        self.timed = timed
        self._named_errors = (BarrierDivergenceError, MemoryFault, RuntimeLaunchError)
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass."""
        self.counts: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        #: worker-pool handles handed out during the pass
        self.pools: List[object] = []

    def work(self) -> Dict[str, int]:
        return {k: int(self.counts[k]) for k in WORK_COUNTS}

    # -- install / remove ------------------------------------------------------
    def __enter__(self) -> "Probe":
        for layer, owner, attr in TARGETS:
            self._install(layer, owner, attr)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _install(self, layer: str, owner_spec: str, attr: str) -> None:
        modname, _, clsname = owner_spec.partition(":")
        module = importlib.import_module(modname)
        if clsname:
            cls = getattr(module, clsname)
            wrapper = self._wrap(layer, f"{clsname}.{attr}", cls.__dict__[attr])
            self._set(cls, attr, wrapper)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(layer, attr, original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper -----------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        probe = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = probe._stack
            outer = not stack or stack[-1][0] != layer
            if outer:
                probe.counts[layer + ".calls"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock() if probe.timed else 0.0
            try:
                result = fn(*args, **kwargs)
            except probe._named_errors:
                if name == "launch":
                    probe.counts["runtime.named_errors"] += 1
                raise
            finally:
                stack.pop()
                if probe.timed:
                    dt = clock() - t0
                    probe.busy[layer] += dt - frame[1]
                    probe.inclusive[name] += dt
                    if stack:
                        stack[-1][1] += dt
            probe._observe(name, outer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _observe(self, name: str, outer: bool, args: tuple, result) -> None:
        """Work counts read from the return value of a successful call."""
        c = self.counts
        if name == "Session.compile_source":
            c["compiles"] += 1
        elif name == "launch":
            c["launches"] += 1
            c["groups_executed"] += int(result.groups_executed)
        elif name.endswith("Model.time_kernel"):
            c["groups_priced"] += len(args[1].groups)
        elif name == "analyze_kernel":
            c["analysis.undecided"] += result.verdict == "undecided"
        elif name in ("GroverPass.run", "Session.disable_local_memory"):
            if outer and result.transformed:
                c["core.transformed"] += 1
        elif name == "search_app":
            c["candidates_scored"] += len(result.candidates) + 1
            c["search.extensions"] += len(result.candidates)
            c["search.kept"] += result.evaluated - 1
        elif name == "acquire" and result is not None:
            self.pools.append(result)
        elif name == "WorkerPool.submit":
            c["parallel.tasks"] += 1

    # -- per-layer metrics -----------------------------------------------------
    def layer_metrics(self, sink, pass_s: float) -> Dict[str, float]:
        """Per-layer numbers of one traced pass that took ``pass_s``
        seconds; ``sink`` is the ``CollectorSink`` attached during it."""
        c, busy = self.counts, self.busy
        kinds = Counter(e.kind for e in sink.events)
        pool_start_s = sum(
            float(e.payload["wall_ms"]) for e in sink.of_kind("pool_start")
        ) / 1e3

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "frontend.calls": c["frontend.calls"],
            "frontend.busy_s": busy["frontend"],
            "frontend.cache_hit_ratio": ratio(kinds["compile_cache_hit"], c["compiles"]),
            "core.calls": c["core.calls"],
            "core.busy_s": busy["core"],
            "core.transform_ratio": ratio(c["core.transformed"], c["core.calls"]),
            "analysis.calls": c["analysis.calls"],
            "analysis.busy_s": busy["analysis"],
            "analysis.undecided_ratio": ratio(
                c["analysis.undecided"], c["analysis.calls"]
            ),
            "runtime.launches": c["launches"],
            "runtime.busy_s": busy["runtime"],
            "runtime.groups_executed": c["groups_executed"],
            "runtime.divert_ratio": ratio(kinds[DIVERT_EVENT], c["groups_executed"]),
            "runtime.named_errors": c["runtime.named_errors"],
            "perf.calls": c["perf.calls"],
            "perf.busy_s": busy["perf"],
            "perf.groups_priced": c["groups_priced"],
            "perf.memo_hit_ratio": ratio(kinds["model_memo_hit"], c["groups_priced"]),
            "search.scored": c["candidates_scored"],
            "search.keep_ratio": ratio(c["search.kept"], c["search.extensions"]),
            "search.score_s": (
                self.inclusive["search_app"] - self.inclusive["verify_pipeline"]
            ),
            "search.verify_s": self.inclusive["verify_pipeline"],
            "search.busy_s": busy["search"],
            "parallel.tasks": c["parallel.tasks"],
            "parallel.pool_start_s": pool_start_s,
            "parallel.busy_s": busy["parallel"],
            "experiments.self_s": busy["experiments"],
            "unattributed_s": pass_s - sum(busy[layer] for layer in LAYERS),
        }
        return {k: float(v) for k, v in m.items()}
