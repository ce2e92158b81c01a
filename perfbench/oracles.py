"""Regenerate the expected-result files under ``perfbench/expected/``
from the independent oracles, never from the fast paths under test::

    python3 perfbench/oracles.py                    # all three files
    python3 perfbench/oracles.py kernel-ingest      # one of them

* ``paper_regen.json``: the 66-value grid (11 apps x 6 devices) of
  normalised performance at test and bench scale, executed by the
  reference interpreter and priced by the ``perf/cache.py`` simulator
  with the group memo off, plus Table IV's gain/loss/similar counts,
  classified here at the paper's 5 % threshold.
* ``kernel_ingest.json``: for the fuzz kernels ``generate_case(3, i)``,
  ``i < 1200``, a digest of the reference interpreter's outputs, or the
  named error it raises.
* ``rewrite_search.json``: each app's winner of a beam search written
  here from the search's documented rules (extend by one unused rule,
  keep candidates whose last rule rewrote something, beam by
  ``(cycles, pipeline)``, rank by ``(cycles, length, pipeline)``), over
  candidates scored by the same reference oracles and verified by the
  analyzer veto and outputs byte-identical to the untransformed
  kernel's.

The oracles are the slow paths, so this takes minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

from run import load_program

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
#: the fuzz root seed and pool size kernel-ingest draws its kernels from
ROOT_SEED = 3
POOL = 1200
#: the paper's gain/loss threshold on normalised performance
THRESHOLD = 0.05
SEARCH_SCALE = "test"


def reference_session():
    from repro.session import Session

    return Session(env={}, exec_backend="reference", cache_backend="reference",
                   perf_memo=False, workers=1)


def paper_regen() -> dict:
    from repro import experiments
    from repro.apps.registry import TABLE_ORDER
    from repro.perf.devices import CPU_DEVICES, DEVICES

    out: dict = {"grid": {}, "table4": {}}
    with reference_session().activate():
        for scale in ("test", "bench"):
            experiments.clear_caches()
            grid = {
                app: {dev: experiments.normalized_perf(app, dev, scale) for dev in DEVICES}
                for app in TABLE_ORDER
            }
            out["grid"][scale] = grid
            out["table4"][scale] = {
                dev: _table4_counts([grid[app][dev] for app in TABLE_ORDER])
                for dev in CPU_DEVICES
            }
        experiments.clear_caches()
    return out


def _table4_counts(values) -> dict:
    counts = {"gain": 0, "loss": 0, "similar": 0}
    for v in values:
        if v > 1 + THRESHOLD:
            counts["gain"] += 1
        elif v < 1 - THRESHOLD:
            counts["loss"] += 1
        else:
            counts["similar"] += 1
    return counts


def kernel_ingest() -> dict:
    import numpy as np

    from repro import frontend, runtime
    from repro.fuzz.generate import generate_case
    from repro.fuzz.oracle import input_data
    from repro.runtime.errors import (
        BarrierDivergenceError,
        MemoryFault,
        RuntimeLaunchError,
    )

    kernels = []
    with reference_session().activate():
        for index in range(POOL):
            case = generate_case(ROOT_SEED, index)
            try:
                kernel = frontend.compile_kernel(
                    case.source(), case.kernel_name, cache=False
                )
            except frontend.FrontendError:
                kernels.append({"error": "FrontendError"})
                continue
            total = int(np.prod(case.global_size))
            mem = runtime.Memory()
            out = mem.alloc(total * 4, "out")
            data = mem.from_array(input_data(case.in_elems), "in")
            args = {"out": out, "in": data, "P": case.p_value}
            try:
                runtime.launch(kernel, case.global_size, case.local_size, args,
                               memory=mem)
            except (BarrierDivergenceError, MemoryFault, RuntimeLaunchError) as exc:
                kernels.append({"error": type(exc).__name__})
                continue
            digest = hashlib.sha256(out.read(np.float32, total).tobytes())
            kernels.append({"out": digest.hexdigest()})
    return {"root_seed": ROOT_SEED, "kernels": kernels}


def rewrite_search() -> dict:
    from repro.apps.registry import TABLE_ORDER, get_app
    from repro.rules import rule_names
    from repro.session import Session

    defaults = Session(env={})
    beam, depth, groups, device = (
        defaults.get(k)
        for k in ("search_beam", "search_depth", "search_sample_groups", "search_device")
    )
    with reference_session().activate():
        apps = {
            app: _search_app(get_app(app), rule_names(), beam, depth, groups, device)
            for app in TABLE_ORDER
        }
    return {"beam": beam, "depth": depth, "sample_groups": groups,
            "device": device, "scale": SEARCH_SCALE, "apps": apps}


def _transformed(app, pipeline):
    from repro.apps.harness import compile_app
    from repro.rules import RuleContext, get_rule

    ctx = RuleContext(local_size=tuple(app.make_problem(SEARCH_SCALE).local_size))
    kernel, _ = compile_app(app, "with")
    return kernel, [int(get_rule(name).apply(kernel, ctx)) for name in pipeline]


def _score(app, pipeline, groups, device):
    """``(rewrites, cycles)``, or None for a candidate that fails to run
    (the search drops those too)."""
    from repro.apps.harness import execute_app
    from repro.perf import estimate_cost

    try:
        kernel, rewrites = _transformed(app, pipeline)
        run = execute_app(app, kernel, scale=SEARCH_SCALE, collect_trace=True,
                          sample_groups=groups, workers=1)
    except Exception:
        return None
    return rewrites, estimate_cost(run.trace, device).cycles


def _verified(app, pipeline) -> bool:
    from repro.analysis import analyze_kernel
    from repro.apps.harness import compile_app, execute_app

    kernel, _ = _transformed(app, pipeline)
    if pipeline:
        report = analyze_kernel(kernel, app.make_problem(SEARCH_SCALE).local_size)
        if report.races or report.divergences:
            return False
    base, _ = compile_app(app, "with")
    want = execute_app(app, base, scale=SEARCH_SCALE, workers=1).outputs
    got = execute_app(app, kernel, scale=SEARCH_SCALE, workers=1).outputs
    return all(want[k].tobytes() == got[k].tobytes() for k in want)


def _search_app(app, rules, beam, depth, groups, device) -> dict:
    _, base_cycles = _score(app, (), groups, device)
    frontier = [((), base_cycles)]
    kept_all = []
    for _ in range(depth):
        kept = []
        for pipeline, _cycles in frontier:
            for name in rules:
                if name in pipeline:
                    continue
                cand = pipeline + (name,)
                scored = _score(app, cand, groups, device)
                if scored is not None and scored[0][-1] > 0:
                    kept.append((cand, scored[1]))
        kept_all += kept
        frontier = sorted(kept, key=lambda e: (e[1], e[0]))[:beam]
        if not frontier:
            break
    ranked = sorted(kept_all + [((), base_cycles)],
                    key=lambda e: (e[1], len(e[0]), e[0]))
    for pipeline, cycles in ranked:
        if _verified(app, pipeline):
            return {"pipeline": list(pipeline), "cycles": cycles,
                    "baseline_cycles": base_cycles}
    raise RuntimeError(f"{app.id}: no candidate passed verification")


ORACLES = {
    "paper-regen": ("paper_regen", paper_regen),
    "kernel-ingest": ("kernel_ingest", kernel_ingest),
    "rewrite-search": ("rewrite_search", rewrite_search),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Regenerate perfbench/expected/ from the independent oracles."
    )
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                   help=f"any of {', '.join(ORACLES)} (default: all)")
    args = p.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(ORACLES))
    if unknown:
        p.error(f"unknown workload(s) {unknown}")
    load_program()
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for workload in args.workloads or ORACLES:
        name, oracle = ORACLES[workload]
        data = {"command": f"python3 perfbench/oracles.py {workload}", **oracle()}
        path = os.path.join(EXPECTED_DIR, name + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
