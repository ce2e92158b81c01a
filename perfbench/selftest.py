"""Self-test of the benchmark at a tiny size::

    python3 perfbench/selftest.py

For every workload of ``BENCHMARK.json`` it runs ``run.py --size tiny``
untraced and traced and checks that

* the result line is correct, with no failed operation, and names every
  metric ``BENCHMARK.json`` declares for that mode, each with its unit;
* the per-pass work counts repeat exactly between the passes of a run
  and between the two runs;

and, in this process, that each workload's check passes one tiny pass
and fails it once the expected results are tampered with, so that the
comparison with the expected files is not vacuous.  Exits non-zero on
the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def fail(msg: str) -> None:
    sys.exit(f"selftest: {msg}")


def run_tiny(workload: str, trace: int):
    """``(result, work_lines)`` of one tiny run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    work = [line for line in lines if line.startswith("work ")]
    return json.loads(lines[-1]), work


def check_cli(spec: dict) -> None:
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for wl in spec["workloads"]:
        name = wl["name"]
        works = []
        for trace, declared in modes.items():
            result, work = run_tiny(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} --trace {trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct={result['correct']}")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared}
            if set(got) != set(want):
                fail(f"{name} --trace {trace}: metrics {sorted(set(got) ^ set(want))} "
                     "are emitted or declared, not both")
            for metric, unit in want.items():
                value = got[metric]
                if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                    fail(f"{name}: {metric} is {value}, declared in {unit}")
            if len(work) < 2 or len(set(work)) != 1:
                fail(f"{name} --trace {trace}: work counts differ between passes")
            works.append(work[0])
        if len(set(works)) != 1:
            fail(f"{name}: work counts differ between runs: {works}")
        print(f"selftest: {name}: metrics, units and work counts ok")


def check_oracles() -> None:
    """A pass's check passes, and fails against tampered expected results."""
    sys.path.insert(0, HERE)
    from run import load_program

    load_program()
    import workloads

    def tamper_paper(wl) -> None:
        for row in wl.grid.values():
            for dev in row:
                row[dev] *= 1 + 2 * workloads.REL_TOL

    def tamper_ingest(wl) -> None:
        for exp in wl.expected:
            if "out" in exp:
                exp["out"] = "0" * 64

    def tamper_search(wl) -> None:
        for exp in wl.expected.values():
            exp["cycles"] *= 1 + 2 * workloads.REL_TOL

    tampers = {"paper-regen": tamper_paper, "kernel-ingest": tamper_ingest,
               "rewrite-search": tamper_search}
    for name, tamper in tampers.items():
        wl = workloads.make(name, SEED, "tiny")
        _, out = wl.run_pass()
        attempted, failed = wl.check(out)
        if attempted < 1 or failed:
            fail(f"{name}: {failed} of {attempted} operations failed the oracle")
        tamper(wl)
        if wl.check(out)[1] == 0:
            fail(f"{name}: the check accepts results that differ from the oracle")
        print(f"selftest: {name}: expected-file check passes and catches a mismatch")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_cli(spec)
    check_oracles()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
