"""Determinism of the fuzzer: the same ``--seed`` must reproduce the
same campaign — byte-identical kernel sources and identical verdicts —
in another process and at any worker count.

This is what makes a fuzz finding *actionable*: ``case 143 of seed 7``
names the same kernel on every machine, the corpus promoted from a seed
is stable, and the CI fuzz job is re-runnable bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import FuzzOptions, generate_case, run_fuzz

SEED, COUNT = 7, 12

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, _ROOT, env.get("PYTHONPATH", "")) if p
    )
    return env


def _fingerprint(results) -> str:
    """A digest of everything a campaign decided (wall times excluded)."""
    blob = json.dumps(
        [
            {
                "source": r.source,
                "exec": r.outcome.exec_outcome,
                "analyzer": r.outcome.analyzer,
                "cats": list(r.outcome.deferral_categories),
                "grover": r.outcome.grover,
                "evictions": r.outcome.evictions,
                "cycles": r.outcome.cycles,
                "mismatches": [m.check for m in r.outcome.mismatches],
            }
            for r in results
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_sources_identical_across_processes(tmp_path):
    """Generation is a pure function of (seed, index): a fresh python
    process produces byte-identical kernel sources."""
    here = [generate_case(SEED, i).source() for i in range(COUNT)]
    prog = (
        "import sys\n"
        "from repro.fuzz import generate_case\n"
        f"for i in range({COUNT}):\n"
        f"    sys.stdout.write(generate_case({SEED}, i).source())\n"
        "    sys.stdout.write('\\x00')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True,
        check=True, env=_subprocess_env(), cwd=_ROOT,
    )
    there = proc.stdout.split("\x00")[:-1]
    assert there == here


def test_verdicts_identical_across_processes():
    fp_here = _fingerprint(run_fuzz(FuzzOptions(seed=SEED, count=COUNT)).results)
    prog = (
        "from repro.fuzz import FuzzOptions, run_fuzz\n"
        "from tests.test_fuzz_determinism import _fingerprint\n"
        f"run = run_fuzz(FuzzOptions(seed={SEED}, count={COUNT}))\n"
        "print(_fingerprint(run.results))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", prog], capture_output=True, text=True,
        check=True, env=_subprocess_env(), cwd=_ROOT,
    )
    assert proc.stdout.strip() == fp_here


@pytest.mark.parametrize("workers", [1, 4])
def test_verdicts_independent_of_worker_count(workers):
    run = run_fuzz(FuzzOptions(seed=SEED, count=COUNT, workers=workers))
    assert run.workers >= 1
    assert _fingerprint(run.results) == _EXPECTED_FP


#: computed once at import by the serial path; both parametrizations
#: (and the cross-process test) must land on the same digest
_EXPECTED_FP = _fingerprint(
    run_fuzz(FuzzOptions(seed=SEED, count=COUNT, workers=1)).results
)


def test_case_seed_derivation_is_stable():
    """Pin the seed derivation itself: changing it would silently rename
    every historical finding and orphan the committed corpus."""
    case = generate_case(7, 0)
    assert case.case_seed == generate_case(7, 0).case_seed
    assert generate_case(7, 1).case_seed != case.case_seed
    assert generate_case(8, 0).case_seed != case.case_seed


class _DeadPool:
    """A pool whose every task fails, as when its workers die."""

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        fut = Future()
        fut.set_exception(BrokenProcessPool("worker died"))
        return fut


def test_failed_pool_cases_are_redone_serially_and_reported(monkeypatch):
    """A case the pool fails to judge is judged in the parent — same
    verdicts — and each redo emits a ``pool_fallback`` event."""
    from repro.fuzz import runner
    from repro.session import events

    monkeypatch.setattr(runner.worker_pool, "acquire", lambda *a, **k: _DeadPool())
    with events.collect() as sink:
        run = run_fuzz(FuzzOptions(seed=SEED, count=COUNT, workers=2))
    assert _fingerprint(run.results) == _EXPECTED_FP
    falls = sink.of_kind("pool_fallback")
    assert len(falls) == COUNT
    assert {e.payload["where"] for e in falls} == {"fuzz"}
    assert "BrokenProcessPool" in falls[0].payload["error"]
