"""Perf regression harness for the measurement pipeline itself.

Runs the ``repro bench`` machinery at test scale and checks the two
properties the fast path must keep forever:

* **exactness** — the vectorised cache backend reproduces the reference
  oracle's per-group hit/miss/prefetch counts bit-for-bit (enforced
  inside ``bench_app``; an ``EquivalenceError`` fails the benchmark);
* **speed** — the fast path with memoization beats the per-access
  oracle on the trace→cycles stage (a loose >1x bound here so CI noise
  cannot flake; the committed ``BENCH_pipeline.json`` records the real
  bench-scale speedups, which must stay >= 5x for MT and MM).
"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    DEFAULT_APPS,
    SCHEMA_VERSION,
    bench_app,
    bench_smoke,
    run_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small_bench():
    return run_bench(
        apps=["NVD-MT", "NVD-MM-B"], scale="test", sample_groups=4, smoke=False
    )


def test_schema(small_bench):
    assert small_bench["schema"] == SCHEMA_VERSION
    assert small_bench["exec_backend"] in ("tape", "reference")
    for app_id in ["NVD-MT", "NVD-MM-B"]:
        r = small_bench["apps"][app_id]
        stages = r["stages"]
        for key in (
            "compile_cold_s",
            "compile_cached_s",
            "launch_trace_s",
            "launch_trace_tape_s",
            "cycles_reference_s",
            "cycles_fast_s",
        ):
            assert stages[key] >= 0.0
        assert r["equivalence"] == "exact"
        assert r["exec_backend"] in ("tape", "reference")
        assert r["trace_to_cycles_speedup"] > 0
        assert r["launch_trace_tape_speedup"] > 0


def test_compile_cache_speedup(small_bench):
    for app_id, r in small_bench["apps"].items():
        assert r["stages"]["compile_cached_s"] < r["stages"]["compile_cold_s"], app_id


def test_fast_path_beats_reference(small_bench):
    # deliberately loose (>1x) so CI machines can't flake; real numbers
    # live in BENCH_pipeline.json
    for app_id, r in small_bench["apps"].items():
        assert r["trace_to_cycles_speedup"] > 1.0, (
            app_id,
            r["trace_to_cycles_speedup"],
        )


def test_stencil_equivalence():
    # PAB-ST covered separately to keep the module fixture small
    r = bench_app("PAB-ST", scale="test", sample_groups=4)
    assert r["equivalence"] == "exact"


def test_smoke_sweep_covers_all_table_apps():
    """Every Table III app passes the tape-vs-reference trace diff."""
    smoke = bench_smoke(sample_groups=4)
    assert len(smoke["apps"]) == 11
    for app_id, entry in smoke["apps"].items():
        assert entry["equivalence"] == "exact", app_id


def test_committed_baseline_records_acceptance():
    """The committed bench-scale baseline must exist and show the >=5x
    trace->cycles speedup for transpose and matmul, plus the >=5x
    tape-backend launch+trace speedup for all three timed apps."""
    path = REPO_ROOT / "BENCH_pipeline.json"
    data = json.loads(path.read_text())
    assert data["schema"] == SCHEMA_VERSION
    for app_id in DEFAULT_APPS:
        assert app_id in data["apps"]
    for app_id in ("NVD-MT", "NVD-MM-B"):
        assert data["apps"][app_id]["trace_to_cycles_speedup"] >= 5.0
        assert data["apps"][app_id]["equivalence"] == "exact"
    for app_id in DEFAULT_APPS:
        assert data["apps"][app_id]["launch_trace_tape_speedup"] >= 5.0
        assert data["apps"][app_id]["exec_backend"] == "tape"
    assert len(data["smoke"]["apps"]) == 11


def test_app_id_validation_rejects_unknown_ids():
    from repro.perf.bench import validate_app_ids

    assert validate_app_ids(["NVD-MT", "PAB-ST"]) == ["NVD-MT", "PAB-ST"]
    with pytest.raises(ValueError) as exc:
        validate_app_ids(["NVD-MT", "NVD-TYPO"])
    assert "NVD-TYPO" in str(exc.value)
    assert "valid ids" in str(exc.value)
