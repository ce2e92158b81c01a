"""The differential Grover arbiter: analyzer vs solver on every app.

ISSUE-4 acceptance: across all 11 registered applications the analyzer
must report every Grover-transformed kernel race-free post-transform,
and must independently flag the irreversible access on every kernel
Grover rejects.  The apps all transform, so the rejected direction is
exercised with synthetic kernels spanning the three rejection shapes
(singular map, non-integral inverse, computed staging) plus the
adversarial example kernels under ``examples/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.apps  # noqa: F401  (registers the 11 apps)
from repro.analysis import RaceDetected, analyze_kernel, analyze_source, differential_check
from repro.apps.registry import all_apps
from repro.core import GroverPass
from repro.frontend import compile_kernel
from repro.session import Session, events

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.id)
def test_differential_contract_holds_per_app(app):
    result = differential_check(app)
    assert result.ok, result.problems
    assert result.transformed  # every app transforms at least one array
    assert result.post is not None and result.post.verdict == "clean"
    assert result.pre is not None and result.pre.verdict == "clean"


# ---------------------------------------------------------------------------
# the rejected direction: Grover refuses AND the analyzer flags 'lm'
# ---------------------------------------------------------------------------

REJECTED_KERNELS = {
    # non-injective store map: two work-items share a local slot
    "singular": (
        """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[64];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    lm[lx + ly] = in[get_global_id(1)*32 + get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(1)*32 + get_global_id(0)] = lm[lx + ly];
}
""",
        (32, 32),
        (8, 8),
        "race",
    ),
    # stride-2 store, stride-1 load: odd slots are never staged
    "nonintegral": (
        """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[128];
    int lx = get_local_id(0);
    lm[2*lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
""",
        (256,),
        (64,),
        "irreversible",
    ),
    # computed value staged: no global address to redirect the load to
    "computed": (
        """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[64];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)] * 2.0f + 1.0f;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
""",
        (256,),
        (64,),
        "irreversible",
    ),
}


@pytest.mark.parametrize(
    "name", sorted(REJECTED_KERNELS), ids=sorted(REJECTED_KERNELS)
)
def test_rejected_kernels_are_flagged_by_both_arbiters(name):
    src, gsize, lsize, verdict = REJECTED_KERNELS[name]
    kernel = compile_kernel(src)
    report = GroverPass(allow_partial=True).run(kernel)
    assert [r.name for r in report.rejected] == ["lm"]

    analysis = analyze_source(src, global_size=gsize, local_size=lsize)
    assert analysis.verdict == verdict
    assert analysis.findings_on("lm"), "the rejected array carries a finding"


# ---------------------------------------------------------------------------
# the adversarial example kernels (also pinned by CI's golden file)
# ---------------------------------------------------------------------------


def test_racy_halo_example_fools_grover_but_not_the_analyzer():
    src = (EXAMPLES / "racy_halo.cl").read_text()
    kernel = compile_kernel(src)
    # each store's index map is individually invertible, so the Eq. 3
    # solver accepts — the kernel's race makes it undefined, which is
    # exactly what the independent arbiter exists to catch
    report = GroverPass(allow_partial=True).run(kernel)
    assert [r.name for r in report.transformed] == ["lm"]

    analysis = analyze_source(src, global_size=(256,), local_size=(64,))
    assert analysis.verdict == "race"
    assert any(f.kind == "race-ww" and f.decided_by == "static"
               for f in analysis.findings)


def test_divergent_barrier_example_flagged_statically_and_dynamically():
    src = (EXAMPLES / "divergent_barrier.cl").read_text()
    analysis = analyze_source(src, global_size=(256,), local_size=(64,))
    assert analysis.verdict == "divergent"
    decided = {f.decided_by for f in analysis.divergences}
    assert decided == {"static", "dynamic"}
    dynamic = next(f for f in analysis.divergences if f.decided_by == "dynamic")
    assert dynamic.group_id is not None


# ---------------------------------------------------------------------------
# the Session veto gate (REPRO_ANALYZE / Session(analyze=True))
# ---------------------------------------------------------------------------


def test_session_analyze_gate_vetoes_racy_transform():
    src = (EXAMPLES / "racy_halo.cl").read_text()
    s = Session(env={}, analyze=True)
    kernel = s.compile_kernel(src)
    with pytest.raises(RaceDetected, match="race-ww on local 'lm'"):
        s.disable_local_memory(kernel, local_size=(64,))


def test_session_analyze_gate_passes_clean_kernels():
    src = (EXAMPLES / "transpose.cl").read_text()
    s = Session(env={}, analyze=True)
    kernel = s.compile_kernel(src)
    report = s.disable_local_memory(kernel, local_size=(16, 16))
    assert [r.name for r in report.transformed] == ["lm"]


def test_gate_off_by_default():
    src = (EXAMPLES / "racy_halo.cl").read_text()
    s = Session(env={})
    kernel = s.compile_kernel(src)
    report = s.disable_local_memory(kernel, local_size=(64,))  # no veto
    assert [r.name for r in report.transformed] == ["lm"]


# ---------------------------------------------------------------------------
# events and passes integration
# ---------------------------------------------------------------------------


def test_analysis_events_are_emitted_and_schema_valid():
    src = (EXAMPLES / "racy_halo.cl").read_text()
    with events.collect() as sink:
        analyze_source(src, global_size=(256,), local_size=(64,))
    kinds = sink.kinds()
    assert "analysis_start" in kinds
    assert "analysis_finding" in kinds
    assert kinds[-1] == "analysis_end"
    end = sink.of_kind("analysis_end")[-1]
    assert end.payload["verdict"] == "race"
    finding = sink.of_kind("analysis_finding")[0]
    assert finding.payload["finding"] == "race-ww"
    assert finding.payload["object"] == "lm"


def test_golden_summary_has_not_drifted(capsys):
    """The checked-in CI golden: 22 app rows + 2 adversarial kernels."""
    from repro.analysis.cli import main as analyze_main

    golden = Path(__file__).resolve().parent / "golden" / "analyze.txt"
    rc = analyze_main([
        "--all-apps", "--variant", "both",
        str(EXAMPLES / "racy_halo.cl"),
        str(EXAMPLES / "divergent_barrier.cl"),
        "--global-size", "256", "--local-size", "64",
        "--golden", str(golden),
    ])
    out = capsys.readouterr().out
    assert rc == 0, f"golden drift:\n{out}"
    rows = [ln for ln in out.splitlines() if "verdict=" in ln]
    assert len(rows) == 26


@pytest.mark.parametrize("how", ["flag", "env"])
def test_golden_update_rules(tmp_path, capsys, monkeypatch, how):
    """``analyze --golden`` follows the rules ``search --golden`` does:
    ``--update-golden`` or ``$REPRO_UPDATE_GOLDEN=1`` rewrites the file,
    a plain run then matches it, and drift exits 1."""
    from repro.analysis.cli import main as analyze_main

    golden = tmp_path / "analyze.txt"
    golden.write_text("stale\n")
    argv = [str(EXAMPLES / "divergent_barrier.cl"), "--static-only",
            "--golden", str(golden)]
    assert analyze_main(argv) == 1
    assert "drifted" in capsys.readouterr().err
    if how == "flag":
        assert analyze_main(argv + ["--update-golden"]) == 0
    else:
        monkeypatch.setenv("REPRO_UPDATE_GOLDEN", "1")
        assert analyze_main(argv) == 0
        monkeypatch.delenv("REPRO_UPDATE_GOLDEN")
    assert "# golden updated" in capsys.readouterr().out
    assert "verdict=divergent" in golden.read_text()
    assert analyze_main(argv) == 0
    assert "# golden ok" in capsys.readouterr().out


def test_update_golden_needs_a_golden_file(capsys):
    from repro.analysis.cli import main as analyze_main

    with pytest.raises(SystemExit) as exc:
        analyze_main([str(EXAMPLES / "divergent_barrier.cl"), "--update-golden"])
    assert exc.value.code == 2
    assert "--update-golden requires --golden FILE" in capsys.readouterr().err


def test_analyzer_finding_counts_via_analyze_kernel():
    """The static analyzer finds the one divergent barrier of the
    example and no race, and leaves the IR as it was."""
    from repro.ir.printer import print_function

    src = (EXAMPLES / "divergent_barrier.cl").read_text()
    kernel = compile_kernel(src)
    before = print_function(kernel)
    report = analyze_kernel(kernel)
    kinds = [f.kind for f in report.findings]
    assert kinds.count("barrier-divergence") == 1
    assert not [k for k in kinds if k.startswith("race")]
    assert print_function(kernel) == before
