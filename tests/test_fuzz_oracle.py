"""The three-way differential oracle and the campaign runner.

Hand-written kernels with known verdicts check each cross-validation
rule individually (veto on decided races, divergence cross-check,
rejected-candidate explanations, transform semantics), fault injection
proves a real disagreement is detected/minimized/filed, and the
Grover-dominance regression the fuzzer itself found stays pinned.
"""

from __future__ import annotations

import os

from repro.core.grover import GroverPass
from repro.frontend import compile_kernel
from repro.fuzz import (
    FuzzOptions,
    generate_case,
    run_case,
    run_fuzz,
    run_source,
)
from repro.session import events

# ---------------------------------------------------------------------------
# per-rule checks on hand-written kernels
# ---------------------------------------------------------------------------

CLEAN_CACHE = r"""
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    int wi = get_group_id(0);
    float acc = 0.0f;
    lm0[li] = in[(wi * 16 + li)];
    barrier(CLK_LOCAL_MEM_FENCE);
    acc = (acc + lm0[(15 - li)]);
    out[gi] = acc;
}
"""

STATIC_RACE = r"""
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    float acc = 0.0f;
    lm0[0] = in[gi];
    barrier(CLK_LOCAL_MEM_FENCE);
    acc = (acc + lm0[0]);
    out[gi] = acc;
}
"""

DIVERGENT = r"""
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    float acc = 0.0f;
    lm0[li] = in[gi];
    if (li < 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    acc = (acc + lm0[li]);
    out[gi] = acc;
}
"""

NO_LOCAL = r"""
__kernel void fz(__global float* out, __global const float* in, int P)
{
    int gi = get_global_id(0);
    out[gi] = in[gi] + (float)P;
}
"""

# the minimized kernel the fuzzer found (seed 3, case 7): the staging
# store's GL index uses the loop counter k1, which is not available at
# the (earlier) local load — the pass used to emit invalid IR for it
GL_NOT_AVAILABLE = r"""
__kernel void fz(__global float* out, __global const float* in, int P)
{
    __local float lm0[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    float acc = 0.0f;
    acc = (acc + lm0[(2 * li + 22)]);
    for (int k1 = 0; k1 < 2; ++k1) {
        lm0[(22 - li)] = in[(gi + k1 * 32)];
    }
    out[gi] = acc;
}
"""


def _judge(source, global_size=(32,), local_size=(16,)):
    return run_source(source, "fz", global_size, local_size, 256, 2)


def test_clean_cache_transforms_and_output_checked():
    out = _judge(CLEAN_CACHE)
    assert out.agreed, [m.render() for m in out.mismatches]
    assert out.exec_outcome == "ok"
    assert out.analyzer == "clean"
    assert out.grover == "t1r0"
    assert out.cycles > 0


def test_decided_race_is_vetoed():
    out = _judge(STATIC_RACE)
    assert out.agreed, [m.render() for m in out.mismatches]
    assert out.analyzer.startswith("race")
    assert out.grover == "veto"
    assert any("veto-confirmed" in e for e in out.explanations)


def test_divergent_barrier_consistent_across_arbiters():
    out = _judge(DIVERGENT)
    assert out.agreed, [m.render() for m in out.mismatches]
    assert out.exec_outcome == "error:BarrierDivergenceError"
    assert out.grover == "veto"


def test_no_local_kernel_is_named_not_mismatched():
    out = _judge(NO_LOCAL)
    assert out.agreed
    assert out.grover == "no-local"


def test_grover_rejects_unavailable_gl_index_instead_of_invalid_ir():
    kernel = compile_kernel(GL_NOT_AVAILABLE)
    report = GroverPass(allow_partial=True).run(kernel)
    assert len(report.transformed) == 0
    assert len(report.rejected) == 1
    assert "not available" in report.rejected[0].reason
    # and the full oracle agrees end to end (rejected-deferred/structural
    # explanation, no verifier crash)
    out = _judge(GL_NOT_AVAILABLE)
    assert out.agreed, [m.render() for m in out.mismatches]
    assert out.grover.startswith("t0r")
    assert any("rejected-" in e for e in out.explanations)


def test_rejections_always_carry_an_explanation():
    for index in range(30):
        case = generate_case(5, index)
        out = run_case(case)
        assert out.agreed
        n_rejected = (
            int(out.grover.partition("r")[2]) if out.grover.startswith("t") else 0
        )
        explained = [e for e in out.explanations if e.startswith("rejected-")]
        assert len(explained) == n_rejected


# ---------------------------------------------------------------------------
# fault injection: the mismatch path end to end
# ---------------------------------------------------------------------------


def test_injected_fault_is_detected_minimized_and_filed(tmp_path):
    out_dir = str(tmp_path / "repros")
    with events.collect() as sink:
        run = run_fuzz(
            FuzzOptions(
                seed=7, count=3, minimize=True, corrupt="tape",
                out_dir=out_dir,
            )
        )
    # the corruption hits output buffers, so exactly the cases that
    # execute (a BarrierDivergenceError case has no outputs to corrupt)
    ok_cases = [r for r in run.results if r.outcome.exec_outcome == "ok"]
    assert ok_cases
    assert run.mismatching == ok_cases
    assert all(
        m.check == "exec-diff"
        for r in run.mismatching
        for m in r.outcome.mismatches
    )
    # one reproducer file per mismatch, containing the minimized kernel
    assert len(run.reproducers) == len(ok_cases)
    for path in run.reproducers:
        assert os.path.exists(path)
        text = open(path).read()
        assert "fuzz reproducer" in text and "exec-diff" in text
        assert "(minimized)" in text
    # the event stream names every case and every mismatch
    kinds = sink.kinds()
    assert kinds.count("fuzz_case") == 3
    assert kinds.count("fuzz_mismatch") >= len(ok_cases)
    assert kinds[-1] == "fuzz_end"
    end = sink.of_kind("fuzz_end")[0].payload
    assert end["cases"] == 3 and end["mismatches"] == len(ok_cases)
    for e in sink.of_kind("fuzz_case"):
        events.validate_event(e.kind, e.payload)


def test_clean_campaign_emits_agreeing_events(tmp_path):
    with events.collect() as sink:
        run = run_fuzz(
            FuzzOptions(seed=7, count=4, out_dir=str(tmp_path / "r"))
        )
    assert not run.mismatching
    assert run.reproducers == []
    cases = sink.of_kind("fuzz_case")
    assert [e.payload["index"] for e in cases] == [0, 1, 2, 3]
    assert all(e.payload["outcome"] == "agree" for e in cases)
    assert sink.of_kind("fuzz_mismatch") == []


def test_promotion_dedupes_by_shape(tmp_path):
    corpus = str(tmp_path / "corpus")
    opts = FuzzOptions(
        seed=7, count=10, promote=True, corpus_dir=corpus,
        out_dir=str(tmp_path / "r"),
    )
    first = run_fuzz(opts)
    assert first.promoted
    # a second identical campaign finds no new shapes
    second = run_fuzz(opts)
    assert second.promoted == []


def test_cli_exit_codes(tmp_path):
    from repro.fuzz.runner import main

    assert (
        main(["--seed", "7", "--count", "2", "--out", str(tmp_path / "a")])
        == 0
    )
    assert (
        main(
            ["--seed", "7", "--count", "2", "--inject-fault", "tape",
             "--out", str(tmp_path / "b")]
        )
        == 1
    )


def test_campaign_under_sharded_workers(tmp_path):
    """The pool fan-out path: results arrive complete and in order."""
    run = run_fuzz(
        FuzzOptions(seed=11, count=6, workers=2, out_dir=str(tmp_path / "r"))
    )
    assert [r.index for r in run.results] == list(range(6))
    assert not run.mismatching
