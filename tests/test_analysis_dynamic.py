"""Dynamic trace replay: the analyzer's fallback arbiter.

Kernels whose indices the static analysis cannot decide (guards,
argument-dependent offsets) are replayed from the interpreter's
``GroupTrace``; the replay is exact for the traced input and promotes
statically-undecided pairs to decided when the trace covers every group.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import analyze_kernel, analyze_source, replay_trace
from repro.frontend import compile_kernel
from repro.runtime import Memory, launch


def _trace(src, gsize, lsize, scalars=None, nbytes=None):
    kernel = compile_kernel(src)
    mem = Memory()
    n = nbytes or int(np.prod(gsize)) * 16
    args = {}
    for a in kernel.args:
        if a.type.__class__.__name__ == "PointerType":
            buf = mem.alloc(n, a.name)
            buf.data[:] = (np.arange(n) % 251).astype(np.uint8)
            args[a.name] = buf
        else:
            args[a.name] = (scalars or {})[a.name]
    res = launch(kernel, gsize, lsize, args, memory=mem, collect_trace=True)
    return kernel, res.trace


class TestReplayFindings:
    def test_guarded_ww_race_found_dynamically(self):
        # every lane stores lm[lx]; lane 0 additionally stores lm[1],
        # colliding with lane 1 — the guard hides it from the statics
        src = """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[64];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    if (lx == 0) lm[1] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""
        kernel, trace = _trace(src, (64,), (64,))
        report = replay_trace(trace, kernel=kernel)
        ww = [f for f in report.findings if f.kind == "race-ww"]
        assert ww and all(f.decided_by == "dynamic" for f in ww)
        assert ww[0].obj == "lm"
        assert ww[0].group_id is not None

    def test_rw_race_in_same_phase(self):
        src = """
__kernel void k(__global int* out) {
    __local int lm[64];
    int lx = get_local_id(0);
    lm[lx] = lx;
    out[get_global_id(0)] = lm[63 - lx];
}
"""
        kernel, trace = _trace(src, (64,), (64,), nbytes=64 * 4)
        report = replay_trace(trace, kernel=kernel)
        assert any(f.kind == "race-rw" for f in report.findings)

    def test_uninit_local_read_flagged(self):
        # odd slots are never written; reading them breaks reversibility
        src = """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[128];
    int lx = get_local_id(0);
    lm[2*lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""
        kernel, trace = _trace(src, (64,), (64,))
        report = replay_trace(trace, kernel=kernel)
        assert any(f.kind == "uninit-read" for f in report.findings)

    def test_clean_kernel_has_no_dynamic_findings(self):
        src = """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[64];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[63 - lx];
}
"""
        kernel, trace = _trace(src, (256,), (64,))
        report = replay_trace(trace, kernel=kernel)
        assert not report.findings

    def test_barrier_separates_writer_and_reader(self):
        # same byte touched by different lanes in *different* phases:
        # the replay must reset its phase maps at the barrier
        src = """
__kernel void k(__global int* out) {
    __local int lm[64];
    int lx = get_local_id(0);
    lm[lx] = lx;
    barrier(CLK_LOCAL_MEM_FENCE);
    int v = lm[(lx + 1) % 64];
    barrier(CLK_LOCAL_MEM_FENCE);
    lm[(lx + 7) % 64] = v;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""
        kernel, trace = _trace(src, (64,), (64,), nbytes=64 * 4)
        report = replay_trace(trace, kernel=kernel)
        assert not [f for f in report.findings if f.kind.startswith("race")]


class TestApplyReplay:
    UNDECIDABLE = """
__kernel void k(__global float* out, __global const float* in, int H) {
    __local float lm[128];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    lm[lx + H] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""

    def test_full_trace_promotes_undecided_pairs(self):
        report = analyze_source(
            self.UNDECIDABLE,
            global_size=(256,),
            local_size=(64,),
            scalar_args={"H": 64},
        )
        assert report.replayed
        assert report.pairs_undecided == 0
        assert report.pairs_dynamic > 0
        assert report.verdict == "clean"

    def test_static_only_stays_undecided(self):
        report = analyze_source(
            self.UNDECIDABLE,
            global_size=(256,),
            local_size=(64,),
            scalar_args={"H": 64},
            execute=False,
        )
        assert not report.replayed
        assert report.pairs_undecided > 0
        assert report.verdict == "undecided"

    def test_colliding_argument_value_is_caught(self):
        # H = 0 makes the two stores collide on every byte... same lane.
        # H = 1 shifts by one lane: neighbouring lanes collide.
        report = analyze_source(
            self.UNDECIDABLE,
            global_size=(256,),
            local_size=(64,),
            scalar_args={"H": 1},
        )
        assert report.verdict == "race"
        assert any(f.decided_by == "dynamic" for f in report.races)

    def test_sampled_trace_keeps_pairs_undecided(self):
        kernel = compile_kernel(self.UNDECIDABLE)
        mem = Memory()
        n = 256 * 16
        args = {}
        for a in kernel.args:
            if a.name == "H":
                args[a.name] = 64
            else:
                buf = mem.alloc(n, a.name)
                args[a.name] = buf
        res = launch(
            kernel, (256,), (64,), args, memory=mem,
            collect_trace=True, sample_groups=2,
        )
        from repro.analysis import apply_replay

        report = analyze_kernel(kernel, (64,))
        before = report.pairs_undecided
        assert before > 0
        apply_replay(report, res.trace, kernel)
        assert not report.replayed
        assert report.pairs_undecided == before  # sampling is not proof


class TestFactsDerivedOnce:
    GUARDED = """
__kernel void k(__global float* out, __global const float* in) {
    __local float lm[64];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    if (lx == 0) lm[1] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""

    def test_one_analysis_derives_each_fact_once(self, monkeypatch):
        """Static stages and the replay of every group share one set of
        accesses, phase regions and uniformity facts."""
        from repro.analysis import divergence, races

        calls = {}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(races, "collect_accesses")
        counted(races, "phase_regions")
        counted(divergence, "uniform_analysis")
        kernel, trace = _trace(self.GUARDED, (256,), (64,))
        assert len(trace.groups) == 4
        report = analyze_kernel(kernel, (64,), trace)
        assert report.replayed and report.verdict == "race"
        assert report.barriers == 1
        assert calls == {"collect_accesses": 1, "phase_regions": 1, "uniform_analysis": 1}
