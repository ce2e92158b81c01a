"""Coverage for report objects, the app harness, and small API surfaces."""

import pytest

from repro.apps.harness import AppRun, compile_app, run_app
from repro.apps.registry import get_app
from repro.core import GroverPass, disable_local_memory
from repro.core.grover import GroverReport
from repro.frontend import compile_kernel

from tests.conftest import MT_SOURCE, REDUCTION_SOURCE


class TestGroverReportAPI:
    def test_fully_disabled_false_when_rejected(self):
        fn = compile_kernel(REDUCTION_SOURCE)
        report = disable_local_memory(fn, allow_partial=True)
        assert not report.fully_disabled
        assert report.rejected and not report.transformed

    def test_fully_disabled_false_on_empty(self):
        assert not GroverReport("k").fully_disabled

    def test_ll_record_render(self):
        fn = compile_kernel(MT_SOURCE)
        report = disable_local_memory(fn)
        (rec,) = report.records
        text = rec.lls[0].render()
        assert "LL=" in text and "sol[" in text and "nGL=" in text

    def test_report_str_shows_rejections(self):
        fn = compile_kernel(REDUCTION_SOURCE)
        report = disable_local_memory(fn, allow_partial=True)
        assert "[--] sm" in str(report)

    def test_mixed_kernel_partial(self):
        """One reversible and one unreversible array in a single kernel."""
        src = """
__kernel void mixed(__global float* out, __global const float* in)
{
    __local float ok[16];
    __local float scratch[16];
    int lx = get_local_id(0);
    ok[lx] = in[get_global_id(0)];
    scratch[lx] = in[get_global_id(0)] * 2.0f;  /* computed: rejected */
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = ok[15 - lx] + scratch[lx];
}
"""
        fn = compile_kernel(src)
        report = disable_local_memory(fn, allow_partial=True)
        assert {r.status for r in report.records} == {"transformed", "rejected"}
        # the rejected array must survive untouched
        assert [la.name for la in fn.local_arrays] == ["scratch"]
        # the barrier must stay: scratch still uses local memory
        from repro.ir.instructions import is_barrier

        assert any(is_barrier(i) for i in fn.instructions())


class TestAppHarness:
    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            compile_app(get_app("NVD-MT"), "sideways")

    def test_run_app_returns_outputs_and_report(self):
        run = run_app(get_app("NVD-MT"), "without", "test")
        assert isinstance(run, AppRun)
        assert run.report is not None and run.report.fully_disabled
        assert "out" in run.outputs
        assert run.trace is None  # not requested

    def test_run_app_with_trace(self):
        run = run_app(get_app("AMD-SS"), "with", "test", collect_trace=True)
        assert run.trace is not None
        assert run.trace.sampled_groups == run.trace.total_groups

    def test_grover_kwargs_forwarded(self):
        run = run_app(get_app("NVD-MM-AB"), "without", "test",
                      remove_barriers=False)
        from repro.apps.harness import compile_app as ca

        kernel, report = ca(get_app("NVD-MM-AB"), "without", remove_barriers=False)
        from repro.ir.instructions import is_barrier

        assert any(is_barrier(i) for i in kernel.instructions())


class TestQualifierEdgeCases:
    def test_bare_kernel_keyword(self):
        src = "kernel void k(__global float* o) { o[get_global_id(0)] = 1.0f; }"
        fn = compile_kernel(src)
        assert fn.is_kernel

    def test_constant_qualified_pointer(self):
        src = """
__kernel void k(__global float* o, __constant float* w)
{
    o[get_global_id(0)] = w[0];
}
"""
        fn = compile_kernel(src)
        assert fn is not None

    def test_constant_space_load_accepted_as_gl(self):
        """Staging from __constant memory is still the GL of the pattern."""
        src = """
__kernel void k(__global float* o, __constant float* w)
{
    __local float lm[16];
    int lx = get_local_id(0);
    lm[lx] = w[lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    o[get_global_id(0)] = lm[15 - lx];
}
"""
        fn = compile_kernel(src)
        report = disable_local_memory(fn)
        assert report.fully_disabled


class TestModuleLevelAPI:
    def test_top_level_exports(self):
        import repro

        assert callable(repro.compile_kernel)
        assert callable(repro.disable_local_memory)
        assert repro.__version__

    def test_grover_pass_defaults(self):
        p = GroverPass()
        assert p.arrays is None
        assert p.reuse_subexprs and p.remove_barriers
        assert not p.strict_patterns and not p.allow_partial
