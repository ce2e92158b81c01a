"""End-to-end tests of the Grover pass (Sections III-IV + VI-A)."""

import numpy as np
import pytest

from repro.core import (
    GroverPass,
    NotReversible,
    PatternMismatch,
    disable_local_memory,
)
from repro.core.dce import has_local_accesses
from repro.frontend import compile_kernel, compile_source
from repro.ir.instructions import Load, Store, is_barrier
from repro.ir.types import AddressSpace

from tests.conftest import (
    MM_SOURCE,
    MT_SOURCE,
    REDUCTION_SOURCE,
    execute_kernel,
)


def local_ops(fn):
    return [
        i
        for i in fn.instructions()
        if isinstance(i, (Load, Store)) and i.addrspace == AddressSpace.LOCAL
    ]


def barriers(fn):
    return [i for i in fn.instructions() if is_barrier(i)]


class TestMatrixTranspose:
    def test_full_removal(self):
        fn = compile_kernel(MT_SOURCE)
        report = disable_local_memory(fn)
        assert report.fully_disabled
        assert not fn.local_arrays
        assert not local_ops(fn)
        assert not barriers(fn)

    def test_report_solution_is_the_swap(self):
        fn = compile_kernel(MT_SOURCE)
        report = disable_local_memory(fn)
        (rec,) = report.records
        (ll,) = rec.lls
        assert ll.solution.render() == "lx = ly, ly = lx"

    def test_execution_equivalence(self):
        n = 64
        rng = np.random.default_rng(1)
        a = rng.random((n, n), dtype=np.float32)
        fn = compile_kernel(MT_SOURCE)
        disable_local_memory(fn)
        _, outs = execute_kernel(
            fn,
            {"in": a, "W": n, "H": n},
            (n, n),
            (16, 16),
            {"out": (np.float32, (n, n))},
        )
        np.testing.assert_array_equal(outs["out"], a.T)

    def test_barriers_kept_on_request(self):
        fn = compile_kernel(MT_SOURCE)
        disable_local_memory(fn, remove_barriers=False)
        assert barriers(fn)


class TestMatrixMulVariants:
    def _run_mm(self, fn, m=32, k=48, n=32):
        rng = np.random.default_rng(2)
        a = rng.random((m, k), dtype=np.float32)
        b = rng.random((k, n), dtype=np.float32)
        _, outs = execute_kernel(
            fn,
            {"A": a, "B": b, "wA": k, "wB": n},
            (n, m),
            (16, 16),
            {"C": (np.float32, (m, n))},
        )
        return outs["C"], a @ b

    @pytest.mark.parametrize(
        "arrays,removed,kept",
        [
            (["As"], "As", "Bs"),
            (["Bs"], "Bs", "As"),
            (None, None, None),
        ],
    )
    def test_selective_removal(self, arrays, removed, kept):
        fn = compile_kernel(MM_SOURCE)
        report = GroverPass(arrays=arrays).run(fn)
        names = {la.name for la in fn.local_arrays}
        if arrays is None:
            assert not names
            assert not barriers(fn)
        else:
            assert removed not in names
            assert kept in names
            assert barriers(fn), "barriers must stay while local memory remains"
        got, want = self._run_mm(fn)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_solution_uses_loop_counter(self):
        fn = compile_kernel(MM_SOURCE)
        report = GroverPass(arrays=["As"]).run(fn)
        (rec,) = report.transformed
        (ll,) = rec.lls
        # writer lx must equal the inner loop counter k
        assert "lx = k" in ll.solution.render()


class TestRejections:
    def test_reduction_pattern_mismatch(self):
        fn = compile_kernel(REDUCTION_SOURCE)
        with pytest.raises(PatternMismatch):
            disable_local_memory(fn)

    def test_reduction_allow_partial_records(self):
        fn = compile_kernel(REDUCTION_SOURCE)
        report = disable_local_memory(fn, allow_partial=True)
        assert not report.transformed
        assert report.rejected
        assert has_local_accesses(fn)  # untouched

    def test_kernel_without_local_memory(self):
        fn = compile_kernel(
            "__kernel void k(__global float* o) { o[get_global_id(0)] = 1.0f; }"
        )
        with pytest.raises(PatternMismatch, match="does not use local memory"):
            disable_local_memory(fn)

    def test_non_invertible_store_rejected(self):
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[64];
    int lx = get_local_id(0);
    lm[lx * 2] = in[get_global_id(0)];   /* strided store: not invertible */
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""
        fn = compile_kernel(src)
        with pytest.raises(NotReversible, match="integral|reversible|inconsistent"):
            disable_local_memory(fn)

    def test_coupled_store_rejected(self):
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[64];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    lm[lx + ly] = in[(int)get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx];
}
"""
        fn = compile_kernel(src)
        with pytest.raises(NotReversible):
            disable_local_memory(fn)

    def test_candidate_failing_on_a_later_load_is_left_untouched(self):
        # the first load solves (lx = li + 1), the second cannot (2 lx =
        # 2 li - 1): no load of the rejected array may be rewritten
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float keep[64];
    __local float t[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    keep[li] = in[gi];
    t[2 * li + 1] = in[gi];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gi] = keep[li] + t[2 * li + 3] + t[2 * li];
}
"""
        from repro.ir.printer import print_function

        fn = compile_kernel(src)
        report = disable_local_memory(fn, allow_partial=True)
        assert [r.name for r in report.transformed] == ["keep"]
        assert "inconsistent" in report.record("t").reason
        assert sum(isinstance(i, Load) for i in local_ops(fn)) == 2
        assert "nGL_t" not in print_function(fn)

    def test_non_kernel_rejected(self):
        from repro.core.grover import GroverError

        src = "__kernel void k(__global float* o) { o[0] = 1.0f; }"
        mod = compile_source(src + "\nfloat helper(float x) { return x; }")
        with pytest.raises(GroverError, match="not a kernel"):
            GroverPass().run(mod.functions["helper"])


class TestStructuralProperties:
    def test_verifier_passes_after_rewrite(self):
        from repro.ir.verifier import verify_function

        for src in (MT_SOURCE, MM_SOURCE):
            fn = compile_kernel(src)
            disable_local_memory(fn)
            verify_function(fn)

    def test_ngl_reads_global_memory(self):
        fn = compile_kernel(MT_SOURCE)
        disable_local_memory(fn)
        loads = [i for i in fn.instructions() if isinstance(i, Load)]
        global_loads = [l for l in loads if l.addrspace == AddressSpace.GLOBAL]
        assert global_loads

    def test_staging_code_erased(self):
        fn = compile_kernel(MT_SOURCE)
        before = sum(len(b.instructions) for b in fn.blocks)
        disable_local_memory(fn)
        after = sum(len(b.instructions) for b in fn.blocks)
        assert after < before  # net code shrink for MT (Fig. 1b)

    def test_report_str_contains_key_facts(self):
        fn = compile_kernel(MT_SOURCE)
        report = disable_local_memory(fn)
        text = str(report)
        assert "transpose" in text
        assert "[ok] lm" in text
        assert "GL =" in text

    def test_report_record_lookup(self):
        fn = compile_kernel(MM_SOURCE)
        report = GroverPass().run(fn)
        assert report.record("As").transformed
        with pytest.raises(KeyError):
            report.record("nope")


class TestGidBasedKernels:
    def test_global_id_substitution(self):
        """GL indexed by get_global_id: only its local part is replaced."""
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[16];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[15 - lx];
}
"""
        fn = compile_kernel(src)
        report = disable_local_memory(fn)
        assert report.fully_disabled
        data = np.arange(64, dtype=np.float32)
        _, outs = execute_kernel(
            fn, {"in": data}, (64,), (16,), {"out": (np.float32, (64,))}
        )
        expected = data.reshape(4, 16)[:, ::-1].ravel()
        np.testing.assert_array_equal(outs["out"], expected)


class TestSharedDataKernels:
    def test_group_independent_staging(self):
        """AMD-SS style: all groups stage the same block (group index 0)."""
        src = """
__kernel void k(__global float* out, __global const float* table)
{
    __local float lt[16];
    int lx = get_local_id(0);
    lt[lx] = table[lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    float acc = 0.0f;
    for (int j = 0; j < 16; ++j)
        acc += lt[j];
    out[get_global_id(0)] = acc;
}
"""
        fn = compile_kernel(src)
        report = disable_local_memory(fn)
        assert report.fully_disabled
        table = np.arange(16, dtype=np.float32)
        _, outs = execute_kernel(
            fn, {"table": table}, (32,), (16,), {"out": (np.float32, (32,))}
        )
        np.testing.assert_allclose(outs["out"], np.full(32, table.sum()))
