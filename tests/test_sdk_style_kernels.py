"""Kernels written the way the real SDKs write them — macro-heavy.

The NVIDIA SDK oclMatrixMul kernel addresses its flat local tiles
through ``AS(i, j)`` / ``BS(i, j)`` function-like macros; this file
checks the whole pipeline (preprocessor -> Grover -> runtime) on that
authentic source shape.
"""

import numpy as np

from repro.core import GroverPass, disable_local_memory
from repro.frontend import compile_kernel

from tests.conftest import execute_kernel

SDK_MM = r"""
#define BLOCK_SIZE 16
#define AS(i, j) As[(i)*BLOCK_SIZE + (j)]
#define BS(i, j) Bs[(i)*BLOCK_SIZE + (j)]

__kernel void matrixMul(__global float* C, __global float* A,
                        __global float* B, int uiWA, int uiWB)
{
    __local float As[BLOCK_SIZE * BLOCK_SIZE];
    __local float Bs[BLOCK_SIZE * BLOCK_SIZE];

    int bx = get_group_id(0);
    int by = get_group_id(1);
    int tx = get_local_id(0);
    int ty = get_local_id(1);

    int aBegin = uiWA * BLOCK_SIZE * by;
    int aStep  = BLOCK_SIZE;
    int bBegin = BLOCK_SIZE * bx;
    int bStep  = BLOCK_SIZE * uiWB;

    float Csub = 0.0f;
    int b = bBegin;
    for (int a = aBegin; a < aBegin + uiWA; a += aStep) {
        AS(ty, tx) = A[a + uiWA * ty + tx];
        BS(ty, tx) = B[b + uiWB * ty + tx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < BLOCK_SIZE; ++k)
            Csub += AS(ty, k) * BS(k, tx);
        barrier(CLK_LOCAL_MEM_FENCE);
        b += bStep;
    }
    C[get_global_id(1) * uiWB + get_global_id(0)] = Csub;
}
"""


def run_mm(fn, m=32, k=48, n=32):
    rng = np.random.default_rng(8)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    _, outs = execute_kernel(
        fn,
        {"A": a, "B": b, "uiWA": k, "uiWB": n},
        (n, m),
        (16, 16),
        {"C": (np.float32, (m, n))},
    )
    return outs["C"], a @ b


class TestSDKMatrixMul:
    def test_compiles_and_runs(self):
        fn = compile_kernel(SDK_MM)
        got, want = run_mm(fn)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_grover_reverses_macro_indices(self):
        """The macro-flattened tile indices solve like the explicit ones.

        Note the GL indices here use *mutable pointer-walk variables*
        (``a``/``b`` accumulate strides across the tile loop) — a
        different authoring style than our apps' closed-form indices,
        which Grover handles through its loop-variable leaves.
        """
        fn = compile_kernel(SDK_MM)
        report = disable_local_memory(fn)
        assert report.fully_disabled
        assert not fn.local_arrays
        sols = {
            (rec.name,): {ll.solution.render() for ll in rec.lls}
            for rec in report.records
        }
        assert any("lx = k" in s for s in sols[("As",)])
        assert any("ly = k" in s for s in sols[("Bs",)])
        got, want = run_mm(fn)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    def test_selective_removal_on_sdk_source(self):
        for arrays, removed in ((["As"], "As"), (["Bs"], "Bs")):
            fn = compile_kernel(SDK_MM)
            GroverPass(arrays=arrays).run(fn)
            names = {la.name for la in fn.local_arrays}
            assert removed not in names and len(names) == 1
            got, want = run_mm(fn)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
