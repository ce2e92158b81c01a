"""Auto-tuning matrix multiplication across platforms (paper Section I).

The paper's pitch: the performance effect of local memory is
unpredictable, so generate both kernel versions with Grover, measure,
and keep the winner *per platform*.  That is a depth-1 search over the
one ``grover`` rule: :func:`~repro.apps.registry.kernel_app` wraps the
kernel and its data in an app, and :func:`~repro.search.run_search`
prices the original and the Grover variant on each device's model.  A
winner ships only after the race analyzer and the reference-vs-tape
differential run accept it.

This example tunes the NVIDIA-SDK-style tiled matmul on the three
cache-only platforms of the evaluation (SNB, Nehalem, MIC) and one GPU
(Fermi).  The ``grover`` rule removes every tile it can invert, here
both ``As`` and ``Bs``.  The sizes are small because every winner is
verified on the full grid with the reference interpreter.

Run:  python examples/autotune_matmul.py
"""

import numpy as np

from repro.apps.registry import Problem, kernel_app
from repro.reporting import ascii_table
from repro.search import SearchOptions, run_search

KERNEL = r"""
#define BS 16
__kernel void matrixMul(__global float* C, __global float* A,
                        __global float* B, int wA, int wB)
{
    __local float As[BS*BS];
    __local float Bs[BS*BS];
    int tx = get_local_id(0);
    int ty = get_local_id(1);
    float acc = 0.0f;
    for (int t = 0; t < wA / BS; ++t) {
        As[ty*BS + tx] = A[(get_group_id(1)*BS + ty)*wA + (t*BS + tx)];
        Bs[ty*BS + tx] = B[(t*BS + ty)*wB + (get_group_id(0)*BS + tx)];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < BS; ++k)
            acc += As[ty*BS + k] * Bs[k*BS + tx];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C[get_global_id(1)*wB + get_global_id(0)] = acc;
}
"""


def main():
    m, k, n = 32, 64, 128
    rng = np.random.default_rng(5)
    a = rng.random((m, k), dtype=np.float32)
    b = rng.random((k, n), dtype=np.float32)
    problem = Problem(
        global_size=(n, m),
        local_size=(16, 16),
        inputs={"A": a, "B": b, "wA": k, "wB": n},
        expected={"C": a @ b},
    )
    app = kernel_app(KERNEL, problem)

    rows = []
    for device in ("SNB", "Nehalem", "MIC", "Fermi"):
        options = SearchOptions(apps=(app,), rules=("grover",), depth=1,
                                device=device)
        (result,) = run_search(options).results
        (variant,) = result.candidates
        rows.append(
            [
                device,
                "without" if result.winner.pipeline else "with",
                f"{result.baseline.cycles / variant.cycles:.3f}",
                f"{result.baseline.cycles:,.0f}",
                f"{variant.cycles:,.0f}",
                "yes" if result.verified else "NO",
            ]
        )

    print(
        ascii_table(
            ["device", "best version", "np (no-local/with-local)",
             "cycles with", "cycles without", "verified"],
            rows,
            title="auto-tuning tiled matmul: remove the local tiles?",
        )
    )
    print("\nnp > 1 means the Grover-transformed (no local memory) kernel wins.")


if __name__ == "__main__":
    main()
