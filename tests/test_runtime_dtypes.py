"""Datatype coverage: doubles, small integers, unsigned, mixed widths."""

import numpy as np

from tests.conftest import run_scalar_kernel


class TestDoubles:
    def test_double_arithmetic(self):
        src = """
__kernel void d(__global double* out, __global const double* in)
{
    int gid = get_global_id(0);
    double x = in[gid];
    out[gid] = x * 3.0 + 0.5;
}
"""
        data = np.linspace(0, 1, 16).astype(np.float64)
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.float64, (16,))}
        )
        np.testing.assert_allclose(outs["out"], data * 3 + 0.5, rtol=1e-12)

    def test_double_precision_beyond_float(self):
        src = """
__kernel void d(__global double* out)
{
    int gid = get_global_id(0);
    double tiny = 1.0e-12;
    out[gid] = 1.0 + tiny * (double)gid;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.float64, (8,))})
        assert outs["out"][4] != outs["out"][0]  # would collapse in float32

    def test_float_double_conversion(self):
        src = """
__kernel void d(__global double* out, __global const float* in)
{
    int gid = get_global_id(0);
    out[gid] = (double)in[gid] + 1.0;
}
"""
        data = np.arange(8, dtype=np.float32)
        _, outs = run_scalar_kernel(
            src, {"in": data}, (8,), (8,), {"out": (np.float64, (8,))}
        )
        np.testing.assert_allclose(outs["out"], data.astype(np.float64) + 1)

    def test_grover_on_double_kernel(self):
        from repro.core import disable_local_memory
        from repro.frontend import compile_kernel
        from tests.conftest import execute_kernel

        src = """
__kernel void d(__global double* out, __global const double* in)
{
    __local double lm[16];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[15 - lx];
}
"""
        fn = compile_kernel(src)
        report = disable_local_memory(fn)
        assert report.fully_disabled
        data = np.arange(32, dtype=np.float64)
        _, outs = execute_kernel(
            fn, {"in": data}, (32,), (16,), {"out": (np.float64, (32,))}
        )
        expected = data.reshape(2, 16)[:, ::-1].ravel()
        np.testing.assert_array_equal(outs["out"], expected)


class TestSmallIntegers:
    def test_uchar_roundtrip(self):
        src = """
__kernel void c(__global uchar* out, __global const uchar* in)
{
    int gid = get_global_id(0);
    uchar v = in[gid];
    out[gid] = v + 10;
}
"""
        data = np.arange(250, 250 + 16, dtype=np.uint8)  # wraps past 255
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.uint8, (16,))}
        )
        np.testing.assert_array_equal(outs["out"], (data + 10))

    def test_short_promotion(self):
        src = """
__kernel void s(__global int* out, __global const short* in)
{
    int gid = get_global_id(0);
    short a = in[gid];
    out[gid] = a * 1000;   /* promoted to int: no i16 overflow */
}
"""
        data = np.arange(-8, 8, dtype=np.int16) * 100
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.int32, (16,))}
        )
        np.testing.assert_array_equal(outs["out"], data.astype(np.int32) * 1000)

    def test_unsigned_wraparound(self):
        src = """
__kernel void u(__global uint* out)
{
    uint gid = (uint)get_global_id(0);
    out[gid] = gid - 5u;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.uint32, (8,))})
        expected = (np.arange(8, dtype=np.uint32) - np.uint32(5))
        np.testing.assert_array_equal(outs["out"], expected)

    def test_long_arithmetic(self):
        src = """
__kernel void l(__global long* out)
{
    long gid = (long)get_global_id(0);
    out[gid] = gid * 10000000000;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int64, (8,))})
        np.testing.assert_array_equal(
            outs["out"], np.arange(8, dtype=np.int64) * 10**10
        )


class TestMixedWidthIndexing:
    def test_size_t_index(self):
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    size_t gid = get_global_id(0);
    out[gid] = in[gid];
}
"""
        data = np.arange(16, dtype=np.float32)
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.float32, (16,))}
        )
        np.testing.assert_array_equal(outs["out"], data)

    def test_uint_times_int_index(self):
        src = """
__kernel void t(__global float* out, __global const float* in, uint stride)
{
    int gid = get_global_id(0);
    out[gid] = in[gid * stride];
}
"""
        data = np.arange(64, dtype=np.float32)
        _, outs = run_scalar_kernel(
            src, {"in": data, "stride": 4}, (16,), (16,),
            {"out": (np.float32, (16,))},
        )
        np.testing.assert_array_equal(outs["out"], data[::4])
