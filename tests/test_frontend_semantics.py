"""Semantic tests: compile mini-kernels and check C semantics by execution.

These tests are the arithmetic oracle of the runtime: each value is
checked against C's rules computed in Python, not against the other
backend.  The edge cases (:func:`run1d_each`) also run as two
work-groups on the reference interpreter and on the tape backend.
"""

import numpy as np
import pytest

from repro.session import Session
from tests.conftest import execute_kernel, run_scalar_kernel

BACKENDS = ("reference", "tape")


def run1d(body, inputs=None, n=16, out_dtype=np.int32, params="", backend=None):
    """Run a kernel writing out[gid]; returns the out array.

    With ``backend`` unset the kernel runs as one work-group; with a
    backend named it runs as two work-groups on that backend."""
    ctype = {
        np.int32: "int",
        np.uint32: "uint",
        np.float32: "float",
        np.int64: "long",
    }[out_dtype]
    extra = f", {params}" if params else ""
    src = f"""
__kernel void t(__global {ctype}* out{extra})
{{
    int gid = get_global_id(0);
    {body}
}}
"""
    outs = {"out": (out_dtype, (n,))}
    if backend is None:
        _, got = run_scalar_kernel(src, inputs or {}, (n,), (n,), outs)
    else:
        with Session(exec_backend=backend).activate():
            _, got = run_scalar_kernel(src, inputs or {}, (n,), (n // 2,), outs)
    return got["out"]


def run1d_each(body, **kwargs):
    """The out arrays of ``body`` run as one work-group, then as two
    work-groups on each backend."""
    return [run1d(body, **kwargs, backend=b) for b in (None, *BACKENDS)]


class TestIntegerSemantics:
    def test_truncating_division(self):
        expected = np.array([int((g - 8) / 3) for g in range(16)], np.int32)
        for out in run1d_each("out[gid] = (gid - 8) / 3;"):
            np.testing.assert_array_equal(out, expected)

    def test_c_remainder_sign(self):
        expected = np.array(
            [(g - 8) - int((g - 8) / 3) * 3 for g in range(16)], np.int32
        )
        for out in run1d_each("out[gid] = (gid - 8) % 3;"):
            np.testing.assert_array_equal(out, expected)

    def test_shifts(self):
        out = run1d("out[gid] = (1 << gid) >> 2;")
        expected = np.array([(1 << g) >> 2 for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_shift_count_is_masked_to_the_width(self):
        s = np.arange(16) + 24
        expected = (np.int32(1) << (s & 31)) + (np.int32(-256) >> (s & 31))
        for out in run1d_each("int s = gid + 24; out[gid] = (1 << s) + (-256 >> s);"):
            np.testing.assert_array_equal(out, expected.astype(np.int32))

    def test_logical_shift_of_a_negative_bit_pattern(self):
        expected = np.array([((g - 8) % 2**32) >> 28 for g in range(16)], np.int32)
        for out in run1d_each("uint u = (uint)(gid - 8); out[gid] = (int)(u >> 28);"):
            np.testing.assert_array_equal(out, expected)

    def test_bitwise_ops(self):
        out = run1d("out[gid] = (gid & 5) | (gid ^ 3);")
        expected = np.array([(g & 5) | (g ^ 3) for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_unsigned_comparison(self):
        # (uint)(gid - 8) is huge for gid < 8
        expected = np.array(
            [(1 if g < 8 else 0) + (2 if 8 <= g < 13 else 0) for g in range(16)],
            np.int32,
        )
        for out in run1d_each(
            "uint u = (uint)(gid - 8);"
            " out[gid] = (u > 100u ? 1 : 0) + (u < 5u ? 2 : 0);"
        ):
            np.testing.assert_array_equal(out, expected)

    def test_integer_overflow_wraps(self):
        out = run1d("int big = 2147483647; out[gid] = big + gid;")
        expected = np.array(
            [(2**31 - 1 + g + 2**31) % 2**32 - 2**31 for g in range(16)], np.int32
        )
        np.testing.assert_array_equal(out, expected)

    def test_increment_decrement(self):
        out = run1d("int x = gid; x++; ++x; x--; out[gid] = x;")
        np.testing.assert_array_equal(out, np.arange(16, dtype=np.int32) + 1)

    def test_compound_assignment(self):
        out = run1d("int x = gid; x += 3; x *= 2; x -= 1; x /= 3; out[gid] = x;")
        expected = np.array([int(((g + 3) * 2 - 1) / 3) for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_logical_ops(self):
        out = run1d("out[gid] = (gid > 3 && gid < 10) || gid == 0 ? 1 : 0;")
        expected = np.array(
            [1 if (3 < g < 10) or g == 0 else 0 for g in range(16)], np.int32
        )
        np.testing.assert_array_equal(out, expected)

    def test_negation_and_not(self):
        out = run1d("out[gid] = -gid + (!gid) + (~gid);")
        expected = np.array([-g + (0 if g else 1) + (~g) for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_zero_extending_a_signed_char(self):
        """The frontend widens a signed char with sext; the IR's zext of
        a signed source reads its bit pattern as unsigned."""
        from repro.frontend import compile_kernel
        from repro.ir.instructions import Cast, CastKind

        kernel = compile_kernel(
            "__kernel void t(__global int* out)"
            " { int gid = get_global_id(0); out[gid] = (int)(char)(gid - 8); }",
            cache=False,
        )
        (widen,) = [
            i for i in kernel.instructions()
            if isinstance(i, Cast) and i.kind == CastKind.SEXT
            and i.value.type.bits == 8
        ]
        widen.kind = CastKind.ZEXT
        expected = np.array([(g - 8) % 256 for g in range(16)], np.int32)
        for backend in BACKENDS:
            with Session(exec_backend=backend).activate():
                _, outs = execute_kernel(
                    kernel, {}, (16,), (8,), {"out": (np.int32, (16,))}
                )
            np.testing.assert_array_equal(outs["out"], expected)


class TestConstantFolding:
    """A folded constant expression equals the same expression computed
    at run time from operands that equal those constants."""

    @pytest.mark.parametrize(
        "folded, computed, expected",
        [
            ("9007199254740993L / 1", "a / one", 9007199254740993),
            ("1L << 65", "c << b", 2),
            ("1 << 33", "d << e", 2),
        ],
        ids=["long-division", "long-shift", "int-shift"],
    )
    def test_fold_matches_runtime(self, folded, computed, expected):
        out = run1d(
            f"out[0] = {folded}; out[1] = {computed};",
            inputs={"a": 9007199254740993, "one": 1, "b": 65, "c": 1,
                    "d": 1, "e": 33},
            n=2,
            out_dtype=np.int64,
            params="long a, long one, long b, long c, int d, int e",
        )
        np.testing.assert_array_equal(out, [expected, expected])


class TestFloatSemantics:
    def test_arithmetic(self):
        out = run1d(
            "float x = (float)gid; out[gid] = (x * 2.0f + 1.0f) / 4.0f - 0.5f;",
            out_dtype=np.float32,
        )
        expected = ((np.arange(16, dtype=np.float32) * 2 + 1) / 4 - 0.5).astype(
            np.float32
        )
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_math_builtins(self):
        out = run1d(
            "float x = (float)(gid + 1); out[gid] = sqrt(x) + fabs(-x) + fmax(x, 2.0f);",
            out_dtype=np.float32,
        )
        x = np.arange(1, 17, dtype=np.float32)
        np.testing.assert_allclose(out, np.sqrt(x) + x + np.maximum(x, 2), rtol=1e-6)

    def test_rsqrt_and_mad(self):
        out = run1d(
            "float x = (float)(gid + 1); out[gid] = mad(x, 2.0f, rsqrt(x));",
            out_dtype=np.float32,
        )
        x = np.arange(1, 17, dtype=np.float32)
        np.testing.assert_allclose(out, x * 2 + 1 / np.sqrt(x), rtol=1e-5)

    def test_float_int_conversions(self):
        expected = np.trunc(2.75 * (np.arange(16) - 8)).astype(np.int32)
        for out in run1d_each("float x = 2.75f * (float)(gid - 8); out[gid] = (int)x;"):
            np.testing.assert_array_equal(out, expected)

    def test_clamp_and_min(self):
        out = run1d(
            "out[gid] = clamp((float)gid, 3.0f, 10.0f) + fmin((float)gid, 2.0f);",
            out_dtype=np.float32,
        )
        g = np.arange(16, dtype=np.float32)
        np.testing.assert_allclose(out, np.clip(g, 3, 10) + np.minimum(g, 2))


class TestControlFlowSemantics:
    def test_for_accumulate(self):
        out = run1d("int s = 0; for (int i = 0; i <= gid; ++i) s += i; out[gid] = s;")
        expected = np.array([g * (g + 1) // 2 for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_break_continue(self):
        out = run1d(
            "int s = 0; for (int i = 0; i < 100; ++i) {"
            " if (i == gid) break; if (i % 2 == 0) continue; s += i; }"
            " out[gid] = s;"
        )
        expected = []
        for g in range(16):
            s = 0
            for i in range(100):
                if i == g:
                    break
                if i % 2 == 0:
                    continue
                s += i
            expected.append(s)
        np.testing.assert_array_equal(out, np.array(expected, np.int32))

    def test_while_loop(self):
        out = run1d("int x = gid; int c = 0; while (x > 0) { x = x / 2; c++; } out[gid] = c;")
        expected = np.array([g.bit_length() for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_do_while_runs_once(self):
        out = run1d("int c = 0; do { c++; } while (c < gid); out[gid] = c;")
        expected = np.array([max(1, g) for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_divergent_branches(self):
        out = run1d(
            "if (gid % 3 == 0) out[gid] = 100 + gid;"
            " else if (gid % 3 == 1) out[gid] = 200 + gid;"
            " else out[gid] = 300 + gid;"
        )
        expected = np.array([(g % 3 + 1) * 100 + g for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_divergent_loop_trip_counts(self):
        out = run1d("int s = 0; for (int i = 0; i < gid; ++i) s += gid; out[gid] = s;")
        expected = np.array([g * g for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_early_return(self):
        out = run1d("out[gid] = 1; if (gid < 8) return; out[gid] = 2;")
        expected = np.array([1] * 8 + [2] * 8, np.int32)
        np.testing.assert_array_equal(out, expected)

    def test_ternary(self):
        out = run1d("out[gid] = gid % 2 ? gid * 10 : gid;")
        expected = np.array([g * 10 if g % 2 else g for g in range(16)], np.int32)
        np.testing.assert_array_equal(out, expected)


class TestVectorSemantics:
    def test_vector_roundtrip_and_arith(self):
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    int gid = get_global_id(0);
    float4 a = vload4(gid, in);
    float4 b = a * 2.0f;
    float4 c = b + a;
    vstore4(c, gid, out);
}
"""
        data = np.arange(64, dtype=np.float32)
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.float32, (64,))}
        )
        np.testing.assert_allclose(outs["out"], data * 3)

    def test_make_and_members(self):
        src = """
__kernel void t(__global float* out)
{
    int gid = get_global_id(0);
    float4 v = make_float4((float)gid, 1.0f, 2.0f, 3.0f);
    out[gid] = v.x + v.y * v.z + v.w;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.float32, (8,))})
        np.testing.assert_allclose(outs["out"], np.arange(8) + 1 * 2 + 3)

    def test_dot(self):
        src = """
__kernel void t(__global float* out)
{
    int gid = get_global_id(0);
    float4 v = make_float4(1.0f, 2.0f, 3.0f, (float)gid);
    out[gid] = dot(v, v);
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.float32, (8,))})
        np.testing.assert_allclose(outs["out"], 14 + np.arange(8) ** 2)


class TestMultiKernelModules:
    def test_two_kernels_in_one_source(self):
        src = """
__kernel void a(__global int* out) { out[get_global_id(0)] = 1; }
__kernel void b(__global int* out) { out[get_global_id(0)] = 2; }
"""
        from repro.frontend import compile_source

        mod = compile_source(src)
        assert {f.name for f in mod.kernels()} == {"a", "b"}
