"""Coverage for remaining corners: comma operator, pointers, vector
selects, CLI kernel selection, prod-symbol rendering."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.linexpr import LinExpr, lid, prod_symbol, wid
from tests.conftest import run_scalar_kernel


class TestLoweringCorners:
    def test_comma_operator(self):
        src = """
__kernel void t(__global int* out)
{
    int gid = get_global_id(0);
    int a;
    int b;
    for (a = 0, b = gid; a < 3; ++a)
        b += a;
    out[gid] = b;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int32, (8,))})
        np.testing.assert_array_equal(outs["out"], np.arange(8) + 3)

    def test_address_of_and_deref(self):
        src = """
__kernel void t(__global int* out)
{
    int gid = get_global_id(0);
    int x = gid * 2;
    int* p = &x;
    *p = *p + 1;
    out[gid] = x;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int32, (8,))})
        np.testing.assert_array_equal(outs["out"], np.arange(8) * 2 + 1)

    def test_array_initializer_list(self):
        src = """
__kernel void t(__global int* out)
{
    int w[4] = {1, 10, 100, 1000};
    int gid = get_global_id(0);
    out[gid] = w[gid % 4];
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int32, (8,))})
        np.testing.assert_array_equal(
            outs["out"], np.array([1, 10, 100, 1000] * 2)
        )

    def test_pointer_into_global_walk(self):
        src = """
__kernel void t(__global int* out, __global const int* in)
{
    int gid = get_global_id(0);
    __global const int* p = in + gid;
    out[gid] = p[0] + p[1];
}
"""
        data = np.arange(17, dtype=np.int32)
        _, outs = run_scalar_kernel(
            src, {"in": data}, (16,), (16,), {"out": (np.int32, (16,))}
        )
        np.testing.assert_array_equal(outs["out"], data[:-1] + data[1:])

    def test_assignment_as_expression_value(self):
        src = """
__kernel void t(__global int* out)
{
    int gid = get_global_id(0);
    int a;
    int b = (a = gid + 1) * 2;
    out[gid] = a + b;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int32, (8,))})
        g = np.arange(8)
        np.testing.assert_array_equal(outs["out"], (g + 1) + (g + 1) * 2)


class TestInterpreterCorners:
    def test_select_on_vectors(self):
        src = """
__kernel void t(__global float* out)
{
    int gid = get_global_id(0);
    float4 a = make_float4(1.0f, 2.0f, 3.0f, 4.0f);
    float4 b = a * 10.0f;
    float4 c = gid % 2 ? a : b;
    vstore4(c, gid, out);
}
"""
        _, outs = run_scalar_kernel(src, {}, (4,), (4,), {"out": (np.float32, (16,))})
        got = outs["out"].reshape(4, 4)
        base = np.array([1, 2, 3, 4], np.float32)
        np.testing.assert_array_equal(got[0], base * 10)
        np.testing.assert_array_equal(got[1], base)

    def test_variable_vector_index(self):
        src = """
__kernel void t(__global float* out)
{
    int gid = get_global_id(0);
    float4 v = make_float4(10.0f, 20.0f, 30.0f, 40.0f);
    int lane = gid % 4;
    float picked;
    if (lane == 0) picked = v.x;
    else if (lane == 1) picked = v.y;
    else if (lane == 2) picked = v.z;
    else picked = v.w;
    out[gid] = picked;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.float32, (8,))})
        np.testing.assert_array_equal(
            outs["out"], np.array([10, 20, 30, 40] * 2, np.float32)
        )

    def test_unsigned_right_shift(self):
        src = """
__kernel void t(__global uint* out)
{
    uint gid = (uint)get_global_id(0);
    uint big = 0x80000000u + gid;
    out[gid] = big >> 4;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.uint32, (8,))})
        expected = ((0x80000000 + np.arange(8, dtype=np.uint64)) >> 4).astype(
            np.uint32
        )
        np.testing.assert_array_equal(outs["out"], expected)

    def test_signed_right_shift_arithmetic(self):
        src = """
__kernel void t(__global int* out)
{
    int gid = get_global_id(0);
    int v = -64 + gid;
    out[gid] = v >> 2;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (8,), {"out": (np.int32, (8,))})
        np.testing.assert_array_equal(outs["out"], (-64 + np.arange(8)) >> 2)


TRANSPOSE = str(Path(__file__).resolve().parents[1] / "examples" / "transpose.cl")
#: a launch geometry for ``repro analyze`` on the transpose, and its scalars
GEOMETRY = ["--global-size", "32,32", "--local-size", "16,16"]
WH = ["--arg", "W=32", "--arg", "H=32"]


class TestCLICorners:
    TWO_KERNELS = """
__kernel void first(__global float* out, __global const float* in)
{
    __local float lm[8];
    int lx = get_local_id(0);
    lm[lx] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[7 - lx];
}
__kernel void second(__global float* out)
{
    out[get_global_id(0)] = 0.0f;
}
"""

    def test_kernel_selection(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "two.cl"
        f.write_text(self.TWO_KERNELS)
        rc = main([str(f), "--kernel", "first"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first" in out

    def test_kernel_without_local_memory_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "two.cl"
        f.write_text(self.TWO_KERNELS)
        rc = main([str(f), "--kernel", "second"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([TRANSPOSE, "--kernel", "nosuch"], "no kernel 'nosuch' (kernels: transpose)"),
            (["passes", "--run", TRANSPOSE, "--kernel", "nosuch"],
             "no kernel 'nosuch' (kernels: transpose)"),
            (["analyze", TRANSPOSE, "--kernel", "nosuch"],
             "no kernel 'nosuch' (kernels: transpose)"),
            ([TRANSPOSE, "--local-size", "16xa"], "argument --local-size"),
            (["analyze", TRANSPOSE, "--local-size", "4xq"], "argument --local-size"),
            ([TRANSPOSE, "--arrays", "lm,nope"],
             "no such local data structure(s) in kernel 'transpose': nope "
             "(local arrays: lm)"),
            (["analyze", TRANSPOSE, "--global-size", "30,32", "--local-size", "16,16", *WH],
             "global size (30, 32) not divisible by local size (16, 16)"),
            (["analyze", TRANSPOSE, *GEOMETRY],
             "kernel scalar argument 'W' needs a value"),
            (["analyze", TRANSPOSE, *GEOMETRY, "--arg", "W=abc"],
             "argument --arg: expected NAME=NUMBER, got 'W=abc'"),
            (["analyze", TRANSPOSE, *GEOMETRY, *WH, "--local-arg", "x"],
             "argument --local-arg: expected NAME=BYTES, got 'x'"),
            (["analyze", TRANSPOSE, *GEOMETRY, *WH, "--buffer-bytes", "0"],
             "argument --buffer-bytes: expected a positive integer, got '0'"),
            (["analyze", TRANSPOSE, *GEOMETRY, *WH, "--buffer-bytes", "4"],
             "is outside buffer in (4 B)"),
        ],
        ids=["kernel", "passes-kernel", "analyze-kernel", "local-size",
             "analyze-local-size", "arrays", "analyze-indivisible",
             "analyze-missing-arg", "analyze-bad-arg", "analyze-bad-local-arg",
             "analyze-zero-buffer", "analyze-small-buffer"],
    )
    def test_bad_kernel_or_local_size_is_a_usage_error(self, argv, message, capsys):
        """Exit 2 with one ``error:`` line, never a traceback."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "source", ["missing", "directory", "not-utf8", "syntax-error"]
    )
    @pytest.mark.parametrize(
        "command", [[], ["analyze"], ["passes", "--run"]],
        ids=["kernel", "analyze", "passes"],
    )
    def test_unreadable_source_is_a_usage_error(
        self, command, source, tmp_path, capsys
    ):
        """Exit 2 with one ``error:`` line, never a traceback, whatever
        makes the source unreadable or unparsable; an unreadable file is
        named in that line."""
        from repro.cli import main

        path = tmp_path / "k.cl"
        if source == "directory":
            path.mkdir()
        elif source == "not-utf8":
            path.write_bytes(b"__kernel void k(__global int* o) { o[0] = 1; } // \xff\n")
        elif source == "syntax-error":
            path.write_text("__kernel void k(__global int* o) { o[0] = ; }\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        if source == "syntax-error":
            assert "parse error" in errors[0]
        else:
            assert f"cannot read {path}" in errors[0]
        assert "Traceback" not in err

    def test_analyze_buffer_bytes_need_not_be_a_multiple_of_16(self, capsys):
        """The synthetic buffers are padded to 16 bytes; only the first
        ``--buffer-bytes`` get the byte pattern."""
        from repro.cli import main

        rc = main(["analyze", TRANSPOSE, *GEOMETRY, *WH, "--buffer-bytes", "4100"])
        assert rc == 0
        assert "transpose.cl" in capsys.readouterr().out


class TestLinExprProdRendering:
    def test_prod_renders_with_star(self):
        p = prod_symbol(lid(1), wid(0))
        e = LinExpr.symbol(p, 3)
        assert "*" in e.render()
        assert "ly" in e.render() and "wx" in e.render()

    def test_prod_equality_regardless_of_order(self):
        assert LinExpr.symbol(prod_symbol(lid(0), wid(1))) == LinExpr.symbol(
            prod_symbol(wid(1), lid(0))
        )
