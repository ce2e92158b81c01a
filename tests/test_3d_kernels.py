"""3-D NDRange coverage: the extension stencil and 3-D runtime paths."""

import numpy as np

from repro.apps.harness import compile_app, validate_app
from repro.apps.registry import TABLE_ORDER, get_app

from tests.conftest import run_scalar_kernel


class TestExtensionStencil3D:
    def test_original_correct(self):
        validate_app(get_app("EXT-ST3D"), "with", "test")

    def test_transformed_correct(self):
        validate_app(get_app("EXT-ST3D"), "without", "test")

    def test_seven_3x3_systems_solved(self):
        _, report = compile_app(get_app("EXT-ST3D"), "without")
        rec = report.record("lm")
        assert len(rec.lls) == 7
        sols = {ll.solution.render() for ll in rec.lls}
        assert "lx = lx, ly = ly, lz = lz" in sols
        assert "lx = lx, ly = ly, lz = lz - 1" in sols
        assert "lx = lx, ly = ly, lz = lz + 1" in sols
        assert "lx = lx - 1, ly = ly, lz = lz" in sols

    def test_local_tile_fully_removed(self):
        kernel, report = compile_app(get_app("EXT-ST3D"), "without")
        assert report.fully_disabled
        assert not kernel.local_arrays

    def test_not_in_paper_table(self):
        assert "EXT-ST3D" not in TABLE_ORDER


class TestRuntime3D:
    def test_3d_work_item_ids(self):
        src = """
__kernel void ids(__global int* out)
{
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    int gz = get_global_id(2);
    int w = get_global_size(0);
    int h = get_global_size(1);
    out[(gz*h + gy)*w + gx] = (int)(get_local_id(2)*100
                                    + get_group_id(2)*10000
                                    + get_local_id(0));
}
"""
        _, outs = run_scalar_kernel(
            src, {}, (4, 4, 4), (2, 2, 2), {"out": (np.int32, (64,))}
        )
        got = outs["out"].reshape(4, 4, 4)
        for gz in range(4):
            for gy in range(4):
                for gx in range(4):
                    expected = (gz % 2) * 100 + (gz // 2) * 10000 + gx % 2
                    assert got[gz, gy, gx] == expected

    def test_3d_barrier_and_local(self):
        src = """
__kernel void rot(__global int* out)
{
    __local int lm[2][2][2];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int lz = get_local_id(2);
    lm[lz][ly][lx] = lz*4 + ly*2 + lx;
    barrier(CLK_LOCAL_MEM_FENCE);
    /* read rotated: (x,y,z) <- (y,z,x) */
    int gx = get_global_id(0);
    int w = get_global_size(0);
    int h = get_global_size(1);
    out[(get_global_id(2)*h + get_global_id(1))*w + gx] = lm[lx][lz][ly];
}
"""
        _, outs = run_scalar_kernel(
            src, {}, (2, 2, 2), (2, 2, 2), {"out": (np.int32, (8,))}
        )
        got = outs["out"].reshape(2, 2, 2)
        for z in range(2):
            for y in range(2):
                for x in range(2):
                    assert got[z, y, x] == x * 4 + z * 2 + y

    def test_3d_rotation_staging_reversed_by_grover(self):
        """A 3-D permutation staging solves a full 3x3 system."""
        src = """
__kernel void rot(__global float* out, __global const float* in, int W, int H)
{
    __local float lm[4][4][4];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int lz = get_local_id(2);
    lm[lz][ly][lx] = in[((int)get_global_id(2)*H + (int)get_global_id(1))*W
                        + (int)get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[((int)get_global_id(2)*H + (int)get_global_id(1))*W
        + (int)get_global_id(0)] = lm[lx][lz][ly];
}
"""
        from repro.core import disable_local_memory
        from repro.frontend import compile_kernel
        from tests.conftest import execute_kernel

        n = 8
        rng = np.random.default_rng(2)
        data = rng.random((n, n, n), dtype=np.float32)

        k1 = compile_kernel(src)
        _, o1 = execute_kernel(
            k1, {"in": data, "W": n, "H": n}, (n, n, n), (4, 4, 4),
            {"out": (np.float32, (n, n, n))},
        )
        k2 = compile_kernel(src)
        report = disable_local_memory(k2)
        assert report.fully_disabled
        (rec,) = report.records
        (ll,) = rec.lls
        # lm[lx][lz][ly]: x_LL=ly, y_LL=lz, z_LL=lx -> writer rotation
        assert ll.solution.render() == "lx = ly, ly = lz, lz = lx"
        _, o2 = execute_kernel(
            k2, {"in": data, "W": n, "H": n}, (n, n, n), (4, 4, 4),
            {"out": (np.float32, (n, n, n))},
        )
        np.testing.assert_array_equal(o1["out"], o2["out"])
