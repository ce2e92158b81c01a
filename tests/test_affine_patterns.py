"""Tests for the affine analysis and the data-index pattern machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.affine import AffineContext
from repro.core.exprtree import build_tree
from repro.core.linexpr import ONE, LinExpr, lid
from repro.core.patterns import (
    PatternError,
    detect_strides,
    determine_data_index,
    split_by_stride,
)
from repro.frontend import compile_kernel
from repro.ir.instructions import GEP, Load, Store
from repro.ir.types import AddressSpace


def kernel_with_index(idx_expr: str, arrays="__local float lm[256];", store="lm[%s] = in[0];"):
    src = f"""
__kernel void t(__global float* out, __global const float* in, int W)
{{
    {arrays}
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    {store % idx_expr}
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[0]{'' if '[0]' in store else ''};
}}
"""
    return compile_kernel(src)


def local_store_gep(fn) -> GEP:
    for inst in fn.instructions():
        if isinstance(inst, Store) and inst.addrspace == AddressSpace.LOCAL:
            return inst.ptr
    raise AssertionError("no local store found")


class TestAffineAnalysis:
    def test_thread_ids_become_symbols(self):
        fn = kernel_with_index("lx + ly*16")
        ctx = AffineContext(fn)
        gep = local_store_gep(fn)
        e = ctx.to_linexpr(gep.indices[0])
        assert e.coeff(lid(0)) == 1
        assert e.coeff(lid(1)) == 16

    def test_constants_and_offsets(self):
        fn = kernel_with_index("lx*4 + 3")
        ctx = AffineContext(fn)
        e = ctx.to_linexpr(local_store_gep(fn).indices[0])
        assert e.coeff(lid(0)) == 4
        assert e.const() == 3

    def test_subtraction(self):
        fn = kernel_with_index("lx - ly")
        ctx = AffineContext(fn)
        e = ctx.to_linexpr(local_store_gep(fn).indices[0])
        assert e.coeff(lid(0)) == 1 and e.coeff(lid(1)) == -1

    def test_shift_is_multiplication(self):
        fn = kernel_with_index("(lx << 3) + ly")
        ctx = AffineContext(fn)
        e = ctx.to_linexpr(local_store_gep(fn).indices[0])
        assert e.coeff(lid(0)) == 8

    def test_constant_division_folds_only_when_exact(self):
        # the lowered IR, so sdiv of two constants reaches the analysis
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    __local float lm[16];
    lm[7 / 2] = in[0];
    lm[8 / 2] = in[1];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[0] = lm[0];
}
"""
        fn = compile_kernel(src, optimize=False)
        ctx = AffineContext(fn)
        stores = [
            i for i in fn.instructions()
            if isinstance(i, Store) and i.addrspace == AddressSpace.LOCAL
        ]
        inexact, exact = (ctx.to_linexpr(s.ptr.indices[0]) for s in stores)
        (sym,) = inexact.symbols()
        assert sym[0] == "opaque" and not inexact.is_constant()
        assert exact == LinExpr.constant(4) and type(exact.const()) is int

    def test_group_id_symbol(self):
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    __local float lm[64];
    lm[get_group_id(0) % 1 + get_local_id(0)] = in[0];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[0] = lm[0];
}
"""
        fn = compile_kernel(src)
        ctx = AffineContext(fn)
        e = ctx.to_linexpr(local_store_gep(fn).indices[0])
        # the % makes the wid term opaque but lx must survive
        assert e.coeff(lid(0)) == 1

    def test_loop_counter_is_opaque_slot_symbol(self):
        src = """
__kernel void t(__global float* out, __global const float* in, int n)
{
    __local float lm[64];
    int lx = get_local_id(0);
    for (int i = 0; i < n; ++i) {
        lm[lx + i] = in[i];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    out[0] = lm[0];
}
"""
        fn = compile_kernel(src)
        ctx = AffineContext(fn)
        e = ctx.to_linexpr(local_store_gep(fn).indices[0])
        slots = [s for s in e.symbols() if s[0] == "slot"]
        assert len(slots) == 1
        assert e.coeff(lid(0)) == 1

    def test_symbolic_stride_distribution(self):
        fn = kernel_with_index("lx", store="lm[%s] = in[(ly + 1) * W + lx];")
        ctx = AffineContext(fn)
        # find the global load's gep
        for inst in fn.instructions():
            if isinstance(inst, Load) and inst.addrspace == AddressSpace.GLOBAL:
                e = ctx.to_linexpr(inst.ptr.indices[0])
                break
        prods = [s for s in e.symbols() if s[0] == "prod"]
        assert prods, "(ly+1)*W should distribute into prod symbols"
        args = [s for s in e.symbols() if s[0] == "arg"]
        assert args, "the +1*W part should appear as the W argument term"


class TestStrideDetection:
    def test_mul_constant_found(self):
        fn = kernel_with_index("ly*16 + lx")
        tree = build_tree(local_store_gep(fn).indices[0])
        assert 16 in detect_strides(tree)

    def test_shift_found(self):
        fn = kernel_with_index("(ly << 4) + lx")
        tree = build_tree(local_store_gep(fn).indices[0])
        assert 16 in detect_strides(tree)

    def test_descending_order(self):
        fn = kernel_with_index("ly*64 + lx*4")
        tree = build_tree(local_store_gep(fn).indices[0])
        strides = detect_strides(tree)
        assert strides == sorted(strides, reverse=True)


class TestSplitByStride:
    def test_split_divides_exactly(self):
        # a coefficient past float precision: coeff / stride as a float
        # would round 2**55 + 1 to 2**55
        e = LinExpr({lid(1): 16 * (2**55 + 1), lid(0): 1})
        low, high = split_by_stride(e, 16)
        assert low == LinExpr.symbol(lid(0))
        c = high.coeff(lid(1))
        assert c == 2**55 + 1 and type(c) is int

    def test_basic_split(self):
        e = LinExpr({lid(1): Fraction(16), lid(0): Fraction(1)})
        low, high = split_by_stride(e, 16)
        assert low == LinExpr.symbol(lid(0))
        assert high == LinExpr.symbol(lid(1))

    def test_constant_divmod(self):
        # (ly+1)*16 + lx+1 = 16*ly + lx + 17
        e = LinExpr({lid(1): Fraction(16), lid(0): Fraction(1), ONE: Fraction(17)})
        low, high = split_by_stride(e, 16)
        assert low == LinExpr.symbol(lid(0)) + LinExpr.constant(1)
        assert high == LinExpr.symbol(lid(1)) + LinExpr.constant(1)

    def test_strict_mode_rejects_derived_pattern(self):
        # Fig 7(b): loop-dependent extra term in the low dimension
        e = LinExpr(
            {lid(1): Fraction(16), lid(0): Fraction(1), ("slot", object()): Fraction(1)}
        )
        with pytest.raises(PatternError):
            split_by_stride(e, 16, strict=True)
        low, high = split_by_stride(e, 16, strict=False)
        assert high == LinExpr.symbol(lid(1))

    def test_invalid_stride(self):
        with pytest.raises(PatternError):
            split_by_stride(LinExpr.zero(), 1)

    @given(
        st.integers(0, 15),
        st.integers(0, 15),
        st.sampled_from([4, 8, 16, 32]),
    )
    def test_roundtrip_property(self, a, b, s):
        """low + high*s must equal the original expression."""
        e = LinExpr({lid(0): Fraction(a), lid(1): Fraction(b * s), ONE: Fraction(a % s)})
        low, high = split_by_stride(e, s)
        assert low + high.scale(s) == e


class TestDetermineDataIndex:
    def test_multi_index_gep_direct(self):
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    __local float lm[8][16];
    lm[get_local_id(1)][get_local_id(0)] = in[0];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[0] = lm[0][0];
}
"""
        fn = compile_kernel(src)
        ctx = AffineContext(fn)
        dims, _ = determine_data_index(ctx, local_store_gep(fn))
        assert len(dims) == 2
        assert dims[0] == LinExpr.symbol(lid(0))  # x = fastest
        assert dims[1] == LinExpr.symbol(lid(1))

    def test_flat_index_split(self):
        fn = kernel_with_index("ly*16 + lx")
        ctx = AffineContext(fn)
        dims, _ = determine_data_index(ctx, local_store_gep(fn))
        assert len(dims) == 2
        assert dims[0] == LinExpr.symbol(lid(0))
        assert dims[1] == LinExpr.symbol(lid(1))

    def test_1d_index_stays_1d(self):
        fn = kernel_with_index("lx")
        ctx = AffineContext(fn)
        dims, _ = determine_data_index(ctx, local_store_gep(fn))
        assert dims == [LinExpr.symbol(lid(0))]

    def test_3d_flat_split(self):
        src = """
__kernel void t(__global float* out, __global const float* in)
{
    __local float lm[512];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int lz = get_local_id(2);
    lm[lz*64 + ly*8 + lx] = in[0];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[0] = lm[0];
}
"""
        fn = compile_kernel(src)
        ctx = AffineContext(fn)
        dims, _ = determine_data_index(ctx, local_store_gep(fn))
        assert len(dims) == 3
        assert dims[0] == LinExpr.symbol(lid(0))
        assert dims[1] == LinExpr.symbol(lid(1))
        assert dims[2] == LinExpr.symbol(lid(2))
