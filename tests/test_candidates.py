"""Tests for GL/LS/LL candidate detection (Section IV-A)."""

import pytest

from repro.core.candidates import (
    UnknownArrayError,
    base_object,
    find_candidates,
)
from repro.frontend import compile_kernel
from repro.ir.instructions import Load, Store
from repro.ir.types import AddressSpace

from tests.conftest import MM_SOURCE, MT_SOURCE, REDUCTION_SOURCE


class TestBaseObject:
    def test_walks_gep_chain(self):
        fn = compile_kernel(MT_SOURCE)
        for inst in fn.instructions():
            if isinstance(inst, Store) and inst.addrspace == AddressSpace.LOCAL:
                assert base_object(inst.ptr) is fn.local_array("lm")


class TestDetection:
    def test_mt_candidate(self):
        fn = compile_kernel(MT_SOURCE)
        cands, rejs = find_candidates(fn)
        assert not rejs
        (c,) = cands
        assert c.name == "lm"
        assert isinstance(c.gl, Load) and c.gl.addrspace == AddressSpace.GLOBAL
        assert isinstance(c.ls, Store) and c.ls.addrspace == AddressSpace.LOCAL
        assert len(c.lls) == 1
        assert len(c.pairs) == 1

    def test_mm_two_candidates(self):
        fn = compile_kernel(MM_SOURCE)
        cands, rejs = find_candidates(fn)
        assert {c.name for c in cands} == {"As", "Bs"}
        assert not rejs
        for c in cands:
            assert len(c.lls) == 1

    def test_array_filter(self):
        fn = compile_kernel(MM_SOURCE)
        cands, _ = find_candidates(fn, arrays=["As"])
        assert [c.name for c in cands] == ["As"]

    def test_unknown_array_name(self):
        fn = compile_kernel(MM_SOURCE)
        with pytest.raises(UnknownArrayError, match=r"Zs \(local arrays: As, Bs\)"):
            find_candidates(fn, arrays=["Zs"])

    def test_reduction_rejected(self):
        fn = compile_kernel(REDUCTION_SOURCE)
        cands, rejs = find_candidates(fn)
        assert not cands
        (r,) = rejs
        assert r.name == "sm"
        assert "not fed by a global load" in r.reason or "read-modify-write" in r.reason

    def test_rmw_rejected(self):
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[16];
    int li = get_local_id(0);
    lm[li] = in[li];
    barrier(CLK_LOCAL_MEM_FENCE);
    lm[li] = lm[(li + 1) % 16];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[li] = lm[li];
}
"""
        fn = compile_kernel(src)
        cands, rejs = find_candidates(fn)
        assert not cands
        assert "read-modify-write" in rejs[0].reason

    def test_never_read_rejected(self):
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[16];
    lm[get_local_id(0)] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = 0.0f;
}
"""
        fn = compile_kernel(src)
        cands, rejs = find_candidates(fn)
        assert not cands
        assert "never read" in rejs[0].reason

    def test_never_written_rejected(self):
        src = """
__kernel void k(__global float* out)
{
    __local float lm[16];
    out[get_global_id(0)] = lm[get_local_id(0)];
}
"""
        fn = compile_kernel(src)
        cands, rejs = find_candidates(fn)
        assert "never written" in rejs[0].reason

    def test_computed_store_rejected(self):
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    __local float lm[16];
    int li = get_local_id(0);
    lm[li] = in[li] * 2.0f;   /* computed, not a staged copy */
    barrier(CLK_LOCAL_MEM_FENCE);
    out[li] = lm[li];
}
"""
        fn = compile_kernel(src)
        cands, rejs = find_candidates(fn)
        assert not cands
        assert "not fed by a global load" in rejs[0].reason

    def test_store_through_cast_accepted(self):
        src = """
__kernel void k(__global float* out, __global const int* in)
{
    __local float lm[16];
    int li = get_local_id(0);
    lm[li] = (float)in[li];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[li] = lm[li];
}
"""
        fn = compile_kernel(src)
        cands, rejs = find_candidates(fn)
        assert len(cands) == 1 and not rejs


class TestMultiPassStaging:
    HALO = """
#define S 16
__kernel void k(__global float* out, __global const float* in, int Wp)
{
    __local float lm[S + 2];
    int lx = get_local_id(0);
    int base = (int)get_group_id(0) * S + lx;
    lm[lx + 1] = in[base + 1];
    if (lx == 0)     lm[0]     = in[base];
    if (lx == S - 1) lm[S + 1] = in[base + 2];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx] + lm[lx + 2];
}
"""

    def test_multiple_pairs_detected(self):
        fn = compile_kernel(self.HALO)
        cands, _ = find_candidates(fn)
        (c,) = cands
        assert len(c.pairs) == 3
        assert len(c.lls) == 2

    def test_dominating_pair_preferred(self):
        from repro.ir.cfg import dominators, inst_dominates

        fn = compile_kernel(self.HALO)
        (c,) = find_candidates(fn)[0]
        doms = dominators(fn)
        assert all(inst_dominates(doms, c.ls, ll) for ll in c.lls)

    def test_local_ptr_arg_is_candidate_object(self):
        src = """
__kernel void k(__global float* out, __global const float* in,
                __local float* scratch)
{
    int li = get_local_id(0);
    scratch[li] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = scratch[(li + 1) % 16];
}
"""
        fn = compile_kernel(src)
        cands, _ = find_candidates(fn)
        assert [c.name for c in cands] == ["scratch"]
