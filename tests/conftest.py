"""Shared fixtures and kernel-source helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.perf.cpumodel import CPUModel
from repro.perf.gpumodel import GPUModel
from repro.perf.pricing import group_costs, kernel_cycles
from repro.runtime import Memory, launch
from repro.runtime.trace import GroupTrace
from repro.session import Session

#: the paper's Fig. 1(a) kernel — used all over the suite
MT_SOURCE = r"""
#define S 16
__kernel void transpose(__global float* out, __global const float* in,
                        int W, int H)
{
    __local float lm[S][S];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    lm[ly][lx] = in[(wx*S + ly)*W + (wy*S + lx)];
    barrier(CLK_LOCAL_MEM_FENCE);
    float val = lm[lx][ly];
    out[get_global_id(1)*H + get_global_id(0)] = val;
}
"""

#: flat-local-array tiled matmul (NVIDIA SDK style)
MM_SOURCE = r"""
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

#: a reduction — the pattern Grover must reject (Section VI-D)
REDUCTION_SOURCE = r"""
__kernel void reduceSum(__global float* out, __global const float* in)
{
    __local float sm[64];
    int li = get_local_id(0);
    sm[li] = in[get_global_id(0)];
    barrier(CLK_LOCAL_MEM_FENCE);
    for (int s = 32; s > 0; s = s >> 1) {
        if (li < s)
            sm[li] = sm[li] + sm[li + s];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    if (li == 0)
        out[get_group_id(0)] = sm[0];
}
"""


def run_scalar_kernel(source, args_spec, global_size, local_size, outs,
                      kernel_name=None, defines=None):
    """Compile + launch helper: ``args_spec`` maps names to arrays or
    scalars; ``outs`` maps output names to (dtype, shape).  Returns the
    kernel function and a dict of output arrays."""
    kernel = compile_kernel(source, kernel_name, defines=defines)
    return execute_kernel(kernel, args_spec, global_size, local_size, outs)


def execute_kernel(kernel, args_spec, global_size, local_size, outs):
    mem = Memory()
    args = {}
    bufs = {}
    for name, v in args_spec.items():
        if isinstance(v, np.ndarray):
            bufs[name] = mem.from_array(v, name)
            args[name] = bufs[name]
        else:
            args[name] = v
    for name, (dtype, shape) in outs.items():
        if name not in bufs:
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            bufs[name] = mem.alloc(nbytes, name)
            args[name] = bufs[name]
    launch(kernel, global_size, local_size, args, memory=mem)
    results = {
        name: bufs[name].read(np.dtype(dtype), int(np.prod(shape))).reshape(shape)
        for name, (dtype, shape) in outs.items()
    }
    return kernel, results


def widened(g: GroupTrace) -> GroupTrace:
    """``g`` with every event's offsets widened to int64 (the backends
    record int32)."""
    return GroupTrace(
        g.group_id, g.work_items,
        [dataclasses.replace(e, offsets=e.offsets.astype(np.int64)) for e in g.events],
        g.inst_count, g.barriers,
    )


#: the per-group cost fields two pricings of one group must agree on,
#: keyed by ``spec.is_gpu``
PRICED_FIELDS = {
    False: ("level_hits", "memory_misses", "prefetched"),
    True: ("transactions", "mem_cycles", "spm_cycles"),
}


def assert_pricing_exact(trace, specs):
    """Pricing ``trace`` on all of ``specs`` at once on the fast backend
    (the shared call of ``repro.perf.price``) agrees with the reference
    backend on each device alone, memo off: group by group on
    :data:`PRICED_FIELDS` (per-level hits, memory misses and prefetches
    on a CPU; transactions, memory and scratch-pad cycles on a GPU) and
    the cycles, and in the kernel total."""

    def models():
        return [(GPUModel if s.is_gpu else CPUModel)(s, memoize=False) for s in specs]

    # the session's cache_backend picks the simulator a model prices with
    on_fast = Session(env={}, cache_backend="fast")
    on_ref = Session(env={}, cache_backend="reference")
    fast, ref = models(), models()
    ref_totals = [0] * len(specs)
    for g in trace.groups:
        with on_fast.activate():
            fast_costs = group_costs(g, fast)
        with on_ref.activate():
            ref_costs = [m.time_group(g) for m in ref]
        for i, (spec, got, exp) in enumerate(zip(specs, fast_costs, ref_costs)):
            ref_totals[i] += exp.cycles
            for f in PRICED_FIELDS[spec.is_gpu] + ("cycles",):
                assert getattr(got, f) == getattr(exp, f), (
                    f"{spec.name} group {g.group_id}: fast {f} "
                    f"{getattr(got, f)} != reference {getattr(exp, f)}"
                )
    with on_fast.activate():
        assert kernel_cycles(trace, fast) == [trace.scale * t for t in ref_totals]


@pytest.fixture(autouse=True)
def _fresh_worker_pool():
    """Isolate tests from the process-wide persistent worker pool: a pool
    warmed (or monkeypatched into existence) by one test must never leak
    into the next.  Tests exercising persistence do so within one test."""
    yield
    from repro.parallel import pool as worker_pool

    worker_pool.shutdown_shared()


@pytest.fixture
def mt_kernel():
    return compile_kernel(MT_SOURCE)


@pytest.fixture
def mm_kernel():
    return compile_kernel(MM_SOURCE)
