"""The tape-compiled execution backend: bit-identity, eviction, cleanup.

The tape backend (``REPRO_EXEC_BACKEND=tape``, the default) records one
pilot group's block schedule, compiles it to closures and replays it
with work-groups stacked on a leading batch axis.  Its contract is
bit-identity with the reference per-group scheduler: identical
``KernelTrace`` streams (events, phases, instruction counts), identical
output buffer bytes — for any batch size, any worker count, and for
kernels whose groups diverge from the pilot's schedule (those are
evicted to the scalar path mid-replay).

Also covered here: the iterative ``_reverse_postorder`` on a deep
single-chain CFG, and ``launch``'s exception path (arena buffers freed,
``launch_end`` emitted with ``error=``).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import replay_trace
from repro.frontend import compile_kernel
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.parallel.diff import assert_outputs_equal, assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.errors import MemoryFault
from repro.runtime.interpreter import _reverse_postorder
from repro.session import Session, events

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _traced_launch(
    kernel,
    args_spec,
    gsize,
    lsize,
    outs,
    *,
    backend,
    tape_batch=256,
    sample_groups=None,
):
    """Launch under ``backend`` and return (trace, outputs dict)."""
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
    with Session(exec_backend=backend, tape_batch=tape_batch).activate():
        res = launch(
            kernel, gsize, lsize, args, memory=mem,
            collect_trace=True, sample_groups=sample_groups,
        )
    outputs = {
        name: bufs[name].read(np.dtype(dtype), int(np.prod(shape))).reshape(shape)
        for name, (dtype, shape) in outs.items()
    }
    return res.trace, outputs


# ---------------------------------------------------------------------------
# iterative reverse post-order (satellite: recursion-free CFG walk)
# ---------------------------------------------------------------------------


def test_reverse_postorder_survives_deep_chain_cfg():
    """A 3000-block single chain must not hit the recursion limit."""
    fn = Function("chain", [], [])
    blocks = [fn.add_block(f"b{i}") for i in range(3000)]
    b = IRBuilder()
    for cur, nxt in zip(blocks, blocks[1:]):
        b.position_at_end(cur)
        b.br(nxt)
    b.position_at_end(blocks[-1])
    b.ret()

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)  # a recursive walk would need ~3000 frames
    try:
        rpo = _reverse_postorder(fn)
    finally:
        sys.setrecursionlimit(limit)
    assert [bb for bb, _ in sorted(rpo.items(), key=lambda kv: kv[1])] == blocks


# ---------------------------------------------------------------------------
# randomized affine kernels: tape == reference, bit for bit
# ---------------------------------------------------------------------------

_AFFINE_SOURCE = r"""
__kernel void aff(__global float* out, __global const float* in)
{
    __local float lm[64];
    int li = get_local_id(0);
    int gi = get_global_id(0);
    lm[(CA*li + CB) % 64] = in[(CC*gi + CD*li + CE) % 128];
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = lm[(CF*li + CG) % 64];
    out[gi] = v + lm[li];
}
"""


@settings(max_examples=8, deadline=None)
@given(coeffs=st.tuples(*[st.integers(0, 7) for _ in range(7)]))
def test_tape_matches_reference_on_random_affine_kernels(coeffs):
    """Random affine access patterns, batch {1,4,all}."""
    defines = dict(zip(("CA", "CB", "CC", "CD", "CE", "CF", "CG"), coeffs))
    kernel = compile_kernel(_AFFINE_SOURCE, defines=defines)
    rng = np.random.default_rng(1234)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}

    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    assert len(ref_trace.groups) == 8

    for tape_batch in (1, 4, 8):
        ctx = f"coeffs={coeffs} batch={tape_batch}"
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="tape", tape_batch=tape_batch,
        )
        assert_traces_equal(ref_trace, trace, ctx)
        assert_outputs_equal(ref_out, out, ctx)

    # the dynamic byte-replay arbiter reaches identical verdicts on both
    tape_trace, _ = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="tape"
    )
    ref_report = replay_trace(ref_trace, kernel=kernel)
    tape_report = replay_trace(tape_trace, kernel=kernel)
    assert len(ref_report.findings) == len(tape_report.findings)


# ---------------------------------------------------------------------------
# divergence eviction: groups that disagree with the pilot's schedule
# ---------------------------------------------------------------------------

_EVICT_SOURCE = r"""
__kernel void ev(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    float acc = in[gi];
    if (wg % 2 == 1) {           /* group-uniform, differs from pilot */
        acc = acc * 2.0f + 1.0f;
    }
    if ((gi / (wg + 1)) % 2 == 0) {   /* mask shape varies per group */
        acc += 3.0f;
    }
    out[gi] = acc;
}
"""


@pytest.mark.parametrize("tape_batch", (1, 4, 256))
def test_divergent_groups_evict_to_scalar_path(tape_batch):
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(7)
    data = rng.standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}

    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    with events.collect() as sink:
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="tape", tape_batch=tape_batch,
        )
    ctx = f"eviction batch={tape_batch}"
    assert_traces_equal(ref_trace, trace, ctx)
    assert_outputs_equal(ref_out, out, ctx)
    evicts = sink.of_kind("tape_evict")
    assert evicts, "divergent kernel must actually evict groups"
    replays = sink.of_kind("tape_replay")
    assert sum(e.payload["evicted"] for e in replays) == len(evicts)


def test_eviction_composes_with_sampling():
    kernel = compile_kernel(_EVICT_SOURCE)
    rng = np.random.default_rng(11)
    data = rng.standard_normal(256).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (256,))}
    ref_trace, _ = _traced_launch(
        kernel, spec, (256,), (16,), outs,
        backend="reference", sample_groups=9,
    )
    trace, _ = _traced_launch(
        kernel, spec, (256,), (16,), outs,
        backend="tape", sample_groups=9,
    )
    assert_traces_equal(ref_trace, trace, "evict sampled")


# ---------------------------------------------------------------------------
# launch exception path: arenas freed, launch_end carries error=
# ---------------------------------------------------------------------------

_FAULT_SOURCE = r"""
__kernel void oob(__global float* out, __global const float* in)
{
    __local float lm[16];
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    lm[get_local_id(0)] = in[gi];
    barrier(CLK_LOCAL_MEM_FENCE);
    /* the pilot group (wg 0) survives; later groups store far past
       the buffer end and fault mid-replay */
    out[gi + wg * 1000000] = lm[get_local_id(0)];
}
"""


@pytest.mark.parametrize("backend", ("reference", "tape"))
def test_faulting_launch_frees_arenas_and_reports_error(backend):
    kernel = compile_kernel(_FAULT_SOURCE)
    mem = Memory()
    rng = np.random.default_rng(3)
    inb = mem.from_array(rng.standard_normal(64).astype(np.float32), "in")
    outb = mem.alloc(64 * 4, "out")
    user_ids = set(mem.buffers)

    with Session(exec_backend=backend).activate():
        with events.collect() as sink:
            with pytest.raises((IndexError, MemoryFault)):
                launch(
                    kernel, (64,), (16,), {"in": inb, "out": outb},
                    memory=mem, collect_trace=True,
                )
    ends = sink.of_kind("launch_end")
    assert len(ends) == 1
    assert ends[0].payload["error"] != ""
    assert ends[0].payload["groups_executed"] == 0
    # every launch-owned arena (local, private, tape scratch) was freed
    assert set(mem.buffers) == user_ids


def test_successful_launch_end_has_empty_error():
    kernel = compile_kernel(_EVICT_SOURCE)
    mem = Memory()
    inb = mem.from_array(np.ones(64, dtype=np.float32), "in")
    outb = mem.alloc(64 * 4, "out")
    with events.collect() as sink:
        launch(kernel, (64,), (16,), {"in": inb, "out": outb}, memory=mem)
    ends = sink.of_kind("launch_end")
    assert len(ends) == 1
    assert ends[0].payload["error"] == ""
