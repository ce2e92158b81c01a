"""The tape-compiled execution backend: bit-identity, eviction, cleanup.

The tape backend (``REPRO_EXEC_BACKEND=tape``, the default) runs
work-groups stacked on a leading batch axis.  Its first batch records
the block schedule its first pick (the leader) takes, compiling each
block to closures as it is reached; later batches replay the tape.  Its
contract is bit-identity with the reference per-group scheduler:
identical ``KernelTrace`` streams (events, phases, instruction counts),
identical output buffer bytes — for any batch size, for kernels whose
data-dependent if-arms are predicated into their branch's step, and for
kernels whose groups diverge from the leader's schedule otherwise
(those are evicted to the scalar path).  The recorder also keeps what a
serial launch's first group decides for the launch: the leader's
barrier-divergence error, the private-arena allocations, and faults
surfacing in pick order.  A launch frees its executor without the
cyclic garbage collector.

Every Table III app is diffed too: both variants, tape against
reference, on real kernels.

Also covered here: the iterative ``_reverse_postorder`` on a deep
single-chain CFG, and ``launch``'s exception path (arena buffers freed,
``launch_end`` emitted with ``error=``, a named ``MemoryFault`` on every
backend), and that a dropped launch trace is freed without the cyclic
garbage collector.
"""

from __future__ import annotations

import gc
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import replay_trace
from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import TABLE_ORDER, get_app
from repro.frontend import compile_kernel
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import CondBr
from repro.ir.verifier import verify_function
from repro.parallel.diff import assert_outputs_equal, assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.errors import BarrierDivergenceError, MemoryFault
from repro.runtime.interpreter import GroupExecutor, _reverse_postorder
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


def test_batch_keeps_stacked_local_memory_below_the_buffer_limit(monkeypatch):
    """A batch stacks its groups' ``__local`` buffers in one scratch
    buffer, whose offsets the trace records as int32: the batch shrinks
    until that buffer is below the buffer limit, and the trace and
    outputs stay the reference's."""
    import repro.runtime.tape as tape

    defines = dict(CA=3, CB=1, CC=1, CD=2, CE=5, CF=5, CG=2)
    kernel = compile_kernel(_AFFINE_SOURCE, defines=defines)
    data = np.random.default_rng(5).standard_normal(128).astype(np.float32)
    spec = {"in": data}
    outs = {"out": (np.float32, (128,))}
    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    # lm is 256 B per group: at most 3 groups stack below 3 * 256 + 1 B
    monkeypatch.setattr(tape, "MAX_BUFFER_BYTES", 3 * 256 + 1)
    with events.collect() as sink:
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs, backend="tape"
        )
    assert [e.payload["batches"] for e in sink.of_kind("tape_replay")] == [3]
    assert_traces_equal(ref_trace, trace, "capped batch")
    assert_outputs_equal(ref_out, out, "capped batch")


# ---------------------------------------------------------------------------
# the Table III apps: tape == reference on real kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_table_app_traces_match_reference(app_id):
    """Both variants at smoke scale, 4 sampled groups."""
    app = get_app(app_id)
    for variant in ("with", "without"):
        kernel, _ = compile_app(app, variant)
        traces = {}
        for backend in ("reference", "tape"):
            with Session(exec_backend=backend).activate():
                traces[backend] = execute_app(
                    app, kernel, variant=variant, scale="smoke",
                    collect_trace=True, sample_groups=4,
                ).trace
        assert_traces_equal(
            traces["reference"], traces["tape"], f"{app_id}[{variant}]"
        )


@pytest.mark.parametrize("groups", (4, 256))
def test_uniform_kernel_never_runs_the_reference_interpreter(groups, monkeypatch):
    """The leader records the tape inside the batch: no group of a
    uniform kernel runs a block on the reference interpreter."""
    kernel = compile_kernel(_AFFINE_SOURCE, defines=dict(
        CA=1, CB=3, CC=1, CD=0, CE=5, CF=3, CG=1,
    ))
    calls = []
    original = GroupExecutor.exec_block

    def counted(self, bb, mask):
        calls.append(self.ctx.group_id)
        return original(self, bb, mask)

    monkeypatch.setattr(GroupExecutor, "exec_block", counted)
    rng = np.random.default_rng(5)
    spec = {"in": rng.standard_normal(128).astype(np.float32)}
    outs = {"out": (np.float32, (groups * 16,))}
    trace, _ = _traced_launch(
        kernel, spec, (groups * 16,), (16,), outs, backend="tape"
    )
    assert len(trace.groups) == groups
    assert calls == []


# ---------------------------------------------------------------------------
# divergence eviction: groups that disagree with the leader's schedule
# ---------------------------------------------------------------------------

_EVICT_SOURCE = r"""
__kernel void ev(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    float acc = in[gi];
    if (wg % 2 == 1) {           /* group-uniform, differs from leader */
        acc = acc * 2.0f + 1.0f;
        out[gi] = acc;           /* a global store: never predicated */
    }
    if ((gi / (wg + 1)) % 2 == 0) {   /* mask shape varies per group */
        acc += 3.0f;
        out[gi] = acc;
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
    assert sum(e.payload["groups"] for e in replays) == len(ref_trace.groups)
    # the leader steers the recording batch, so it is never evicted
    assert [0] not in [e.payload["group_id"] for e in evicts]


def test_only_evicted_groups_run_the_reference_interpreter(monkeypatch):
    kernel = compile_kernel(_EVICT_SOURCE)
    callers = set()
    original = GroupExecutor.exec_block

    def counted(self, bb, mask):
        callers.add(self.ctx.group_id)
        return original(self, bb, mask)

    monkeypatch.setattr(GroupExecutor, "exec_block", counted)
    spec = {"in": np.ones(128, dtype=np.float32)}
    with events.collect() as sink:
        _traced_launch(
            kernel, spec, (128,), (16,), {"out": (np.float32, (128,))},
            backend="tape",
        )
    evicted = {tuple(e.payload["group_id"]) for e in sink.of_kind("tape_evict")}
    assert evicted and callers <= evicted


# ---------------------------------------------------------------------------
# predicated if-arms: a data-dependent branch whose arm only computes and
# writes scalar private slots runs inside its branch's step, per lane
# ---------------------------------------------------------------------------

#: the eviction kernel's two branches without their global stores
_ARM_SOURCE = r"""
__kernel void arm(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    float acc = in[gi];
    if (wg % 2 == 1) {
        acc = acc * 2.0f + 1.0f;
    }
    if ((gi / (wg + 1)) % 2 == 0) {
        acc += 3.0f;
    }
    out[gi] = acc;
}
"""

#: AMD-SS's compare loop: the arm's condition depends on the text
_SEARCH_SOURCE = r"""
__kernel void search(__global uint* out, __global const uchar* in,
                     __global const uchar* pattern)
{
    int gi = get_global_id(0);
    uint ok = 1;
    for (int j = 0; j < 8; ++j) {
        uchar c = pattern[j];
        if (in[gi + j] != c)
            ok = 0;
    }
    out[gi] = ok;
}
"""

#: group 0 takes no lane of the arm; groups 2 and 5 take one each
_LATE_ARM_SOURCE = r"""
__kernel void late(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float acc = in[gi];
    if (gi % 48 == 40)
        acc = acc * 4.0f;
    out[gi] = acc;
}
"""


def _search_spec():
    rng = np.random.default_rng(21)
    text = rng.integers(ord("a"), ord("c"), size=136, dtype=np.uint8)
    pattern = text[40:48].copy()
    text[96:104] = pattern
    return {"in": text, "pattern": pattern}, {"out": (np.uint32, (128,))}


def _float_spec():
    data = np.random.default_rng(7).standard_normal(128).astype(np.float32)
    return {"in": data}, {"out": (np.float32, (128,))}


def _assert_tape_matches(kernel, spec, outs, tape_batch):
    """Tape == reference at ``tape_batch``; returns the tape's trace,
    its ``tape_evict`` events and its ``tape_compile`` arm counts."""
    ref_trace, ref_out = _traced_launch(
        kernel, spec, (128,), (16,), outs, backend="reference"
    )
    with events.collect() as sink:
        trace, out = _traced_launch(
            kernel, spec, (128,), (16,), outs,
            backend="tape", tape_batch=tape_batch,
        )
    ctx = f"{kernel.name} batch={tape_batch}"
    assert_traces_equal(ref_trace, trace, ctx)
    assert_outputs_equal(ref_out, out, ctx)
    arms = [e.payload["arms"] for e in sink.of_kind("tape_compile")]
    return trace, sink.of_kind("tape_evict"), arms


@pytest.mark.parametrize("tape_batch", (1, 4, 256))
@pytest.mark.parametrize("source, spec", [
    (_ARM_SOURCE, _float_spec),
    (_SEARCH_SOURCE, _search_spec),
    (_LATE_ARM_SOURCE, _float_spec),
], ids=("arms", "search", "late-arm"))
def test_predicated_arms_match_reference_without_eviction(
    source, spec, tape_batch
):
    """Groups that take an arm on different lanes (or not at all, the
    leader included) stay in the batch; each retires its own arm
    instructions, so the per-group ``inst_count``s still differ."""
    trace, evicts, arms = _assert_tape_matches(
        compile_kernel(source), *spec(), tape_batch
    )
    assert evicts == []
    assert arms and all(a >= 1 for a in arms)
    assert len({g.inst_count for g in trace.groups}) > 1


def _retarget_arm_to_loop_header(kernel):
    """``if (c) acc += 1.0f`` as the last statement of a while loop,
    with the arm branching straight back to the loop header: the arm
    ends in ``Br F`` but ``F`` precedes its branch in RPO."""
    body = next(bb for bb in kernel.blocks if bb.name == "while.body")
    header = next(bb for bb in kernel.blocks if bb.name == "while.cond")
    term = body.instructions[-1]
    join = term.if_false
    term.if_true.instructions[-1].target = header
    term.if_false = header
    kernel.blocks.remove(join)
    return kernel


def _give_arm_a_second_predecessor(kernel):
    """The first if-arm falls into the second one, so the second arm
    has two predecessors (and the first no longer ends in ``Br F``)."""
    first, second = (
        bb.instructions[-1] for bb in kernel.blocks
        if isinstance(bb.instructions[-1], CondBr)
    )
    first.if_true.instructions[-1].target = second.if_true
    return kernel


_INELIGIBLE = {
    "global-store": (r"""
__kernel void gs(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    out[gi] = in[gi];
    if (in[gi] > 0.0f)
        out[gi] = 0.0f;
}
""", None),
    "two-predecessors": (r"""
__kernel void tp(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float acc = in[gi];
    if (get_local_id(0) < 4)
        acc += 1.0f;
    if (in[gi] > 0.0f)
        acc += 2.0f;
    out[gi] = acc;
}
""", _give_arm_a_second_predecessor),
    "vector-slot": (r"""
__kernel void vs(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float4 a = make_float4(in[gi], 1.0f, 2.0f, 3.0f);
    float4 v = a * 2.0f;
    if (in[gi] > 0.0f)
        v = a;
    out[gi] = v.x + v.y;
}
""", None),
    "loop-header": (r"""
__kernel void lh(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float acc = 0.0f;
    int j = 0;
    while (j < 4) {
        j++;
        if (in[(gi + j) % 128] > 0.0f)
            acc += 1.0f;
    }
    out[gi] = acc;
}
""", _retarget_arm_to_loop_header),
}


@pytest.mark.parametrize("tape_batch", (4, 256))
@pytest.mark.parametrize("case", sorted(_INELIGIBLE))
def test_ineligible_arms_still_evict(case, tape_batch):
    """A data-dependent branch whose arm is not predicable keeps the
    divergence guard: groups that disagree with the leader evict."""
    source, edit = _INELIGIBLE[case]
    kernel = compile_kernel(source, cache=False)
    if edit is not None:
        verify_function(edit(kernel))
    _, evicts, arms = _assert_tape_matches(kernel, *_float_spec(), tape_batch)
    assert arms == [0]
    assert evicts


def test_amd_ss_predicates_its_compare_arm():
    """AMD-SS's data-dependent ``if (text[gid + j] != c) ok = 0;`` is a
    predicated arm, so no group leaves the tape."""
    app = get_app("AMD-SS")
    kernel, _ = compile_app(app, "with")
    with Session(exec_backend="tape").activate(), events.collect() as sink:
        execute_app(app, kernel, variant="with", scale="test",
                    collect_trace=True)
    (compiled,) = sink.of_kind("tape_compile")
    assert compiled.payload["arms"] >= 1
    assert sink.of_kind("tape_evict") == []


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
# what a serial launch's first group decides: barrier errors, allocations
# ---------------------------------------------------------------------------

_LEADER_BARRIER_SOURCE = r"""
__kernel void lb(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float v = in[gi];
    if (get_group_id(0) == 1) {   /* evicted, then faults on resume */
        v = in[gi + 100000];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    if (get_local_id(0) < 8) {    /* every group diverges here */
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[gi] = v;
}
"""


def _launch_error(kernel, backend, tape_batch=256):
    mem = Memory()
    inb = mem.from_array(np.ones(64, dtype=np.float32), "in")
    outb = mem.alloc(64 * 4, "out")
    with Session(exec_backend=backend, tape_batch=tape_batch).activate():
        with pytest.raises((BarrierDivergenceError, MemoryFault)) as info:
            launch(kernel, (64,), (16,), {"in": inb, "out": outb}, memory=mem)
    return info.value


@pytest.mark.parametrize("tape_batch", (1, 4))
def test_leader_barrier_divergence_matches_reference(tape_batch):
    """Group 0 raises before group 1's fault, as in a serial launch,
    although group 1 is evicted from the same batch first."""
    kernel = compile_kernel(_LEADER_BARRIER_SOURCE)
    ref = _launch_error(kernel, "reference")
    got = _launch_error(kernel, "tape", tape_batch)
    assert isinstance(ref, BarrierDivergenceError)
    assert type(got) is type(ref)
    assert str(got) == str(ref)
    for field in ("function", "group_id", "phase", "arrived", "missing"):
        assert getattr(got, field) == getattr(ref, field), field
    assert (ref.group_id, ref.phase) == ((0,), 1)


_PRIVATE_ARRAY_SOURCE = r"""
__kernel void pa(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    float tmp[4];
    for (int k = 0; k < 4; k++) {
        tmp[k] = in[(gi + k) % 64];
    }
    if (get_group_id(0) == 1) {   /* the evicted group extends the arena */
        float more[2];
        more[0] = tmp[1];
        more[1] = tmp[3];
        tmp[0] = more[0] + more[1];
    }
    out[gi] = tmp[0] + tmp[2];
}
"""


class _AllocLog(Memory):
    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def alloc(self, nbytes, name=""):
        buf = super().alloc(nbytes, name)
        self.log.append((buf.id, nbytes, name))
        return buf


@pytest.mark.parametrize("tape_batch", (1, 4, 256))
def test_private_arena_allocations_match_reference(tape_batch):
    """Two launches on one Memory make the same allocations and traces:
    the leader's k-th private-array alloca claims ``private_arena[k]``
    before any evicted group resumes."""
    kernel = compile_kernel(_PRIVATE_ARRAY_SOURCE)
    data = np.random.default_rng(9).standard_normal(64).astype(np.float32)
    runs = {}
    for backend in ("reference", "tape"):
        mem = _AllocLog()
        inb = mem.from_array(data, "in")
        outb = mem.alloc(64 * 4, "out")
        traces = []
        with Session(exec_backend=backend, tape_batch=tape_batch).activate():
            for _ in range(2):
                res = launch(
                    kernel, (64,), (16,), {"in": inb, "out": outb},
                    memory=mem, collect_trace=True,
                )
                traces.append(res.trace)
        runs[backend] = (traces, mem.log, mem._next_id, outb.read(np.float32, 64))
    ref, tape = runs["reference"], runs["tape"]
    for rt, tt in zip(ref[0], tape[0]):
        assert_traces_equal(rt, tt, f"private arena batch={tape_batch}")
    assert tape[1:3] == ref[1:3]
    assert_outputs_equal({"out": ref[3]}, {"out": tape[3]}, "private arena")


# ---------------------------------------------------------------------------
# launch exception path: arenas freed, launch_end carries error=
# ---------------------------------------------------------------------------

_LOAD_PAST_END_SOURCE = r"""
__kernel void lpe(__global float* out, __global const float* in)
{
    int g = get_global_id(0);
    out[g] = in[g + get_group_id(0) * 64];
}
"""

_STORE_PAST_END_SOURCE = r"""
__kernel void spe(__global float* out, __global const float* in)
{
    int g = get_global_id(0);
    out[g + get_group_id(0) * 64] = in[g];
}
"""


@pytest.mark.parametrize("backend", ("reference", "tape"))
@pytest.mark.parametrize("tape_batch", (1, 256))
@pytest.mark.parametrize(
    "source, message",
    [
        (_LOAD_PAST_END_SOURCE, "load at byte offset 380 is outside buffer in (320 B)"),
        (_STORE_PAST_END_SOURCE, "store at byte offset 380 is outside buffer out (256 B)"),
    ],
    ids=("load", "store"),
)
def test_access_past_end_in_a_later_group_is_a_memory_fault(
    backend, tape_batch, source, message
):
    """Group 1 is the first to fault; every backend names it exactly as
    the reference does, instead of surfacing numpy's IndexError."""
    kernel = compile_kernel(source)
    mem = Memory()
    inb = mem.from_array(np.arange(80, dtype=np.float32), "in")
    outb = mem.alloc(64 * 4, "out")
    user_ids = set(mem.buffers)
    with Session(exec_backend=backend, tape_batch=tape_batch).activate():
        with pytest.raises(MemoryFault) as info:
            launch(
                kernel, (64,), (16,), {"in": inb, "out": outb},
                memory=mem, collect_trace=True,
            )
    assert str(info.value) == message
    assert set(mem.buffers) == user_ids

def _gated_grover_variant(root_seed, index):
    """The fuzz case's kernel as ``Session(analyze=True)`` transforms it
    with ``allow_partial=True``, plus a launcher on a fresh memory."""
    from repro.analysis import AnalysisUndecidedWarning
    from repro.fuzz.generate import generate_case
    from repro.fuzz.oracle import input_data

    case = generate_case(root_seed, index)
    kernel = compile_kernel(case.source(), case.kernel_name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalysisUndecidedWarning)
        report = Session(analyze=True).disable_local_memory(
            kernel, local_size=case.local_size, allow_partial=True
        )
    assert report.transformed

    def run():
        mem = Memory()
        args = {
            "out": mem.alloc(int(np.prod(case.global_size)) * 4, "out"),
            "in": mem.from_array(input_data(case.in_elems), "in"),
            "P": case.p_value,
        }
        launch(kernel, case.global_size, case.local_size, args,
               memory=mem, collect_trace=True)
    return run


@pytest.mark.parametrize("index", (35, 594))
def test_leader_access_spanning_two_buffers_is_a_memory_fault(index):
    """The leader's own lanes of one access reach two buffers.  The tape
    raises the reference's fault while it records, where it once evicted
    the leader and failed later on a raw ``KeyError``."""
    run = _gated_grover_variant(3, index)
    for backend in ("reference", "tape"):
        with Session(exec_backend=backend).activate():
            with pytest.raises(MemoryFault, match="^access spans multiple buffers$"):
                run()


_FAULT_SOURCE = r"""
__kernel void oob(__global float* out, __global const float* in)
{
    __local float lm[16];
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    lm[get_local_id(0)] = in[gi];
    barrier(CLK_LOCAL_MEM_FENCE);
    /* the leader (wg 0) survives; later groups store far past
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
            with pytest.raises(MemoryFault):
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


# ---------------------------------------------------------------------------
# a dropped trace is freed by reference counting alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source, spec", [
    (_EVICT_SOURCE, _float_spec), (_SEARCH_SOURCE, _search_spec),
], ids=("evicting", "predicated"))
def test_tape_executor_is_freed_without_the_cycle_collector(
    source, spec, monkeypatch
):
    """The executor's closures reference it; the launch drops them, so
    the executor is freed as soon as the launch returns, with the
    cyclic garbage collector switched off."""
    from repro.runtime import tape

    made = []

    class Recorded(tape.TapeExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(tape, "TapeExecutor", Recorded)
    kernel = compile_kernel(source)
    in_spec, outs = spec()
    gc.disable()
    try:
        _traced_launch(kernel, in_spec, (128,), (16,), outs, backend="tape")
        assert made and all(ref() is None for ref in made)
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ("reference", "tape"))
def test_dropped_launch_trace_is_freed_without_the_cycle_collector(backend):
    """A launch's trace is plain lists of events: no reference cycle
    keeps it alive, so dropping the result frees its offset arrays at
    once, with the cyclic garbage collector switched off."""
    kernel = compile_kernel(_EVICT_SOURCE)
    mem = Memory()
    inb = mem.from_array(np.ones(64, dtype=np.float32), "in")
    outb = mem.alloc(64 * 4, "out")
    gc.disable()
    try:
        with Session(exec_backend=backend).activate():
            res = launch(
                kernel, (64,), (16,), {"in": inb, "out": outb},
                memory=mem, collect_trace=True,
            )
        assert isinstance(res.trace.groups[-1].events, list)
        offsets = weakref.ref(res.trace.groups[-1].events[0].offsets)
        assert offsets() is not None
        del res
        assert offsets() is None
    finally:
        gc.enable()
