"""Interpreter tests: SIMT execution, divergence, barriers, tracing."""

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.ir.types import AddressSpace
from repro.runtime import BarrierDivergenceError, Memory, launch
from repro.runtime.errors import RuntimeLaunchError

from tests.conftest import MT_SOURCE, run_scalar_kernel


class TestBarriers:
    def test_uniform_barrier_ok(self):
        src = """
__kernel void k(__global int* out) {
    __local int lm[16];
    int li = get_local_id(0);
    lm[li] = li;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[15 - li];
}
"""
        _, outs = run_scalar_kernel(src, {}, (16,), (16,), {"out": (np.int32, (16,))})
        np.testing.assert_array_equal(outs["out"], np.arange(15, -1, -1))

    def test_divergent_barrier_detected(self):
        src = """
__kernel void k(__global int* out) {
    __local int lm[16];
    int li = get_local_id(0);
    lm[li] = li;
    if (li < 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[get_global_id(0)] = lm[li];
}
"""
        with pytest.raises(BarrierDivergenceError):
            run_scalar_kernel(src, {}, (16,), (16,), {"out": (np.int32, (16,))})

    def test_barrier_in_uniform_loop(self):
        src = """
__kernel void k(__global int* out, int n) {
    __local int lm[16];
    int li = get_local_id(0);
    int acc = 0;
    for (int t = 0; t < n; ++t) {
        lm[li] = li + t;
        barrier(CLK_LOCAL_MEM_FENCE);
        acc += lm[(li + 1) % 16];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[get_global_id(0)] = acc;
}
"""
        _, outs = run_scalar_kernel(
            src, {"n": 3}, (16,), (16,), {"out": (np.int32, (16,))}
        )
        expected = np.array([sum((g + 1) % 16 + t for t in range(3)) for g in range(16)])
        np.testing.assert_array_equal(outs["out"], expected)


class TestLocalMemorySemantics:
    def test_conditional_store_before_uniform_barrier(self):
        src = """
__kernel void k(__global int* out) {
    __local int lm[8];
    int li = get_local_id(0);
    if (li == 0) lm[0] = (int)get_group_id(0) + 100;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[0];
}
"""
        _, outs = run_scalar_kernel(src, {}, (16,), (8,), {"out": (np.int32, (16,))})
        expected = np.array([g // 8 + 100 for g in range(16)])
        np.testing.assert_array_equal(outs["out"], expected)

    def test_local_values_per_group(self):
        src = """
__kernel void k(__global int* out) {
    __local int lm[8];
    int li = get_local_id(0);
    lm[li] = (int)get_group_id(0) * 10 + li;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[7 - li];
}
"""
        _, outs = run_scalar_kernel(src, {}, (32,), (8,), {"out": (np.int32, (32,))})
        expected = np.array([(g // 8) * 10 + (7 - g % 8) for g in range(32)])
        np.testing.assert_array_equal(outs["out"], expected)

    def test_local_pointer_argument(self):
        src = """
__kernel void k(__global int* out, __local int* scratch) {
    int li = get_local_id(0);
    scratch[li] = li * 2;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = scratch[(li + 1) % 8];
}
"""
        kernel = compile_kernel(src)
        mem = Memory()
        outb = mem.alloc(32 * 4, "out")
        launch(
            kernel,
            (32,),
            (8,),
            {"out": outb},
            memory=mem,
            local_arg_sizes={"scratch": 8 * 4},
        )
        got = outb.read(np.int32, 32)
        expected = np.array([((g % 8) + 1) % 8 * 2 for g in range(32)])
        np.testing.assert_array_equal(got, expected)


class TestPrivateArrays:
    def test_private_array_is_per_work_item(self):
        src = """
__kernel void k(__global int* out) {
    int tmp[4];
    int gid = get_global_id(0);
    for (int i = 0; i < 4; ++i) tmp[i] = gid * 10 + i;
    int s = 0;
    for (int i = 0; i < 4; ++i) s += tmp[i];
    out[gid] = s;
}
"""
        _, outs = run_scalar_kernel(src, {}, (8,), (4,), {"out": (np.int32, (8,))})
        expected = np.array([g * 40 + 6 for g in range(8)])
        np.testing.assert_array_equal(outs["out"], expected)


class TestTracing:
    def _mt_trace(self):
        kernel = compile_kernel(MT_SOURCE)
        n = 32
        mem = Memory()
        a = np.zeros((n, n), np.float32)
        inb, outb = mem.from_array(a), mem.alloc(a.nbytes)
        res = launch(
            kernel,
            (n, n),
            (16, 16),
            {"in": inb, "out": outb, "W": n, "H": n},
            collect_trace=True,
        )
        return res.trace

    def test_trace_covers_all_groups(self):
        trace = self._mt_trace()
        assert trace.total_groups == 4
        assert trace.sampled_groups == 4
        assert trace.scale == 1.0

    def test_event_spaces_and_counts(self):
        trace = self._mt_trace()
        g = trace.groups[0]
        spaces = [e.space for e in g.events]
        assert AddressSpace.LOCAL in spaces
        assert AddressSpace.GLOBAL in spaces
        # 256 work-items: GL + LS + LL + out store
        assert g.accesses() == 4 * 256
        assert g.barriers == 1

    def test_serialized_stream_orders_by_phase_then_lane(self):
        trace = self._mt_trace()
        g = trace.groups[0]
        stream = g.serialized((AddressSpace.GLOBAL, AddressSpace.LOCAL))
        assert len(stream) == 4 * 256
        # all phase-0 accesses (GL+LS) come before phase-1 (LL+store);
        # within the first phase, lane 0's GL/LS are adjacent
        line_sizes = stream.sizes
        assert (line_sizes == 4).all()

    def test_inst_count_positive_and_scaled(self):
        trace = self._mt_trace()
        assert trace.total_inst_count() > 0

    def test_sampling(self):
        kernel = compile_kernel(MT_SOURCE)
        n = 64
        mem = Memory()
        a = np.zeros((n, n), np.float32)
        inb, outb = mem.from_array(a), mem.alloc(a.nbytes)
        res = launch(
            kernel,
            (n, n),
            (16, 16),
            {"in": inb, "out": outb, "W": n, "H": n},
            collect_trace=True,
            sample_groups=3,
        )
        assert res.trace.total_groups == 16
        assert res.trace.sampled_groups == 3
        assert res.trace.scale == pytest.approx(16 / 3)


class TestLaunchValidation:
    def test_indivisible_sizes_rejected(self):
        kernel = compile_kernel(MT_SOURCE)
        mem = Memory()
        buf = mem.alloc(64)
        with pytest.raises(RuntimeLaunchError, match="divisible"):
            launch(kernel, (30, 30), (16, 16), {"in": buf, "out": buf, "W": 30, "H": 30})

    def test_missing_argument(self):
        kernel = compile_kernel(MT_SOURCE)
        with pytest.raises(RuntimeLaunchError, match="missing"):
            launch(kernel, (16, 16), (16, 16), {})

    def test_unknown_argument(self):
        kernel = compile_kernel(MT_SOURCE)
        mem = Memory()
        buf = mem.alloc(16 * 16 * 4)
        with pytest.raises(RuntimeLaunchError, match="unknown"):
            launch(
                kernel,
                (16, 16),
                (16, 16),
                {"in": buf, "out": buf, "W": 16, "H": 16, "bogus": 1},
            )

    def test_scalar_for_pointer_rejected(self):
        kernel = compile_kernel(MT_SOURCE)
        with pytest.raises(RuntimeLaunchError, match="Buffer"):
            launch(kernel, (16, 16), (16, 16), {"in": 1, "out": 2, "W": 16, "H": 16})

    def test_dimensionality_mismatch(self):
        kernel = compile_kernel(MT_SOURCE)
        mem = Memory()
        buf = mem.alloc(1024)
        with pytest.raises(RuntimeLaunchError, match="dimensionality"):
            launch(kernel, (16, 16), (16,), {"in": buf, "out": buf, "W": 16, "H": 16})


class TestDivergenceDiagnostics:
    """ISSUE-4: the divergence error carries the group, the phase and the
    work-item sets, and the failing path leaves the trace untouched."""

    # one good barrier, then a divergent one: only lanes >= 8 arrive
    SRC = """
__kernel void diverge(__global int* out) {
    __local int lm[16];
    int li = get_local_id(0);
    lm[li] = li;
    barrier(CLK_LOCAL_MEM_FENCE);
    if (li >= 8) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    out[get_global_id(0)] = lm[li];
}
"""

    def _execute_traced(self):
        from repro.runtime import GroupTrace
        from repro.runtime.builtins import WorkItemContext
        from repro.runtime.interpreter import GroupExecutor

        kernel = compile_kernel(self.SRC)
        mem = Memory()
        out = mem.alloc(16 * 4, "out")
        arg_values = {a: out for a in kernel.args if a.name == "out"}
        local_buffers = {
            la: mem.alloc(la.nbytes, la.name) for la in kernel.local_arrays
        }
        ctx = WorkItemContext((1,), (16,), (32,))
        gt = GroupTrace((1,), ctx.n_lanes)
        ex = GroupExecutor(kernel, ctx, mem, arg_values, local_buffers, {}, gt)
        with pytest.raises(BarrierDivergenceError) as excinfo:
            ex.run()
        return gt, excinfo.value

    def test_error_carries_structured_fields(self):
        _, err = self._execute_traced()
        assert err.function == "diverge"
        assert err.group_id == (1,)
        assert err.phase == 1  # one successful barrier preceded it
        assert err.arrived == list(range(8, 16))
        assert err.missing == list(range(8))

    def test_message_names_group_and_both_work_item_sets(self):
        _, err = self._execute_traced()
        msg = str(err)
        assert "group (1,)" in msg
        assert "phase 1" in msg
        assert "arrived={8, 9" in msg
        assert "missing={0, 1" in msg

    def test_failing_path_does_not_count_the_barrier(self):
        gt, _ = self._execute_traced()
        # only the first (successful) barrier is counted
        assert gt.barriers == 1


@pytest.mark.parametrize("backend", ["reference", "tape"])
def test_out_of_bounds_access_is_a_memory_fault(backend):
    """A fuzz kernel whose Grover variant indexes below its input buffer
    faults with a named error on every backend, not numpy's IndexError."""
    import copy
    import warnings

    from repro.analysis import AnalysisUndecidedWarning
    from repro.frontend import compile_source
    from repro.fuzz.generate import generate_case
    from repro.fuzz.oracle import input_data
    from repro.runtime.errors import MemoryFault
    from repro.session import Session

    case = generate_case(1, 13)
    variant = copy.deepcopy(compile_source(case.source(), cache=False)).kernel(
        case.kernel_name
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AnalysisUndecidedWarning)
        with Session(env={}, analyze=True) as gate:
            gate.disable_local_memory(
                variant, local_size=case.local_size, allow_partial=True
            )
    mem = Memory()
    args = {
        "out": mem.alloc(int(np.prod(case.global_size)) * 4, "out"),
        "in": mem.from_array(input_data(case.in_elems), "in"),
        "P": case.p_value,
    }
    with Session(env={}, exec_backend=backend, workers=1).activate():
        with pytest.raises(MemoryFault, match=r"load at byte offset -\d+ is outside buffer in"):
            launch(variant, case.global_size, case.local_size, args, memory=mem)
