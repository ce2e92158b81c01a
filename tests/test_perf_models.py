"""Tests for the CPU/GPU timing models and device table."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.frontend import compile_kernel
from repro.ir.types import AddressSpace
from repro.perf import (
    CPUModel,
    GPUModel,
    DEVICES,
    device,
    estimate_cost,
    normalized_performance,
)
from repro.perf.devices import CPU_DEVICES, GPU_DEVICES, MIC, SNB, FERMI
from repro.perf.gpumodel import GPUGroupCost
from repro.perf.timing import classify
from repro.runtime import Memory, launch
from repro.runtime.trace import GroupTrace, MemEvent

from tests.conftest import MT_SOURCE


def mt_trace(n=32, local=(16, 16)):
    kernel = compile_kernel(MT_SOURCE)
    mem = Memory()
    a = np.zeros((n, n), np.float32)
    inb, outb = mem.from_array(a), mem.alloc(a.nbytes)
    res = launch(
        kernel,
        (n, n),
        local,
        {"in": inb, "out": outb, "W": n, "H": n},
        collect_trace=True,
    )
    return res.trace


COALESCE_SRC = """
__kernel void k(__global float* out, __global const float* in, int stride)
{
    int gid = get_global_id(0);
    out[gid] = in[gid * stride];
}
"""


def strided_trace(stride):
    kernel = compile_kernel(COALESCE_SRC)
    mem = Memory()
    n = 64
    inb = mem.from_array(np.zeros(n * max(1, stride), np.float32))
    outb = mem.alloc(n * 4)
    res = launch(
        kernel,
        (n,),
        (64,),
        {"in": inb, "out": outb, "stride": stride},
        collect_trace=True,
    )
    return res.trace


class TestDeviceTable:
    def test_paper_platforms_present(self):
        assert set(DEVICES) == {"SNB", "Nehalem", "MIC", "Fermi", "Kepler", "Tahiti"}
        assert set(CPU_DEVICES) == {"SNB", "Nehalem", "MIC"}
        assert set(GPU_DEVICES) == {"Fermi", "Kepler", "Tahiti"}

    def test_lookup(self):
        assert device("SNB") is SNB
        with pytest.raises(KeyError):
            device("EPYC")

    def test_mic_has_distributed_llc(self):
        assert MIC.l3 is None

    def test_gpu_flags(self):
        assert FERMI.is_gpu and not SNB.is_gpu


class TestCPUModel:
    def test_cycles_positive_and_scale(self):
        trace = mt_trace()
        m = CPUModel(SNB)
        total = m.time_kernel(trace)
        assert total > 0
        per_group = [m.time_group(g).cycles for g in trace.groups]
        assert total == pytest.approx(sum(per_group))

    def test_more_memory_traffic_costs_more(self):
        m = CPUModel(SNB)
        t_small = mt_trace(n=16)
        t_big = mt_trace(n=64)
        assert m.time_kernel(t_big) > m.time_kernel(t_small)

    def test_local_arena_is_warm(self):
        """Local-space lines must not produce cold memory misses."""
        m = CPUModel(SNB)
        g = mt_trace().groups[0]
        cost = m.time_group(g)
        # in-tile (16 lines) + out-tile (16 lines) cold misses only
        assert cost.memory_misses <= 32

    def test_barrier_cost_counted(self):
        m = CPUModel(SNB)
        g = mt_trace().groups[0]
        cost = m.time_group(g)
        assert cost.barrier_cycles == SNB.barrier_cost * g.work_items

    def test_mic_has_no_l3_level(self):
        m = CPUModel(MIC)
        assert len(m._hierarchy().levels) == 2
        m2 = CPUModel(SNB)
        assert len(m2._hierarchy().levels) == 3


class TestGPUModel:
    def test_coalesced_vs_strided_transactions(self):
        m = GPUModel(FERMI)
        dense = m.time_group(strided_trace(1).groups[0])
        strided = m.time_group(strided_trace(32).groups[0])
        assert strided.transactions > dense.transactions
        assert strided.cycles > dense.cycles

    def test_warp_granularity(self):
        m = GPUModel(FERMI)
        cost = m.time_group(strided_trace(1).groups[0])
        # 64 lanes = 2 warps; dense reads coalesce into 2 x 2 segments
        # (256 B per warp / 128 B segments) + output stores
        assert cost.transactions <= 10

    def test_spm_bank_conflicts(self):
        src = """
__kernel void k(__global float* out, int stride)
{
    __local float lm[2048];
    int lx = get_local_id(0);
    lm[lx * stride] = (float)lx;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = lm[lx * stride];
}
"""
        kernel1 = compile_kernel(src)
        m = GPUModel(FERMI)

        def run(stride):
            mem = Memory()
            outb = mem.alloc(64 * 4)
            res = launch(
                kernel1,
                (64,),
                (64,),
                {"out": outb, "stride": stride},
                collect_trace=True,
            )
            return m.time_group(res.trace.groups[0])

        conflict_free = run(1)
        conflicted = run(32)  # stride 32 words: every lane hits bank 0
        assert conflicted.spm_cycles > conflict_free.spm_cycles

    def test_l1_toggle_changes_cost(self):
        # a kernel with global-read reuse: the second read of the same
        # segments hits L1 (cheap) or only L2 (Kepler-style), so the
        # toggle must change the estimate
        src = """
__kernel void k(__global float* out, __global const float* in)
{
    int gid = get_global_id(0);
    out[gid] = in[gid] + in[63 - gid];
}
"""
        kernel = compile_kernel(src)
        mem = Memory()
        inb = mem.from_array(np.zeros(64, np.float32))
        outb = mem.alloc(64 * 4)
        trace = launch(
            kernel, (64,), (64,), {"in": inb, "out": outb}, collect_trace=True
        ).trace
        with_l1 = GPUModel(FERMI).time_kernel(trace)
        no_l1 = GPUModel(replace(FERMI, global_l1=False)).time_kernel(trace)
        assert no_l1 > with_l1


class TestTimingHelpers:
    def test_estimate_and_normalize(self):
        trace = mt_trace()
        c1 = estimate_cost(trace, "SNB")
        c2 = estimate_cost(trace, SNB)
        assert c1.cycles == c2.cycles
        assert c1.device == "SNB"
        np_ratio = normalized_performance(c1, c2)
        assert np_ratio == 1.0

    def test_classify(self):
        assert classify(1.2) == "gain"
        assert classify(0.8) == "loss"
        assert classify(1.01) == "similar"
        assert classify(1.04999) == "similar"
        assert classify(1.06) == "gain"

    def test_speedup_over(self):
        trace = mt_trace()
        c1 = estimate_cost(trace, "SNB")
        c2 = estimate_cost(trace, "MIC")
        assert c1.speedup_over(c2) == pytest.approx(c2.cycles / c1.cycles)


# --- batched GPU pricing vs the per-event oracle -------------------------


def oracle_spm_degrees(spec, ev):
    """Bank-conflict degree per warp of one local event: the maximum
    number of distinct words wanted from one bank."""
    warps = ev.lanes // spec.warp_size
    words = ev.offsets // 4
    banks = words % spec.spm_banks
    tri = np.unique(np.stack([warps, banks, words], axis=1), axis=0)
    wb_change = np.empty(len(tri), dtype=bool)
    wb_change[0] = True
    wb_change[1:] = np.any(tri[1:, :2] != tri[:-1, :2], axis=1)
    wb_starts = np.flatnonzero(wb_change)
    counts = np.diff(np.append(wb_starts, len(tri)))
    warp_of = tri[wb_starts, 0]
    w_change = np.empty(len(warp_of), dtype=bool)
    w_change[0] = True
    w_change[1:] = warp_of[1:] != warp_of[:-1]
    return np.maximum.reduceat(counts, np.flatnonzero(w_change))


def oracle_transaction_lines(spec, ev):
    """One line id per distinct segment touched by each warp of one
    global/constant event, warp-major, segments ascending."""
    warps = ev.lanes // spec.warp_size
    segs = ev.offsets // spec.segment
    pairs = np.unique(np.stack([warps, segs], axis=1), axis=0)
    return (np.int64(ev.buffer_id) << 40) | pairs[:, 1].astype(np.int64)


def oracle_time_group(model, gt):
    """``GPUModel.time_group`` priced one event at a time; also returns
    the transaction stream, or None when the group has no global or
    constant event."""
    s = model.spec
    spm_cycles = 0.0
    streams = []
    for ev in gt.events:
        if ev.space == AddressSpace.LOCAL:
            spm_cycles += int(oracle_spm_degrees(s, ev).sum()) * s.cost_spm
        else:
            streams.append(oracle_transaction_lines(s, ev))
    stream = None
    mem_cycles = 0.0
    transactions = 0
    if streams:
        stream = np.concatenate(streams)
        transactions = len(stream)
        counts = model._caches().run(stream)
        level_costs = [s.cost_l1, s.cost_l2] if s.global_l1 else [s.cost_l2]
        mem_cycles = sum(h * c for h, c in zip(counts.level_hits, level_costs))
        mem_cycles += counts.memory * s.cost_mem
    cost = GPUGroupCost(
        compute_cycles=gt.inst_count / s.issue_width,
        mem_cycles=mem_cycles * (1.0 - s.latency_hiding),
        spm_cycles=spm_cycles,
        transactions=transactions,
    )
    return cost, stream


def mem_event(space, buffer_id, lanes, offsets, phase=0):
    return MemEvent(
        space=space,
        is_store=False,
        buffer_id=buffer_id,
        offsets=np.asarray(offsets, np.int64),
        lanes=np.asarray(lanes, np.int64),
        elem_size=4,
        phase=phase,
        inst_id=0,
    )


def hand_built_group(warp_size):
    """Mixed local and global events over two buffers: a partial last
    warp, unsorted lanes, a broadcast word and bank conflicts."""
    L, G = AddressSpace.LOCAL, AddressSpace.GLOBAL
    n = 2 * warp_size + 5  # the last warp is partial
    rng = np.random.default_rng(warp_size)
    lanes = np.arange(n)
    shuffled = rng.permutation(n)
    evs = [
        mem_event(G, 1, lanes, lanes * 4),  # coalesced
        mem_event(L, 0, shuffled, shuffled * 4),  # conflict-free, unsorted
        mem_event(L, 0, lanes, np.zeros(n, np.int64)),  # broadcast word
        mem_event(L, 0, lanes, lanes * 4 * 32),  # every lane in bank 0
        mem_event(L, 0, shuffled, (shuffled % 4) * 128 + 8),  # degree 4
        mem_event(G, 2, shuffled, shuffled * 4 * 64, phase=1),  # strided
        mem_event(AddressSpace.CONSTANT, 1, lanes[::3], lanes[::3] * 4),
        mem_event(G, 1, lanes[::-1], rng.integers(0, 1 << 16, n) * 4),
    ]
    return GroupTrace(group_id=(0,), work_items=n, events=evs, inst_count=10 * n)


def assert_same_cost(got, want):
    assert got.compute_cycles == want.compute_cycles
    assert got.mem_cycles == want.mem_cycles
    assert got.spm_cycles == want.spm_cycles
    assert got.transactions == want.transactions


def assert_matches_oracle(model, gt):
    """Same cost, field for field, and the same transaction stream in
    the same order (the order decides the cache hits)."""
    want, stream = oracle_time_group(model, gt)
    assert_same_cost(model.time_group(gt), want)
    other = [e for e in gt.events if e.space != AddressSpace.LOCAL and e.count]
    if other:
        np.testing.assert_array_equal(model._transactions(other), stream)


class TestBatchedGPUPricing:
    @pytest.mark.parametrize("warp_size", [32, 64])
    def test_hand_built_group_matches_oracle(self, warp_size):
        spec = replace(FERMI, warp_size=warp_size)
        model = GPUModel(spec, memoize=False)
        gt = hand_built_group(warp_size)
        assert_matches_oracle(model, gt)
        cost = model.time_group(gt)
        # the hand-built group does exercise conflicts and coalescing
        assert cost.spm_cycles > 3 * (gt.work_items // warp_size) * spec.cost_spm
        assert cost.transactions > 0

    def test_conflict_degree_counts_distinct_words(self):
        # one warp: lanes 0..15 read word 0 (broadcast), lanes 16..31
        # read words 32, 64, 96, 128 of bank 0: 5 distinct words in bank 0
        offs = np.r_[np.zeros(16), np.repeat([32, 64, 96, 128], 4)] * 4
        ev = mem_event(AddressSpace.LOCAL, 0, np.arange(32), offs)
        gt = GroupTrace(group_id=(0,), work_items=32, events=[ev])
        cost = GPUModel(FERMI, memoize=False).time_group(gt)
        assert cost.spm_cycles == 5 * FERMI.cost_spm

    def test_zero_lane_events_price_nothing(self):
        gt = hand_built_group(32)
        empty = [
            mem_event(AddressSpace.LOCAL, 0, [], []),
            mem_event(AddressSpace.GLOBAL, 3, [], []),
        ]
        padded = GroupTrace(
            group_id=gt.group_id,
            work_items=gt.work_items,
            events=empty[:1] + gt.events + empty[1:],
            inst_count=gt.inst_count,
        )
        model = GPUModel(FERMI, memoize=False)
        assert_same_cost(model.time_group(padded), model.time_group(gt))
        only_empty = GroupTrace(group_id=(0,), work_items=1, events=empty)
        cost = model.time_group(only_empty)
        assert cost.spm_cycles == 0.0 and cost.mem_cycles == 0.0
        assert cost.transactions == 0

    @pytest.mark.parametrize("variant", ["with", "without"])
    def test_every_app_group_matches_oracle(self, variant):
        models = [GPUModel(spec, memoize=False) for spec in GPU_DEVICES.values()]
        for app_id in TABLE_ORDER:
            for gt in app_trace(app_id, variant, "test").groups:
                for model in models:
                    assert_matches_oracle(model, gt)
