"""``GroupTrace.fingerprint`` partitions groups exactly as the per-event
blake2b digest it replaced.

The group memo of the performance models reuses a group's cost for
every group with an equal fingerprint, so the digest may change but the
partition it induces may not: two groups must get equal fingerprints
exactly when the reference digest below says so.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.fuzz.generate import generate_case
from repro.fuzz.oracle import input_data
from repro.ir.types import AddressSpace
from repro.runtime import Memory
from repro.runtime.errors import BarrierDivergenceError, MemoryFault, RuntimeLaunchError
from repro.runtime.trace import GroupTrace, MemEvent
from repro.session import Session

#: the pool kernels ``perfbench/run.py --workload kernel-ingest --size
#: tiny --seed 1`` ingests (``generate_case(3, i)``)
INGEST_TINY = (129, 192, 241, 275, 429, 522, 777, 920, 967, 999, 1014, 1165)


def reference_fingerprint(g: GroupTrace) -> bytes:
    """The original digest: per event a header row, then the offsets
    relative to the buffer's group minimum, then the lane ids."""
    base: dict = {}
    for e in g.events:
        if len(e.offsets):
            lo = int(np.asarray(e.offsets).min())
            prior = base.get(e.buffer_id)
            base[e.buffer_id] = lo if prior is None else min(prior, lo)
    slots: dict = {}
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([g.work_items, g.inst_count, g.barriers], np.int64).tobytes())
    for e in g.events:
        slot = slots.setdefault(e.buffer_id, len(slots))
        h.update(
            np.array(
                [slot, int(e.space), int(e.is_store), e.elem_size, e.phase, e.inst_id],
                np.int64,
            ).tobytes()
        )
        rel = np.asarray(e.offsets, np.int64) - base.get(e.buffer_id, 0)
        h.update(rel.tobytes())
        h.update(np.asarray(e.lanes, np.int64).tobytes())
    return h.digest()


def partition(keys) -> list:
    """Each item's class, named by the first item carrying its key."""
    first: dict = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def assert_same_partition(groups) -> None:
    for g in groups:
        g._fingerprint = None
    new = [g.fingerprint() for g in groups]
    assert partition(new) == partition(reference_fingerprint(g) for g in groups)


def test_partition_of_the_paper_traces():
    traces = {
        id(t): t
        for t in (
            app_trace(app, variant, "test")
            for app in TABLE_ORDER
            for variant in ("with", "without")
        )
    }
    assert_same_partition([g for t in traces.values() for g in t.groups])


@pytest.mark.parametrize("backend", ["tape", "reference"])
def test_partition_of_fresh_kernels(backend):
    session = Session(env={}, exec_backend=backend)
    groups = []
    for index in INGEST_TINY:
        case = generate_case(3, index)
        kernel = session.compile_kernel(case.source(), case.kernel_name)
        mem = Memory()
        args = {
            "out": mem.alloc(int(np.prod(case.global_size)) * 4, "out"),
            "in": mem.from_array(input_data(case.in_elems), "in"),
            "P": case.p_value,
        }
        try:
            res = session.launch(
                kernel, case.global_size, case.local_size, args,
                memory=mem, collect_trace=True,
            )
        except (BarrierDivergenceError, MemoryFault, RuntimeLaunchError):
            continue
        groups += res.trace.groups
    assert len(groups) > 12
    assert_same_partition(groups)


def _event(buf=1, offs=(0, 4, 8, 12), lanes=None, store=False, phase=0, inst=7):
    offs = np.array(offs, np.int64)
    if lanes is None:
        lanes = np.arange(len(offs), dtype=np.int64)
    return MemEvent(
        AddressSpace.GLOBAL, store, buf, offs, lanes, 4, phase, inst
    )


def _group(*events, work_items=4, inst_count=10, barriers=0):
    return GroupTrace((0,), work_items, list(events), inst_count, barriers)


def test_synthetic_partition():
    shared = np.arange(4, dtype=np.int64)
    cases = [
        # 0, 1: one shared lane array versus equal copies
        _group(_event(lanes=shared), _event(lanes=shared, store=True)),
        _group(_event(lanes=shared.copy()), _event(lanes=shared.copy(), store=True)),
        # 2: int32 lanes of the same values
        _group(
            _event(lanes=shared.astype(np.int32)),
            _event(lanes=shared.astype(np.int32), store=True),
        ),
        # 3: other lanes, in the same pattern of sharing as 0
        _group(_event(lanes=shared[::-1]), _event(lanes=shared[::-1], store=True)),
        # 4: translated offsets (same relative pattern as 0)
        _group(
            _event(offs=(64, 68, 72, 76), lanes=shared),
            _event(offs=(64, 68, 72, 76), lanes=shared, store=True),
        ),
        # 5: the store goes to a second buffer
        _group(_event(lanes=shared), _event(buf=2, lanes=shared, store=True)),
        # 6: a second buffer translated independently of the first
        _group(
            _event(offs=(32, 36, 40, 44), lanes=shared),
            _event(buf=9, offs=(0, 4, 8, 12), lanes=shared, store=True),
        ),
        # 7-9: an empty event (no active lane), no events at all, and
        # no events but another instruction count
        _group(_event(offs=(), lanes=np.empty(0, np.int64)), _event(lanes=shared)),
        _group(),
        _group(inst_count=11),
        # 10, 11: the same offsets split differently between two events
        _group(
            _event(offs=(0, 4, 8), lanes=shared[:3]),
            _event(offs=(12,), lanes=shared[3:]),
        ),
        _group(
            _event(offs=(0, 4), lanes=shared[:2]),
            _event(offs=(8, 12), lanes=shared[2:]),
        ),
        # 12, 13: another phase, another instruction
        _group(_event(lanes=shared, phase=1), _event(lanes=shared, store=True)),
        _group(_event(lanes=shared, inst=8), _event(lanes=shared, store=True)),
    ]
    assert_same_partition(cases)
    fp = [g.fingerprint() for g in cases]
    # shared lanes, equal copies, int32 lanes and translated offsets
    # (by the same amount, or per buffer) are one pattern
    assert fp[0] == fp[1] == fp[2] == fp[4]
    assert fp[5] == fp[6]
    assert len(set(fp)) == len(fp) - 4
