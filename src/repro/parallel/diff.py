"""Differential-equivalence layer: two executions, field by field.

The fast paths' contract is *bit-identity*: the tape backend must
produce exactly the trace, outputs and model cycles of the reference
interpreter, and a fanned-out experiment matrix exactly the serial
grid.  This module is the single arbiter of that contract —
the differential test suite, search verification and the fuzz oracle
all compare through it, so a violation always surfaces
as the same readable "first mismatch" description instead of a deep
assertion failure.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.runtime.trace import KernelTrace, MemEvent


class DifferentialMismatch(AssertionError):
    """Two executions disagreed (with the field that did)."""


def _event_mismatch(a: MemEvent, b: MemEvent) -> Optional[str]:
    for attr in ("space", "is_store", "buffer_id", "elem_size", "phase", "inst_id"):
        va, vb = getattr(a, attr), getattr(b, attr)
        if va != vb:
            return f"{attr} {va!r} != {vb!r}"
    if not np.array_equal(a.offsets, b.offsets):
        return f"offsets differ (serial {a.offsets!r} vs parallel {b.offsets!r})"
    if not np.array_equal(a.lanes, b.lanes):
        return f"lanes differ (serial {a.lanes!r} vs parallel {b.lanes!r})"
    return None


def trace_mismatch(a: KernelTrace, b: KernelTrace) -> Optional[str]:
    """First difference between two kernel traces, or ``None`` if equal."""
    for attr in ("total_groups", "local_size", "global_size"):
        va, vb = getattr(a, attr), getattr(b, attr)
        if tuple(np.atleast_1d(va)) != tuple(np.atleast_1d(vb)):
            return f"{attr}: {va!r} != {vb!r}"
    if len(a.groups) != len(b.groups):
        return f"group count: {len(a.groups)} != {len(b.groups)}"
    for gi, (ga, gb) in enumerate(zip(a.groups, b.groups)):
        for attr in ("group_id", "work_items", "inst_count", "barriers"):
            va, vb = getattr(ga, attr), getattr(gb, attr)
            if va != vb:
                return f"group[{gi}].{attr}: {va!r} != {vb!r}"
        if len(ga.events) != len(gb.events):
            return (
                f"group[{gi}] {ga.group_id}: event count "
                f"{len(ga.events)} != {len(gb.events)}"
            )
        for ei, (ea, eb) in enumerate(zip(ga.events, gb.events)):
            why = _event_mismatch(ea, eb)
            if why is not None:
                return f"group[{gi}] {ga.group_id} event[{ei}]: {why}"
    return None


def assert_traces_equal(
    serial: KernelTrace, parallel: KernelTrace, context: str = ""
) -> None:
    why = trace_mismatch(serial, parallel)
    if why is not None:
        prefix = f"{context}: " if context else ""
        raise DifferentialMismatch(f"{prefix}trace mismatch at {why}")


def assert_outputs_equal(
    serial: Mapping[str, np.ndarray],
    parallel: Mapping[str, np.ndarray],
    context: str = "",
) -> None:
    """Exact (bitwise) comparison of output buffers — no tolerances."""
    prefix = f"{context}: " if context else ""
    if set(serial) != set(parallel):
        raise DifferentialMismatch(
            f"{prefix}output names {sorted(serial)} != {sorted(parallel)}"
        )
    for name in sorted(serial):
        a, b = serial[name], parallel[name]
        if a.dtype != b.dtype or a.shape != b.shape:
            raise DifferentialMismatch(
                f"{prefix}output {name!r}: {a.dtype}{a.shape} != {b.dtype}{b.shape}"
            )
        if not np.array_equal(a.view(np.uint8), b.view(np.uint8)):
            bad = np.flatnonzero(a.view(np.uint8).ravel() != b.view(np.uint8).ravel())
            raise DifferentialMismatch(
                f"{prefix}output {name!r} differs at {len(bad)} bytes "
                f"(first at byte {int(bad[0])})"
            )
