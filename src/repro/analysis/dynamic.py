"""Dynamic fallback: replay interpreter traces and check them for races.

When the static pair analysis cannot decide an access pair (loop-counter
indices, symbolic strides, opaque values), the analyzer replays the
interpreter's :class:`~repro.runtime.trace.GroupTrace` instead: the trace
records, per vectorised access, the concrete byte offsets and the lane
(work-item) ids, stamped with the barrier phase.  Within one phase the
work-items of a group are unordered, so

* two *stores* from different lanes to the same byte in one phase are a
  write-write race;
* a *store* and a *load* from different lanes touching the same byte in
  one phase are a read-write race (checked in both program orders);
* a ``__local`` load of a byte no store ever wrote is an uninitialised
  read — legal OpenCL (local memory is just uninitialised) but fatal to
  Grover's reversibility contract: there is no staging store, hence no
  global address, to redirect the load to.

The replay is exact for the traced input; it complements (and is checked
against) the static verdicts, never replaces them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.ir.function import Function
from repro.ir.types import AddressSpace
from repro.runtime.trace import GroupTrace, KernelTrace

from repro.analysis.model import AnalysisReport, Finding
from repro.analysis.races import KernelFacts

__all__ = ["replay_group", "replay_trace", "apply_replay"]

_SPACE_NAMES = {AddressSpace.LOCAL: "local", AddressSpace.GLOBAL: "global",
                AddressSpace.CONSTANT: "constant"}

#: per-(group, buffer) cap so a pathological kernel cannot flood a report
_MAX_FINDINGS_PER_BUFFER = 8


def _expand(offsets: np.ndarray, lanes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Element offsets -> per-byte offsets with matching lane ids."""
    offs = np.asarray(offsets, np.int64)
    span = np.arange(size, dtype=np.int64)
    return (offs[:, None] + span[None, :]).ravel(), np.repeat(
        np.asarray(lanes, np.int64), size
    )


def replay_group(
    gt: GroupTrace,
    report: AnalysisReport,
    names: Optional[Dict[int, str]] = None,
) -> None:
    """Check one work-group's trace; findings are added to ``report``.

    ``names`` maps an access's inst id to the object it targets; an
    access without an entry is named after its buffer id.
    """
    names = names or {}

    def obj(inst_id: int, buffer_id: int) -> str:
        return names.get(inst_id, f"buffer#{buffer_id}")

    # per-buffer byte maps; "phase" arrays reset at each barrier phase,
    # "ever" arrays persist for the staging checks
    extents: Dict[int, int] = {}
    spaces: Dict[int, AddressSpace] = {}
    for e in gt.events:
        if len(e.offsets) == 0:
            continue
        hi = int(np.asarray(e.offsets).max()) + e.elem_size
        extents[e.buffer_id] = max(extents.get(e.buffer_id, 0), hi)
        spaces[e.buffer_id] = e.space

    writer_lane: Dict[int, np.ndarray] = {}
    writer_inst: Dict[int, np.ndarray] = {}
    reader_lane: Dict[int, np.ndarray] = {}
    reader_inst: Dict[int, np.ndarray] = {}
    ever_written: Dict[int, np.ndarray] = {}
    last_inst: Dict[int, np.ndarray] = {}
    counts: Dict[int, int] = {}
    for buf, n in extents.items():
        writer_lane[buf] = np.full(n, -1, np.int64)
        writer_inst[buf] = np.full(n, -1, np.int64)
        reader_lane[buf] = np.full(n, -1, np.int64)
        reader_inst[buf] = np.full(n, -1, np.int64)
        ever_written[buf] = np.zeros(n, bool)
        last_inst[buf] = np.full(n, -1, np.int64)
        counts[buf] = 0

    def emit(buf: int, finding: Finding) -> None:
        if counts[buf] >= _MAX_FINDINGS_PER_BUFFER:
            return
        if report.add(finding):
            counts[buf] += 1

    current_phase = 0
    for e in gt.events:
        if e.phase != current_phase:
            current_phase = e.phase
            for buf in extents:
                writer_lane[buf][:] = -1
                writer_inst[buf][:] = -1
                reader_lane[buf][:] = -1
                reader_inst[buf][:] = -1
        if len(e.offsets) == 0:
            continue
        buf = e.buffer_id
        space = _SPACE_NAMES.get(e.space, str(e.space))
        bytes_, lanes = _expand(e.offsets, e.lanes, e.elem_size)
        if e.is_store:
            # intra-event: two lanes of one vectorised store on one byte
            order = np.argsort(bytes_, kind="stable")
            sb, sl = bytes_[order], lanes[order]
            dup = sb[1:] == sb[:-1]
            clash = dup & (sl[1:] != sl[:-1])
            if clash.any():
                k = int(np.flatnonzero(clash)[0])
                emit(buf, Finding(
                    kind="race-ww",
                    space=space,
                    obj=obj(e.inst_id, buf),
                    detail=(
                        f"lanes {int(sl[k])} and {int(sl[k + 1])} both store "
                        f"byte {int(sb[k])} in phase {e.phase} (store %{e.inst_id})"
                    ),
                    decided_by="dynamic",
                    a_inst=e.inst_id,
                    b_inst=e.inst_id,
                    group_id=gt.group_id,
                    phase=e.phase,
                ))
            # against earlier same-phase stores from other lanes
            prev = writer_lane[buf][bytes_]
            clash = (prev != -1) & (prev != lanes)
            if clash.any():
                k = int(np.flatnonzero(clash)[0])
                emit(buf, Finding(
                    kind="race-ww",
                    space=space,
                    obj=obj(e.inst_id, buf),
                    detail=(
                        f"lane {int(lanes[k])} (store %{e.inst_id}) and lane "
                        f"{int(prev[k])} (store %{int(writer_inst[buf][bytes_[k]])}) "
                        f"both store byte {int(bytes_[k])} in phase {e.phase}"
                    ),
                    decided_by="dynamic",
                    a_inst=e.inst_id,
                    b_inst=int(writer_inst[buf][bytes_[k]]),
                    group_id=gt.group_id,
                    phase=e.phase,
                ))
            # against earlier same-phase loads from other lanes
            prev = reader_lane[buf][bytes_]
            clash = (prev != -1) & (prev != lanes)
            if clash.any():
                k = int(np.flatnonzero(clash)[0])
                emit(buf, Finding(
                    kind="race-rw",
                    space=space,
                    obj=obj(e.inst_id, buf),
                    detail=(
                        f"lane {int(lanes[k])} stores byte {int(bytes_[k])} that "
                        f"lane {int(prev[k])} loads (%{int(reader_inst[buf][bytes_[k]])}) "
                        f"in the same phase {e.phase}"
                    ),
                    decided_by="dynamic",
                    a_inst=e.inst_id,
                    b_inst=int(reader_inst[buf][bytes_[k]]),
                    group_id=gt.group_id,
                    phase=e.phase,
                ))
            writer_lane[buf][bytes_] = lanes
            writer_inst[buf][bytes_] = e.inst_id
            ever_written[buf][bytes_] = True
            last_inst[buf][bytes_] = e.inst_id
        else:
            # load vs earlier same-phase stores from other lanes
            prev = writer_lane[buf][bytes_]
            clash = (prev != -1) & (prev != lanes)
            if clash.any():
                k = int(np.flatnonzero(clash)[0])
                emit(buf, Finding(
                    kind="race-rw",
                    space=space,
                    obj=obj(e.inst_id, buf),
                    detail=(
                        f"lane {int(lanes[k])} loads byte {int(bytes_[k])} that "
                        f"lane {int(prev[k])} stores (%{int(writer_inst[buf][bytes_[k]])}) "
                        f"in the same phase {e.phase}"
                    ),
                    decided_by="dynamic",
                    a_inst=e.inst_id,
                    b_inst=int(writer_inst[buf][bytes_[k]]),
                    group_id=gt.group_id,
                    phase=e.phase,
                ))
            if e.space == AddressSpace.LOCAL:
                unwritten = ~ever_written[buf][bytes_]
                if unwritten.any():
                    k = int(np.flatnonzero(unwritten)[0])
                    emit(buf, Finding(
                        kind="uninit-read",
                        space=space,
                        obj=obj(e.inst_id, buf),
                        detail=(
                            f"load %{e.inst_id} reads byte {int(bytes_[k])} of "
                            f"local memory that no store ever staged "
                            f"(phase {e.phase}); there is no global source "
                            "to redirect this read to"
                        ),
                        decided_by="dynamic",
                        a_inst=e.inst_id,
                        group_id=gt.group_id,
                        phase=e.phase,
                    ))
            reader_lane[buf][bytes_] = lanes
            reader_inst[buf][bytes_] = e.inst_id


def replay_trace(
    trace: KernelTrace,
    report: Optional[AnalysisReport] = None,
    kernel: Optional[Function] = None,
    facts: Optional[KernelFacts] = None,
) -> AnalysisReport:
    """Replay every traced group (intra-group checks only)."""
    report = report or AnalysisReport(kernel.name if kernel else "<trace>")
    names = (facts or KernelFacts(kernel)).obj_names if kernel else {}
    for gt in trace.groups:
        replay_group(gt, report, names)
    return report


def apply_replay(
    report: AnalysisReport,
    trace: KernelTrace,
    kernel: Function,
    facts: Optional[KernelFacts] = None,
) -> None:
    """Resolve the report's statically undecided pairs with a replay.

    When the trace covers every launched group (no sampling), a clean
    replay is an exact verdict for that input: the undecided pairs are
    moved to the dynamically-decided bucket.  A sampled trace keeps them
    undecided (the replay findings still land on the report).
    """
    replay_trace(trace, report, kernel, facts)
    report.replayed = trace.sampled_groups == trace.total_groups
    if report.replayed:
        report.pairs_dynamic += report.pairs_undecided
        report.pairs_undecided = 0
        report.undecided = []
        # the pairs are decided now, but the static-time reasons stay
        # reachable (report.deferrals_on consults both lists)
        report.deferrals_resolved.extend(report.deferrals)
        report.deferrals = []
