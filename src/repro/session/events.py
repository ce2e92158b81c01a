"""Structured observability: the typed event bus threaded through every layer.

Every stage of the compile -> transform -> launch -> model pipeline emits
*typed* events (``compile_start``, ``pass_applied``, ``cache_hit``,
``launch_start``, ``pool_fallback``, ``model_memo_hit``, ...) through a
single process-wide :class:`EventBus`.  Emission is a no-op unless a sink
is attached, so instrumented hot paths cost one predicate when nobody is
listening.

Two sinks ship with the bus:

* :class:`CollectorSink` — an in-memory list, for tests and interactive
  inspection;
* :class:`JsonlSink` — one JSON object per line, schema-validated on the
  way out (``repro ... --trace-out events.jsonl``).

Every event kind carries a declared payload schema in :data:`EVENT_SCHEMA`;
:func:`validate_event` / :func:`validate_jsonl` check conformance (the CI
smoke job validates an emitted trace end to end).

Fork safety: the bus records the attaching process id and goes inactive in
forked workers, so a fanned-out case never interleaves worker writes into
the parent's JSONL stream (the parent reports each case's result
instead).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

__all__ = [
    "EVENT_SCHEMA",
    "Event",
    "EventBus",
    "EventSchemaError",
    "CollectorSink",
    "JsonlSink",
    "bus",
    "bus_active",
    "emit",
    "attach",
    "detach",
    "collect",
    "validate_event",
    "validate_jsonl",
]


class EventSchemaError(ValueError):
    """An event (or an emitted JSONL line) does not match its schema."""


#: ``kind -> {payload field -> allowed types}``.  ``float`` fields accept
#: ints (JSON round-trips do not preserve the distinction); ``list``
#: fields hold JSON-serialisable scalars only.
EVENT_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # -- frontend -----------------------------------------------------------
    "compile_start": {"module": (str,), "source_sha1": (str,)},
    "compile_cache_hit": {"module": (str,), "source_sha1": (str,)},
    "compile_cache_miss": {"module": (str,), "source_sha1": (str,)},
    "compile_end": {"module": (str,), "kernels": (list,), "wall_ms": (int, float)},
    # -- pass pipeline ------------------------------------------------------
    "pass_applied": {
        "function": (str,),
        "pass": (str,),
        "pipeline": (str,),
        "rewrites": (int,),
        "insts_before": (int,),
        "insts_after": (int,),
        "wall_ms": (int, float),
    },
    "verify_ok": {"function": (str,), "stage": (str,)},
    # -- the Grover pass ----------------------------------------------------
    "grover_start": {"kernel": (str,)},
    "grover_candidate": {
        "kernel": (str,),
        "name": (str,),
        "status": (str,),
        "reason": (str,),
    },
    "grover_end": {
        "kernel": (str,),
        "transformed": (int,),
        "rejected": (int,),
        "wall_ms": (int, float),
    },
    # -- runtime ------------------------------------------------------------
    "launch_start": {
        "kernel": (str,),
        "global_size": (list,),
        "local_size": (list,),
        "total_groups": (int,),
    },
    # serial execution instead of the pool; where: make_pool (no pool),
    # or matrix/search/fuzz (one case redone in the parent)
    "pool_fallback": {"where": (str,), "reason": (str,), "error": (str,)},
    # persistent worker pool: forked once, reused across fan-outs
    "pool_start": {"workers": (int,), "wall_ms": (int, float)},
    "pool_recycle": {"reason": (str,), "workers": (int,)},
    "group_executed": {"group_id": (list,), "work_items": (int,)},
    "launch_end": {
        "kernel": (str,),
        "groups_executed": (int,),
        "work_items": (int,),
        "wall_ms": (int, float),
        # "" on success; "ExcType: message" when the launch raised (the
        # event is emitted either way, so a sweep that dies mid-launch
        # still closes its launch_start bracket in the JSONL stream)
        "error": (str,),
    },
    # one tape launch emits both after its last batch: the tape is
    # recorded while the first batch runs, so tape_compile's wall_ms is
    # the closure-compile share of that batch, and tape_replay covers
    # every pick and batch, the recording one included
    "tape_compile": {
        "kernel": (str,),
        "steps": (int,),
        "closures": (int,),
        "wall_ms": (int, float),
    },
    "tape_replay": {
        "kernel": (str,),
        "groups": (int,),
        "batches": (int,),
        "evicted": (int,),
        "wall_ms": (int, float),
    },
    "tape_evict": {
        "kernel": (str,),
        "group_id": (list,),
        "step": (int,),
        "reason": (str,),
    },
    # -- performance models -------------------------------------------------
    "model_memo_hit": {"device": (str,), "fingerprint_sha1": (str,)},
    "model_kernel_timed": {
        "device": (str,),
        "cycles": (int, float),
        "groups": (int,),
    },
    # -- static/dynamic analyzer --------------------------------------------
    "analysis_start": {"kernel": (str,), "mode": (str,)},
    "analysis_finding": {
        "kernel": (str,),
        "finding": (str,),
        "space": (str,),
        "object": (str,),
        "decided_by": (str,),
        "detail": (str,),
    },
    "analysis_end": {
        "kernel": (str,),
        "verdict": (str,),
        "findings": (int,),
        "pairs_static": (int,),
        "pairs_dynamic": (int,),
        "pairs_undecided": (int,),
        "wall_ms": (int, float),
    },
    "analysis_deferral": {
        "kernel": (str,),
        # one of repro.analysis.DEFERRAL_CATEGORIES
        "category": (str,),
        "space": (str,),
        "object": (str,),
        "a_inst": (int,),
        # -1 for single-site deferrals
        "b_inst": (int,),
        # True when a full-trace replay later decided the pair
        "resolved": (bool,),
        "why": (str,),
    },
    # -- generative kernel fuzzer -------------------------------------------
    "fuzz_case": {
        "index": (int,),
        "case_seed": (int,),
        "kernel": (str,),
        # 'agree' | 'mismatch' | 'skip:<reason>'
        "outcome": (str,),
        # execution outcome: 'ok' | 'error:<ExcType>'
        "exec": (str,),
        # analyzer verdict ('clean'/'race'/...), '+deferred' suffixed
        "analyzer": (str,),
        # Grover summary, e.g. 't1r2' / 'veto' / 'no-local'
        "grover": (str,),
        "features": (list,),
        "wall_ms": (int, float),
    },
    "fuzz_mismatch": {
        "index": (int,),
        "case_seed": (int,),
        # which cross-check disagreed ('exec-diff', 'veto-miss', ...)
        "check": (str,),
        "detail": (str,),
        # path of the minimized reproducer ("" when --minimize is off)
        "minimized": (str,),
    },
    "fuzz_promote": {
        "index": (int,),
        "case_seed": (int,),
        "path": (str,),
        # the verdict shape that made the case corpus-worthy
        "shape": (str,),
    },
    "fuzz_end": {
        "cases": (int,),
        "mismatches": (int,),
        "promoted": (int,),
        "workers": (int,),
        "wall_ms": (int, float),
    },
    # -- pipeline search ----------------------------------------------------
    "search_start": {
        "app": (str,),
        "rules": (list,),
        "beam": (int,),
        "depth": (int,),
        "device": (str,),
    },
    "search_candidate": {
        "app": (str,),
        "pipeline": (list,),
        "rewrites": (list,),
        # -1.0 for candidates whose evaluation failed or whose last
        # rule rewrote nothing (no-ops are not priced)
        "cycles": (int, float),
        # survived the keep filter (no error, last rule rewrote something)
        "kept": (bool,),
        # "" when the candidate evaluated cleanly or was a no-op; the
        # failure reason ("ExcType: message") when it raised
        "error": (str,),
    },
    "search_verified": {
        "app": (str,),
        "pipeline": (list,),
        "ok": (bool,),
        # "" when ok; the failing gate's message otherwise
        "reason": (str,),
    },
    "search_end": {
        "app": (str,),
        "pipeline": (list,),
        "cycles": (int, float),
        "baseline_cycles": (int, float),
        "evaluated": (int,),
        "verified": (bool,),
        "wall_ms": (int, float),
    },
    # -- experiment matrix --------------------------------------------------
    "matrix_start": {"apps": (list,), "devices": (list,), "workers": (int,)},
    "matrix_end": {"cases": (int,), "wall_ms": (int, float)},
}


@dataclass(frozen=True)
class Event:
    """One typed pipeline event: a kind, a monotonic sequence number and
    a schema-conforming payload."""

    kind: str
    seq: int
    payload: Mapping[str, object]

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"seq": self.seq, "kind": self.kind}
        d.update(self.payload)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def validate_event(kind: str, payload: Mapping[str, object]) -> None:
    """Raise :class:`EventSchemaError` unless ``payload`` matches ``kind``."""
    schema = EVENT_SCHEMA.get(kind)
    if schema is None:
        raise EventSchemaError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_SCHEMA)}"
        )
    missing = set(schema) - set(payload)
    if missing:
        raise EventSchemaError(f"{kind}: missing payload fields {sorted(missing)}")
    extra = set(payload) - set(schema)
    if extra:
        raise EventSchemaError(f"{kind}: unexpected payload fields {sorted(extra)}")
    for name, types in schema.items():
        value = payload[name]
        # bools satisfy isinstance(..., int); only accept one where the
        # schema explicitly declares bool
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise EventSchemaError(
                f"{kind}.{name}: expected {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__} ({value!r})"
            )


class CollectorSink:
    """In-memory sink for tests: records every event in order."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [e.kind for e in self.events]

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def close(self) -> None:  # sink protocol
        pass


class JsonlSink:
    """Appends one JSON object per event to ``path`` (line-buffered)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "w", buffering=1)
        self.count = 0

    def __call__(self, event: Event) -> None:
        self._fh.write(event.to_json() + "\n")
        self.count += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class EventBus:
    """Process-wide dispatcher: ``emit`` fans a typed event to every sink.

    Inactive (zero-cost apart from one predicate) when no sink is
    attached or when running in a forked child of the attaching process.
    """

    def __init__(self) -> None:
        self._sinks: List[Callable[[Event], None]] = []
        self._seq = 0
        self._pid = os.getpid()

    @property
    def active(self) -> bool:
        return bool(self._sinks) and os.getpid() == self._pid

    def attach(self, sink: Callable[[Event], None]) -> Callable[[Event], None]:
        self._pid = os.getpid()
        self._sinks.append(sink)
        return sink

    def detach(self, sink: Callable[[Event], None]) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def emit(self, kind: str, **payload: object) -> None:
        if not self.active:
            return
        validate_event(kind, payload)
        self._seq += 1
        event = Event(kind, self._seq, payload)
        for sink in list(self._sinks):
            sink(event)


#: the process-wide bus every layer emits into
_BUS = EventBus()


def bus() -> EventBus:
    return _BUS


def bus_active() -> bool:
    return _BUS.active


def emit(kind: str, **payload: object) -> None:
    """Emit one typed event on the process bus (no-op without sinks)."""
    _BUS.emit(kind, **payload)


def attach(sink: Callable[[Event], None]) -> Callable[[Event], None]:
    return _BUS.attach(sink)


def detach(sink: Callable[[Event], None]) -> None:
    _BUS.detach(sink)


@contextmanager
def collect() -> Iterator[CollectorSink]:
    """``with collect() as sink:`` — capture events for the block."""
    sink = CollectorSink()
    _BUS.attach(sink)
    try:
        yield sink
    finally:
        _BUS.detach(sink)


def validate_jsonl(path: str) -> int:
    """Validate a ``--trace-out`` file line by line; returns event count.

    Checks that every line is a JSON object, its ``kind`` is registered,
    its payload matches the kind's schema, and ``seq`` is strictly
    increasing.  Raises :class:`EventSchemaError` on the first violation.
    """
    count = 0
    last_seq = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EventSchemaError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise EventSchemaError(f"{path}:{lineno}: not a JSON object")
            kind = obj.get("kind")
            seq = obj.get("seq")
            if not isinstance(kind, str):
                raise EventSchemaError(f"{path}:{lineno}: missing 'kind'")
            if not isinstance(seq, int) or isinstance(seq, bool) or seq <= last_seq:
                raise EventSchemaError(
                    f"{path}:{lineno}: 'seq' must be a strictly increasing int, "
                    f"got {seq!r} after {last_seq}"
                )
            last_seq = seq
            payload = {k: v for k, v in obj.items() if k not in ("kind", "seq")}
            try:
                validate_event(kind, payload)
            except EventSchemaError as exc:
                raise EventSchemaError(f"{path}:{lineno}: {exc}") from exc
            count += 1
    return count
