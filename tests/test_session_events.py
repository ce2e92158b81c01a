"""The structured event bus: schema, sinks, fork safety, pipeline wiring.

Every layer of the pipeline emits typed events; these tests assert the
events actually flow (compile, passes, Grover, launch, models, matrix),
that the JSONL trace validates against :data:`EVENT_SCHEMA`, and that
the pool-fallback path is observable (event when a sink listens, a
:class:`PoolFallbackWarning` when nobody does).
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

from repro.session import Session, collect, validate_jsonl
from repro.session.events import (
    EVENT_SCHEMA,
    EventBus,
    EventSchemaError,
    JsonlSink,
    bus_active,
    emit,
    validate_event,
)
from tests.conftest import MT_SOURCE, REDUCTION_SOURCE, run_scalar_kernel

# ---------------------------------------------------------------------------
# bus mechanics
# ---------------------------------------------------------------------------


def test_emit_is_noop_without_sinks():
    assert not bus_active()
    # unknown kind + bad payload: still silent when nobody listens
    emit("not_a_kind", nonsense=object())


def test_schema_validated_when_active():
    with collect():
        with pytest.raises(EventSchemaError, match="unknown event kind"):
            emit("not_a_kind")
        with pytest.raises(EventSchemaError, match="missing payload fields"):
            emit("compile_start", module="m")
        with pytest.raises(EventSchemaError, match="unexpected payload fields"):
            emit("compile_start", module="m", source_sha1="x", extra=1)
        with pytest.raises(EventSchemaError, match="expected str"):
            emit("compile_start", module=3, source_sha1="x")


def test_bools_are_not_ints_in_schema():
    with pytest.raises(EventSchemaError):
        validate_event("pool_start", {"workers": True, "wall_ms": 1.0})


def test_seq_is_monotonic_per_bus():
    with collect() as sink:
        emit("grover_start", kernel="a")
        emit("grover_start", kernel="b")
    seqs = [e.seq for e in sink.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == 2


def test_forked_child_bus_goes_inactive():
    b = EventBus()
    b.attach(lambda e: None)
    assert b.active
    b._pid = os.getpid() + 1  # simulate being a forked child
    assert not b.active
    b.emit("grover_start", kernel="k")  # must be a silent no-op


def test_collector_helpers():
    with collect() as sink:
        emit("grover_start", kernel="k")
        emit("grover_end", kernel="k", transformed=1, rejected=0, wall_ms=0.5)
    assert sink.kinds() == ["grover_start", "grover_end"]
    assert len(sink.of_kind("grover_end")) == 1


# ---------------------------------------------------------------------------
# pipeline wiring: compile -> passes -> grover -> launch -> model
# ---------------------------------------------------------------------------


def test_compile_emits_cache_events():
    s = Session(env={})
    with collect() as sink:
        s.compile_kernel(MT_SOURCE)
        s.compile_kernel(MT_SOURCE)
    kinds = sink.kinds()
    assert kinds.count("compile_cache_miss") == 1
    assert kinds.count("compile_cache_hit") == 1
    assert kinds.count("compile_end") == 1  # the hit never recompiles
    applied = sink.of_kind("pass_applied")
    assert applied, "pass pipeline emitted nothing"
    for e in applied:
        assert e.payload["pass"] in {
            "promote-single-store-slots", "fold-constants", "cse", "licm",
            "normalize-gep", "dce",
        }
        # normalize-gep may grow the IR (canonicalised index arithmetic);
        # the counts just have to be sane, not monotone
        assert e.payload["insts_before"] > 0 and e.payload["insts_after"] > 0
        assert e.payload["rewrites"] >= 0 and e.payload["wall_ms"] >= 0


def test_grover_events_for_transform_and_rejection():
    from repro.core.grover import GroverError, GroverPass
    from repro.frontend import compile_kernel

    mt = compile_kernel(MT_SOURCE)
    with collect() as sink:
        GroverPass().run(mt)
    assert sink.kinds()[0] == "grover_start"
    assert sink.kinds()[-1] == "grover_end"
    done = sink.of_kind("grover_end")[0].payload
    assert done["transformed"] == 1 and done["rejected"] == 0

    red = compile_kernel(REDUCTION_SOURCE)
    with collect() as sink:
        with pytest.raises(GroverError):
            GroverPass().run(red)
    rejected = [
        e for e in sink.of_kind("grover_candidate")
        if e.payload["status"] == "rejected"
    ]
    assert rejected and rejected[0].payload["reason"]


def test_launch_emits_start_groups_end():
    with collect() as sink:
        run_scalar_kernel(
            MT_SOURCE,
            {"in": np.arange(32 * 32, dtype=np.float32), "W": 32, "H": 32},
            (32, 32), (16, 16),
            {"out": (np.float32, (32 * 32,))},
        )
    start = sink.of_kind("launch_start")
    end = sink.of_kind("launch_end")
    assert len(start) == 1 and len(end) == 1
    assert start[0].payload["total_groups"] == 4
    assert len(sink.of_kind("group_executed")) == 4
    assert end[0].payload["work_items"] == 32 * 32


def test_model_events():
    from repro.perf import devices
    from repro.perf.cpumodel import CPUModel
    from repro.runtime import Memory, launch
    from repro.frontend import compile_kernel

    kernel = compile_kernel(MT_SOURCE)
    mem = Memory()
    args = {
        "out": mem.alloc(32 * 32 * 4, "out"),
        "in": mem.from_array(np.arange(32 * 32, dtype=np.float32), "in"),
        "W": 32, "H": 32,
    }
    res = launch(kernel, (32, 32), (16, 16), args, memory=mem, collect_trace=True)
    model = CPUModel(devices.SNB, memoize=True)
    with collect() as sink:
        model.time_kernel(res.trace)
    timed = sink.of_kind("model_kernel_timed")
    assert len(timed) == 1
    assert timed[0].payload["device"] == devices.SNB.name
    assert timed[0].payload["cycles"] > 0
    # the transpose groups share one fingerprint -> 3 memo hits
    assert len(sink.of_kind("model_memo_hit")) == 3


# ---------------------------------------------------------------------------
# JSONL sink + validation
# ---------------------------------------------------------------------------


def test_session_trace_out_writes_valid_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    s = Session(env={}, trace_out=str(path))
    try:
        s.compile_kernel(MT_SOURCE)
    finally:
        s.close()
    n = validate_jsonl(str(path))
    assert n > 0
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert "compile_start" in kinds and "compile_end" in kinds
    # close() detached the sink: later emits do not reopen the file
    emit("grover_start", kernel="k")
    assert validate_jsonl(str(path)) == n


def test_unopenable_trace_out_is_a_config_error(tmp_path, capsys):
    """A sink in a missing directory is a ConfigError naming the path,
    whether it comes from a keyword, ``$REPRO_TRACE_OUT`` or
    ``--trace-out`` (one ``error:`` line, exit 2, no traceback)."""
    from repro.cli import main
    from repro.session import ConfigError

    missing = str(tmp_path / "nope" / "events.jsonl")
    for session_kwargs in ({"env": {}, "trace_out": missing},
                           {"env": {"REPRO_TRACE_OUT": missing}}):
        with pytest.raises(ConfigError, match="cannot open trace output") as exc:
            Session(**session_kwargs)
        assert missing in str(exc.value)
    argv = ["matrix", "--apps", "NVD-MT", "--scale", "test", "--trace-out", missing]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and missing in err
    assert "Traceback" not in err


def test_validate_jsonl_rejects_bad_lines(tmp_path):
    def write(lines):
        p = tmp_path / "bad.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    with pytest.raises(EventSchemaError, match="not JSON"):
        validate_jsonl(write(["{nope"]))
    with pytest.raises(EventSchemaError, match="unknown event kind"):
        validate_jsonl(write(['{"seq": 1, "kind": "nope"}']))
    with pytest.raises(EventSchemaError, match="strictly increasing"):
        validate_jsonl(write([
            '{"seq": 2, "kind": "grover_start", "kernel": "k"}',
            '{"seq": 2, "kind": "grover_start", "kernel": "k"}',
        ]))
    with pytest.raises(EventSchemaError, match="missing payload"):
        validate_jsonl(write(['{"seq": 1, "kind": "grover_start"}']))


def test_jsonl_sink_roundtrips_schema(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(str(path))
    from repro.session import events

    events.attach(sink)
    try:
        for kind, schema in sorted(EVENT_SCHEMA.items()):
            payload = {}
            for name, types in schema.items():
                t = types[0]
                payload[name] = (
                    "x" if t is str else [1] if t is list
                    else True if t is bool else 1
                )
            emit(kind, **payload)
    finally:
        events.detach(sink)
        sink.close()
    assert validate_jsonl(str(path)) == len(EVENT_SCHEMA)


# ---------------------------------------------------------------------------
# pool-fallback observability (ISSUE 3 satellite 1)
# ---------------------------------------------------------------------------


def _break_pools(monkeypatch):
    from repro.parallel import pool

    def boom(*a, **k):
        raise OSError("semaphores unavailable")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", boom)


def test_make_pool_failure_emits_event_when_sink_attached(monkeypatch):
    from repro.parallel.pool import make_pool

    _break_pools(monkeypatch)
    with collect() as sink:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning here would fail
            assert make_pool(2) is None
    ev = sink.of_kind("pool_fallback")
    assert len(ev) == 1
    assert ev[0].payload["where"] == "make_pool"
    assert "OSError" in ev[0].payload["error"]


def test_make_pool_failure_warns_without_sink(monkeypatch):
    from repro.parallel.pool import PoolFallbackWarning, make_pool

    _break_pools(monkeypatch)
    with pytest.warns(PoolFallbackWarning, match="make_pool"):
        assert make_pool(2) is None


def test_matrix_with_broken_pool_still_correct(monkeypatch):
    """A fanned-out matrix degrades to serial, warns, and stays bit-exact."""
    from repro.experiments import grid
    from repro.parallel.pool import PoolFallbackWarning

    kw = dict(apps=["AMD-MM", "AMD-MT"], devices=["SNB"], scale="test")
    serial = grid(workers=1, **kw)
    _break_pools(monkeypatch)
    with pytest.warns(PoolFallbackWarning):
        fanned = grid(workers=2, **kw)
    assert fanned == serial
