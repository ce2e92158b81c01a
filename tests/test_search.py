"""The pipeline-search engine: scoring, gating, events, CLI, config."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.apps.registry import Problem, get_app, kernel_app
from repro.search import (
    SearchOptions,
    evaluate_pipeline,
    render_search,
    run_search,
    search_app,
    verify_pipeline,
)
from repro.session import Session, events
from repro.session.events import validate_event

from tests.conftest import MT_SOURCE, REDUCTION_SOURCE

MT = get_app("NVD-MT")


def _search(app_id="NVD-MT", **kw):
    kw.setdefault("workers", 1)
    return search_app(get_app(app_id), SearchOptions(apps=(app_id,), **kw))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_empty_pipeline_is_the_default():
    ev = evaluate_pipeline(MT, (), "test", 8, "Fermi")
    assert ev.error == ""
    assert ev.pipeline == () and ev.rewrites == ()
    assert np.isfinite(ev.cycles) and ev.cycles > 0
    assert ev.label == "(default)"


def test_evaluate_is_deterministic():
    a = evaluate_pipeline(MT, ("pad-local-arrays",), "test", 8, "Fermi")
    b = evaluate_pipeline(MT, ("pad-local-arrays",), "test", 8, "Fermi")
    assert a == b
    assert a.rewrites == (1,)


def test_evaluate_unknown_rule_is_an_error_candidate():
    ev = evaluate_pipeline(MT, ("bogus",), "test", 8, "Fermi")
    assert ev.error and ev.cycles == float("inf")


def test_padding_changes_the_modelled_cycles():
    base = evaluate_pipeline(MT, (), "test", 8, "Fermi")
    padded = evaluate_pipeline(MT, ("pad-local-arrays",), "test", 8, "Fermi")
    # the transpose tile serialises on banks; padding must be visible
    # to the GPU model (that's the whole payoff being searched for)
    assert padded.cycles < base.cycles


def test_noop_extension_is_not_launched():
    """An extension whose last rule rewrote nothing is its parent's
    kernel: it comes back unpriced, with no launch and no error."""
    with events.collect() as sink:
        ev = evaluate_pipeline(
            MT, ("grover", "pad-local-arrays"), "test", 8, "Fermi"
        )
    # Grover removed the tile, so there is nothing left to pad
    assert ev.rewrites == (1, 0)
    assert ev.cycles == float("inf") and ev.error == ""
    assert "launch_start" not in sink.kinds()

    with events.collect() as sink:
        r = _search(depth=2, rules=("pad-local-arrays", "grover"))
    noop = [
        e for e in sink.of_kind("search_candidate")
        if e.payload["pipeline"] == ["grover", "pad-local-arrays"]
    ]
    assert len(noop) == 1
    assert noop[0].payload["kept"] is False
    assert noop[0].payload["cycles"] == -1.0
    assert noop[0].payload["error"] == ""
    for e in sink.events:
        validate_event(e.kind, e.payload)
    assert r.verified


# ---------------------------------------------------------------------------
# verification gates
# ---------------------------------------------------------------------------


def test_verify_accepts_default_and_legal_pipelines():
    ok, reason = verify_pipeline(MT, (), "test")
    assert ok, reason
    ok, reason = verify_pipeline(MT, ("pad-local-arrays",), "test")
    assert ok, reason


def test_verify_rejects_broken_pipelines():
    ok, reason = verify_pipeline(MT, ("bogus",), "test")
    assert not ok and "bogus" in reason


# ---------------------------------------------------------------------------
# error handling: what re-raises, what becomes an error candidate
# ---------------------------------------------------------------------------


class _StubRule:
    """A rule whose apply() raises a chosen exception."""

    name = "stub"
    description = "test stub"

    def __init__(self, exc):
        self._exc = exc

    def apply(self, kernel, ctx):
        raise self._exc


def _install_stub_rule(monkeypatch, exc):
    import repro.rules as rules_mod

    real = rules_mod.get_rule

    def fake(name):
        if name == "stub":
            return _StubRule(exc)
        return real(name)

    monkeypatch.setattr(rules_mod, "get_rule", fake)


def test_evaluate_reraises_deterministic_toolchain_errors(monkeypatch):
    """FrontendError/VerificationError mean a rule emitted IR the
    toolchain rejects — a rule bug a serial rerun reproduces, never an
    'error candidate' to score past quietly."""
    from repro.frontend.errors import FrontendError
    from repro.ir.verifier import VerificationError

    _install_stub_rule(monkeypatch, VerificationError("stub broke the IR"))
    with pytest.raises(VerificationError, match="stub broke the IR"):
        evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")
    with pytest.raises(VerificationError, match="stub broke the IR"):
        verify_pipeline(MT, ("stub",), "test")

    _install_stub_rule(monkeypatch, FrontendError("stub lowering bug"))
    with pytest.raises(FrontendError, match="stub lowering bug"):
        evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")


def test_evaluate_keyboard_interrupt_propagates(monkeypatch):
    _install_stub_rule(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")
    with pytest.raises(KeyboardInterrupt):
        verify_pipeline(MT, ("stub",), "test")


def test_candidate_failure_reason_reaches_the_event(monkeypatch):
    """A candidate-specific runtime failure becomes an error candidate,
    and the search_candidate event carries the reason — dropping a
    candidate must leave a visible trace of why."""
    _install_stub_rule(monkeypatch, RuntimeError("transformed kernel faulted"))
    ev = evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")
    assert ev.error == "RuntimeError: transformed kernel faulted"
    assert ev.cycles == float("inf")

    with events.collect() as sink:
        r = _search(depth=1, rules=("stub",))
    # the search survives (winner falls back to the default pipeline)
    assert r.winner.pipeline == ()
    failed = [
        e for e in sink.of_kind("search_candidate")
        if e.payload["pipeline"] == ["stub"]
    ]
    assert failed
    assert failed[0].payload["kept"] is False
    assert failed[0].payload["error"] == (
        "RuntimeError: transformed kernel faulted"
    )
    for e in sink.events:
        validate_event(e.kind, e.payload)


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------


def test_search_winner_never_worse_than_default():
    r = _search(depth=2)
    assert r.verified
    assert r.winner.cycles <= r.baseline.cycles
    assert r.speedup >= 1.0
    assert r.evaluated >= 1


def test_greedy_is_beam_one():
    greedy = _search(depth=2, beam=1)
    assert greedy.verified
    assert greedy.winner.cycles <= greedy.baseline.cycles


def test_search_respects_rule_subset():
    r = _search(depth=2, rules=("grover",))
    assert r.verified
    assert set(r.winner.pipeline) <= {"grover"}


def test_search_unknown_rule_fails_fast():
    with pytest.raises(KeyError, match="unknown rule"):
        _search(rules=("nope",))


def test_search_events_are_schema_valid():
    with events.collect() as sink:
        _search(depth=1)
    kinds = sink.kinds()
    assert "search_start" in kinds
    assert "search_candidate" in kinds
    assert "search_verified" in kinds
    assert kinds[-1] == "search_end"
    for ev in sink.events:
        validate_event(ev.kind, ev.payload)
    end = sink.of_kind("search_end")[0].payload
    assert end["verified"] is True
    assert end["cycles"] <= end["baseline_cycles"]


def test_session_config_reaches_the_resolver():
    # config plumbing only (the full sweep runs in CI): session knobs
    # must reach the resolver
    with Session(
        env={}, search_beam=1, search_depth=1, search_device="SNB"
    ).activate():
        r = _search(app_id="PAB-ST")
        assert r.device == "SNB"


def test_render_is_wall_clock_free():
    run = run_search(SearchOptions(apps=("NVD-MT",), depth=1, workers=1))
    text = render_search(run)
    assert "NVD-MT" in text and "winning pipeline" in text
    assert render_search(run) == text


# ---------------------------------------------------------------------------
# any kernel: the paper's with/without auto-tune is a depth-1 grover search
# ---------------------------------------------------------------------------


def _mt_app():
    a = np.random.default_rng(0).random((64, 64), dtype=np.float32)
    problem = Problem((64, 64), (16, 16), {"in": a, "W": 64, "H": 64},
                      {"out": a.T.copy()})
    return kernel_app(MT_SOURCE, problem)


def _with_without(app, device, workers=1):
    options = SearchOptions(apps=(app,), rules=("grover",), depth=1,
                            device=device, workers=workers)
    (result,) = run_search(options).results
    return result


@pytest.mark.parametrize("device, winner", [("SNB", ("grover",)), ("Fermi", ())])
def test_kernel_app_transpose_winner_per_device(device, winner):
    """Removing the transpose tile wins on a CPU and loses on a GPU."""
    r = _with_without(_mt_app(), device)
    assert r.app_id == "transpose"
    assert [c.rewrites for c in r.candidates] == [(1,)]
    assert r.winner.pipeline == winner
    assert r.verified and not r.rejected
    if winner:
        assert r.winner.cycles < r.baseline.cycles
    else:
        assert r.candidates[0].cycles > r.baseline.cycles


def test_kernel_app_reduction_keeps_the_default():
    """Grover cannot invert the reduction's stores: it rewrites nothing,
    so the only scored candidate is the default."""
    x = np.random.default_rng(1).random(128, dtype=np.float32)
    problem = Problem((128,), (64,), {"in": x},
                      {"out": x.reshape(2, 64).sum(axis=1)})
    r = _with_without(kernel_app(REDUCTION_SOURCE, problem), "SNB")
    assert [c.rewrites for c in r.candidates] == [(0,)]
    assert r.winner.pipeline == () and r.evaluated == 1
    assert r.verified


def test_kernel_app_ships_to_pool_workers():
    """The app pickles (so pool workers score it) and the fanned-out
    search picks the serial winner."""
    app = _mt_app()
    clone = pickle.loads(pickle.dumps(app))
    assert clone.make_problem("bench").global_size == (64, 64)
    serial = _with_without(app, "SNB")
    fanned = _with_without(app, "SNB", workers=2)
    assert fanned.winner == serial.winner
    assert fanned.baseline == serial.baseline


def _unpicklable_mt():
    problem = MT.make_problem("test")
    return dataclasses.replace(MT, make_problem=lambda scale, p=problem: p)


def test_unpicklable_app_is_redone_serially_and_reported():
    """A payload that cannot reach a pool worker is scored in the parent
    — same winner — and each redo is reported: a ``pool_fallback``
    event when a sink listens, else a ``PoolFallbackWarning``."""
    from repro.parallel.pool import PoolFallbackWarning

    def search(workers):
        # two rules, so the level fans out (one payload runs serially)
        options = SearchOptions(apps=(app,), rules=("grover", "hoist-global-loads"),
                                depth=1, device="Fermi", workers=workers)
        (result,) = run_search(options).results
        return result

    app = _unpicklable_mt()
    serial = search(1)
    with events.collect() as sink:
        fanned = search(2)
    assert fanned.winner == serial.winner and fanned.verified
    falls = sink.of_kind("pool_fallback")
    assert len(falls) == 2
    assert {e.payload["where"] for e in falls} == {"search"}
    assert all(e.payload["error"] for e in falls)
    with pytest.warns(PoolFallbackWarning, match="in search"):
        fanned = search(2)
    assert fanned.winner == serial.winner


def test_kernel_app_rejects_unknown_kernel():
    from repro.ir.function import UnknownKernelError

    with pytest.raises(UnknownKernelError, match="no kernel 'nope'"):
        kernel_app(MT_SOURCE, _mt_app().make_problem("test"), kernel_name="nope")


# ---------------------------------------------------------------------------
# CLI + session entry point
# ---------------------------------------------------------------------------


def test_cli_search_golden_roundtrip(tmp_path, capsys):
    from repro.cli import main

    golden = tmp_path / "search.txt"
    argv = ["search", "--apps", "NVD-MT", "--depth", "1", "--workers", "1",
            "--golden", str(golden)]
    assert main(argv + ["--update-golden"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "# golden ok" in capsys.readouterr().out


def test_cli_search_golden_drift_fails(tmp_path, capsys):
    from repro.cli import main

    golden = tmp_path / "search.txt"
    golden.write_text("stale report\n")
    assert main(["search", "--apps", "NVD-MT", "--depth", "1",
                 "--workers", "1", "--golden", str(golden)]) == 1
    assert "drifted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--apps", "NOPE"], "unknown app"),
        (["search", "--device", "Nope"], "unknown device"),
        (["search", "--rules", "nope"], "unknown rule"),
        (["search", "--beam", "0"], "--beam must be a positive integer"),
        (["search", "--depth", "0"], "--depth must be a positive integer"),
        (["matrix", "--apps", "NOPE"], "unknown app"),
        (["matrix", "--devices", "Nope"], "unknown device"),
        (["matrix", "--workers", "0"], "--workers must be a positive integer"),
        (["matrix", "--scale", "nope"], "argument --scale: invalid choice"),
        (["search", "--scale", "nope"], "argument --scale: invalid choice"),
        (["fuzz", "--workers", "0"], "--workers must be a positive integer"),
        (["fuzz", "--count", "-3"], "--count must be a positive integer"),
        (["nope.cl"], "cannot read nope.cl"),
        (["passes", "--run", "missing.cl"], "cannot read missing.cl"),
        (["analyze", "--apps", "NOPE"], "EXT-ST3D"),
        (["analyze", "--apps", "NVD-MT,"], "unknown app id(s): ''"),
        (["matrix", "--apps", ","], "names no app"),
        (["matrix", "--devices", ","], "names no device"),
        (["search", "--apps", ","], "names no app"),
        (["search", "--rules", ","], "names no rule"),
        (["analyze", "--apps", "NVD-MT", "--scale", "nope"],
         "argument --scale: invalid choice"),
    ],
    ids=["app", "device", "rule", "beam", "depth", "matrix-app", "matrix-device",
         "matrix-workers", "matrix-scale", "search-scale",
         "fuzz-workers", "fuzz-count", "kernel-file", "passes-file",
         "analyze-app", "analyze-app-trailing-comma", "matrix-no-app",
         "matrix-no-device", "search-no-app", "search-no-rule", "analyze-scale"],
)
def test_cli_search_rejects_unknown_app(argv, message, capsys):
    """Bad arguments exit 2 with a usage error before anything is priced."""
    from repro.cli import main

    with events.collect() as sink, pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not sink.events


def test_session_search_entry_point():
    run = Session(env={}).search(apps=("NVD-MT",), depth=1, workers=1)
    assert len(run.results) == 1 and run.results[0].verified
    with pytest.raises(TypeError, match="not both"):
        Session(env={}).search(SearchOptions(), depth=1)


def test_cli_passes_lists_rule_metadata(capsys):
    from repro.cli import main

    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "legality arbiter" in out
    assert "eq3-invertibility" in out
    assert "counterfactual-race-analysis" in out
    assert "affine-bounds" in out
    assert "invariance + dominance" in out
    assert "rewrite rules" in out
