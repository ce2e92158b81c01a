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


def _root_gate(app):
    """The root-gate getter a search holds for ``app``: its
    untransformed kernel's :func:`~repro.search.engine._root_gate`,
    run once, on first call."""
    import functools

    from repro.apps.harness import compile_app
    from repro.search.engine import _root_gate

    root, _ = compile_app(app, "with")
    return functools.cache(lambda: _root_gate(app, root, "test"))


def _verify(app, pipeline, gate=None):
    return verify_pipeline(app, pipeline, "test", gate or _root_gate(app))


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
# the search derives each extension from its parent's kernel
# ---------------------------------------------------------------------------

_DERIVED_APPS = ("NVD-MT", "AMD-MT", "PAB-ST")


@pytest.mark.parametrize("app_id", _DERIVED_APPS)
def test_clone_and_apply_matches_the_source_derivation(monkeypatch, app_id):
    """Every extension the search builds by cloning its parent's kernel
    and applying one rule prints the IR that compiling the source and
    applying the whole pipeline prints, and has the rewrite counts, the
    cycles and the ``search_candidate`` event of the from-source
    evaluation."""
    import repro.search.engine as engine
    from repro.apps.harness import compile_app
    from repro.ir import print_function

    derived = []
    real_apply = engine._apply_pipeline

    def spy(kernel, pipeline, geometry):
        counts = real_apply(kernel, pipeline, geometry)
        derived.append(kernel)
        return counts

    monkeypatch.setattr(engine, "_apply_pipeline", spy)
    with events.collect() as sink:
        r = _search(app_id, depth=3, device="Fermi", sample_groups=8)
    monkeypatch.undo()

    app = get_app(app_id)
    geometry = app.make_problem("test").local_size
    assert len(r.candidates) >= 7 and not any(c.error for c in r.candidates)
    assert any(c.rewrites[-1] == 0 for c in r.candidates)
    assert any(len(c.pipeline) >= 2 for c in r.candidates)  # clones of clones
    cand_events = sink.of_kind("search_candidate")[1:]
    assert len(cand_events) == len(r.candidates)
    # the extensions are applied first, in generation order; verification
    # re-derives from source after them
    for cand, kernel, event in zip(r.candidates, derived, cand_events):
        with Session(env={}, exec_backend="tape").activate():
            source, _ = compile_app(app, "with")
            rewrites = engine._apply_pipeline(source, cand.pipeline, geometry)
        assert print_function(kernel) == print_function(source), cand.label
        assert cand.rewrites == rewrites
        assert cand == evaluate_pipeline(app, cand.pipeline, "test", 8, "Fermi")
        assert event.payload["pipeline"] == list(cand.pipeline)
        assert event.payload["rewrites"] == list(rewrites)
        assert event.payload["kept"] is (rewrites[-1] > 0)


def test_each_app_compiles_once_and_ships_only_rewriting_kernels(monkeypatch):
    """Scoring compiles each app once, and a no-op extension never
    reaches the fan-out."""
    import repro.apps.harness as harness
    import repro.search.engine as engine

    compiles, shipped, at_verify = [], [], []
    real_compile, real_fan_out = harness.compile_kernel, engine.fan_out
    real_verify = engine.verify_pipeline

    def compile_kernel(*args, **kwargs):
        compiles.append(args)
        return real_compile(*args, **kwargs)

    def fan_out(fn, payloads, workers, where):
        payloads = list(payloads)
        shipped.extend(payloads)
        return real_fan_out(fn, payloads, workers, where)

    def verify_pipeline(*args):
        at_verify.append(len(compiles))
        return real_verify(*args)

    monkeypatch.setattr(harness, "compile_kernel", compile_kernel)
    monkeypatch.setattr(engine, "fan_out", fan_out)
    monkeypatch.setattr(engine, "verify_pipeline", verify_pipeline)
    for app_id in _DERIVED_APPS:
        compiles.clear()
        shipped.clear()
        at_verify.clear()
        r = _search(app_id)
        assert at_verify[0] == 1, app_id  # compiles before the first verify
        assert all(rewrites[-1] > 0 for _, _, _, rewrites, *_ in shipped)
        rewriting = [c for c in r.candidates if c.rewrites[-1] > 0]
        assert len(shipped) == len(rewriting) < len(r.candidates)


# ---------------------------------------------------------------------------
# verification gates
# ---------------------------------------------------------------------------


def test_verify_accepts_default_and_legal_pipelines():
    gate = _root_gate(MT)
    ok, reason = _verify(MT, (), gate)
    assert ok, reason
    ok, reason = _verify(MT, ("pad-local-arrays",), gate)
    assert ok, reason


@pytest.mark.parametrize("pipeline, launches", [((), 0), (("grover",), 2)])
def test_verify_launches_only_the_transform(pipeline, launches):
    """The default kernel's verdict is the root gate's: verifying it
    launches nothing more; a transform adds its own traced reference and
    tape runs, and its outputs are compared with the gate's."""
    app = get_app("NVD-MM-B")
    gate = _root_gate(app)
    gate()
    with events.collect() as sink:
        ok, reason = _verify(app, pipeline, gate)
    assert ok, reason
    assert len(sink.of_kind("launch_start")) == launches


def test_a_default_winner_costs_one_compile_per_search(monkeypatch):
    """The root gate verifies a ``(default)`` winner with the search's
    one compile of the app, not a second one."""
    import repro.apps.harness as harness

    compiles = []
    real_compile = harness.compile_kernel

    def compile_kernel(*args, **kwargs):
        compiles.append(args)
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(harness, "compile_kernel", compile_kernel)
    r = _search("NVD-MM-B")
    assert r.winner.pipeline == () and r.verified
    assert len(compiles) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_search_leaves_the_root_kernel_unchanged(monkeypatch, workers):
    """Scoring, cloning and the root gate (launched in the parent with
    one worker, pickled to the pool with two) leave the root kernel's
    IR as compiled."""
    import repro.apps.harness as harness
    from repro.ir import print_function

    roots = []
    real_compile_app = harness.compile_app

    def compile_app(app, *args, **kwargs):
        kernel, report = real_compile_app(app, *args, **kwargs)
        roots.append((kernel, print_function(kernel)))
        return kernel, report

    monkeypatch.setattr(harness, "compile_app", compile_app)
    r = _search(depth=2, device="Fermi", workers=workers)
    assert r.winner.pipeline == ("pad-local-arrays",) and r.verified
    root, printed = roots[0]
    assert print_function(root) == printed


def test_a_transform_is_compared_with_the_root_reference_outputs(monkeypatch):
    """A transformed winner whose outputs differ from the root gate's
    reference outputs is rejected, and the default wins."""
    import repro.search.engine as engine

    real_gate = engine._root_gate

    def corrupted_gate(app, root, scale):
        ok, reason, outputs = real_gate(app, root, scale)
        return ok, reason, {name: out + 1 for name, out in outputs.items()}

    monkeypatch.setattr(engine, "_root_gate", corrupted_gate)
    r = _search(depth=1, rules=("pad-local-arrays",), device="Fermi")
    assert r.winner.pipeline == () and r.verified
    (rejected,) = r.rejected
    assert rejected.startswith("pad-local-arrays: differential:")
    assert "search winner vs default" in rejected


def test_the_root_gate_returns_no_trace():
    """Only the verdict and the reference outputs leave the process that
    runs the root gate; a trace would cost the parent its memory."""
    from repro.apps.harness import compile_app
    from repro.runtime.trace import GroupTrace, KernelTrace
    from repro.search.engine import _root_gate

    root, _ = compile_app(MT, "with")
    gate = _root_gate(MT, root, "test")
    ok, reason, outputs = gate
    assert ok and reason == ""
    assert set(outputs) == set(MT.make_problem("test").expected)
    todo = [gate]
    while todo:
        value = todo.pop()
        assert not isinstance(value, (KernelTrace, GroupTrace)), type(value)
        if isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
        else:
            assert isinstance(value, (bool, str, np.ndarray)), type(value)


def test_verify_rejects_broken_pipelines():
    ok, reason = _verify(MT, ("bogus",))
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
        _verify(MT, ("stub",))

    _install_stub_rule(monkeypatch, FrontendError("stub lowering bug"))
    with pytest.raises(FrontendError, match="stub lowering bug"):
        evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")


def test_evaluate_keyboard_interrupt_propagates(monkeypatch):
    _install_stub_rule(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        evaluate_pipeline(MT, ("stub",), "test", 8, "Fermi")
    with pytest.raises(KeyboardInterrupt):
        _verify(MT, ("stub",))


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
    event when a sink listens, else a ``PoolFallbackWarning``.  The
    root gate is one more such payload."""
    from repro.parallel.pool import PoolFallbackWarning

    def search(workers):
        # both rules rewrite NVD-MT, so the level ships two kernels to the
        # pool (a single payload runs serially), beside the root gate
        options = SearchOptions(apps=(app,), rules=("grover", "pad-local-arrays"),
                                depth=1, device="Fermi", workers=workers)
        (result,) = run_search(options).results
        return result

    app = _unpicklable_mt()
    serial = search(1)
    with events.collect() as sink:
        fanned = search(2)
    assert fanned.winner == serial.winner and fanned.verified
    falls = sink.of_kind("pool_fallback")
    assert len(falls) == 3
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


def test_cli_search_golden_honours_the_update_variable(tmp_path, capsys,
                                                       monkeypatch):
    """``search --golden`` follows the rules ``analyze --golden`` does:
    ``$REPRO_UPDATE_GOLDEN=1`` rewrites the file like ``--update-golden``."""
    from repro.cli import main

    golden = tmp_path / "search.txt"
    golden.write_text("stale report\n")
    argv = ["search", "--apps", "NVD-MT", "--depth", "1", "--workers", "1",
            "--golden", str(golden)]
    monkeypatch.setenv("REPRO_UPDATE_GOLDEN", "1")
    assert main(argv) == 0
    assert "# golden updated" in capsys.readouterr().out
    monkeypatch.delenv("REPRO_UPDATE_GOLDEN")
    assert main(argv) == 0
    assert "# golden ok" in capsys.readouterr().out


def test_cli_search_update_golden_needs_a_golden_file(capsys):
    """``--update-golden`` without ``--golden`` has no file to rewrite:
    a usage error before any search runs, as in ``repro analyze``."""
    from repro.cli import main

    with events.collect() as sink, pytest.raises(SystemExit) as exc:
        main(["search", "--apps", "NVD-MT", "--update-golden"])
    assert exc.value.code == 2
    assert "--update-golden requires --golden FILE" in capsys.readouterr().err
    assert not sink.events


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
    """``run_search`` under an active session takes its unset knobs
    from the session's ``search_*`` config."""
    with Session(env={}, search_depth=1).activate():
        run = run_search(SearchOptions(apps=("NVD-MT",), workers=1))
    (result,) = run.results
    assert result.verified
    assert max(len(c.pipeline) for c in result.candidates) == 1


def test_cli_passes_lists_rule_metadata(capsys):
    from repro.cli import main

    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    assert "arbiter:" in out and "legality:" in out
    assert "eq3-invertibility" in out
    assert "counterfactual-race-analysis" in out
    assert "affine-bounds" in out
    assert "invariance + dominance" in out
    assert "rewrite rules" in out
