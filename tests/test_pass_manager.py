"""PassManager contracts: registry, idempotency, verification, bit-identity.

* every registered rewrite pass is idempotent — a second consecutive
  run reports 0 rewrites — and so is the compile pipeline as a whole,
  on every app and every corpus kernel;
* the IR verifier holds between every stage of the pipeline for all
  11 Table III applications;
* ``PassManager().run(module)`` produces bit-for-bit the IR of the
  explicit pass-call sequence, and a compile runs it exactly once.
* Grover's post-transform recompile (Fig. 9's vendor compile) is the
  same pipeline and reports its per-pass statistics.
"""

from __future__ import annotations

import os

import pytest
from pycparser import CParser

from repro.apps.registry import TABLE_ORDER, get_app
from repro.core.grover import GroverPass
from repro.frontend import compile_source
from repro.frontend.lower import lower_translation_unit
from repro.frontend.preprocess import preprocess
from repro.ir.printer import print_function
from repro.session import DEFAULT_PIPELINE, PassManager, collect
from repro.session.passes import PASS_REGISTRY, get_pass, register_pass
from tests.conftest import MM_SOURCE, MT_SOURCE, REDUCTION_SOURCE

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(f for f in os.listdir(CORPUS_DIR) if f.endswith(".cl"))


def lower(source, defines=None, name="t"):
    """Virgin IR: lowered, no pipeline applied yet."""
    pre = preprocess(source, defines)
    ast = CParser().parse(pre.text, filename=name)
    return lower_translation_unit(ast, pre.kernel_names, name)


def _render(module):
    return "\n".join(print_function(fn) for fn in module)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_and_pipelines():
    assert DEFAULT_PIPELINE == (
        "promote-single-store-slots", "fold-constants", "normalize-gep",
        "dce", "cse", "licm", "cse", "dce",
    )
    for name in DEFAULT_PIPELINE:
        assert name in PASS_REGISTRY
    for info in PASS_REGISTRY.values():
        assert info.description


def test_unknown_names_raise():
    with pytest.raises(KeyError, match="unknown pass"):
        PassManager(names=["does-not-exist"])
    with pytest.raises(KeyError, match="unknown pass"):
        get_pass("does-not-exist")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_pass("cse", "again")(lambda fn: 0)


def test_names_property():
    assert PassManager().names == list(DEFAULT_PIPELINE)
    assert PassManager(names=["dce", "cse"]).names == ["dce", "cse"]


# ---------------------------------------------------------------------------
# idempotency: a second consecutive run reports 0 rewrites
# ---------------------------------------------------------------------------

_REWRITE_PASSES = sorted(set(DEFAULT_PIPELINE))


@pytest.mark.parametrize("pass_name", _REWRITE_PASSES)
@pytest.mark.parametrize("source", [MT_SOURCE, MM_SOURCE, REDUCTION_SOURCE],
                         ids=["MT", "MM", "REDUCTION"])
def test_each_pass_idempotent_on_virgin_ir(pass_name, source):
    module = lower(source)
    pm = PassManager(names=[pass_name])
    pm.run(module)  # first run may rewrite freely
    second = pm.run(module)
    assert all(r.rewrites == 0 for r in second), (
        f"{pass_name} rewrote again on its second run: "
        f"{[(r.function, r.rewrites) for r in second if r.rewrites]}"
    )


def _app_or_corpus_source(name):
    if name in TABLE_ORDER:
        app = get_app(name)
        return app.source, app.defines
    with open(os.path.join(CORPUS_DIR, name)) as f:
        return f.read(), None


@pytest.mark.parametrize(
    "name", TABLE_ORDER + CORPUS, ids=[n.removesuffix(".cl") for n in TABLE_ORDER + CORPUS]
)
def test_pipeline_idempotent_as_a_whole(name):
    """A second run over compiled IR rewrites nothing and leaves the
    printed IR as it was."""
    source, defines = _app_or_corpus_source(name)
    module = compile_source(source, defines, cache=False)
    before = _render(module)
    assert all(r.rewrites == 0 for r in PassManager().run(module))
    assert _render(module) == before


def _after_grover(source):
    """Compiled IR after a Grover transform, which reruns the pipeline."""
    module = compile_source(source, cache=False)
    assert GroverPass().run(module.kernel()).transformed
    return module


@pytest.mark.parametrize("stage", ["default", "vendor"])
def test_pipelines_idempotent_as_a_whole(stage):
    """The one pipeline runs at two points of the paper's Fig. 9: on
    freshly lowered IR (the compile) and on the SPIR Grover rewrote (the
    vendor recompile).  At both, a second run changes nothing."""
    if stage == "default":
        module = lower(MM_SOURCE)
        PassManager().run(module)
    else:
        module = _after_grover(MM_SOURCE)
    before = _render(module)
    assert all(r.rewrites == 0 for r in PassManager().run(module))
    assert _render(module) == before


def test_grover_pass_idempotent_via_registry():
    module = lower(MT_SOURCE)
    PassManager().run(module)
    pm = PassManager(names=["grover"])
    first = pm.run(module)
    assert sum(r.rewrites for r in first) > 0  # the tile got removed
    second = pm.run(module)
    assert all(r.rewrites == 0 for r in second)  # nothing local remains


# ---------------------------------------------------------------------------
# verifier checkpoints between every stage, all 11 applications
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_verifier_holds_between_every_stage(app_id):
    app = get_app(app_id)
    module = lower(app.source, app.defines, name=app_id)
    with collect() as sink:
        PassManager(verify_between=True).run(module)
    checkpoints = sink.of_kind("verify_ok")
    n_fns = sum(1 for _ in module)
    assert len(checkpoints) == n_fns * len(DEFAULT_PIPELINE)
    stages = {e.payload["stage"] for e in checkpoints}
    for name in DEFAULT_PIPELINE:
        assert f"after:{name}" in stages


# ---------------------------------------------------------------------------
# bit-identity with the explicit pass-call sequence
# ---------------------------------------------------------------------------


def _explicit_sequence(module):
    """The pipeline written out as plain calls, in pipeline order."""
    from repro.core.dce import eliminate_dead_code
    from repro.core.normalize import normalize_gep_indices
    from repro.ir.passes import (
        common_subexpression_elimination,
        fold_constants,
        loop_invariant_code_motion,
        promote_single_store_slots,
    )

    for fn in module:
        promote_single_store_slots(fn)
        fold_constants(fn)
        normalize_gep_indices(fn)
        eliminate_dead_code(fn)
        common_subexpression_elimination(fn)
        loop_invariant_code_motion(fn)
        common_subexpression_elimination(fn)
        eliminate_dead_code(fn)
    return module


@pytest.mark.parametrize("source", [MT_SOURCE, MM_SOURCE, REDUCTION_SOURCE],
                         ids=["MT", "MM", "REDUCTION"])
def test_default_pipeline_matches_historical_sequence(source):
    managed = lower(source)
    PassManager().run(managed)
    assert _render(managed) == _render(_explicit_sequence(lower(source)))


def _grover_pass_events(source):
    """The ``pass_applied`` events of a Grover run on compiled IR."""
    module = compile_source(source, cache=False)
    with collect() as sink:
        assert GroverPass().run(module.kernel()).transformed
    return sink.of_kind("pass_applied")


@pytest.mark.parametrize("source", [MT_SOURCE, MM_SOURCE], ids=["MT", "MM"])
def test_vendor_pipeline_matches_historical_sequence(source):
    """The vendor recompile after Grover is the one pipeline: on compiled
    IR it matches the explicit call sequence bit for bit, and Grover
    runs exactly its passes, in order."""
    managed = compile_source(source, cache=False)
    PassManager().run(managed)
    legacy = _explicit_sequence(compile_source(source, cache=False))
    assert _render(managed) == _render(legacy)
    events = _grover_pass_events(source)
    assert [e.payload["pass"] for e in events] == list(DEFAULT_PIPELINE)


def test_run_default_passes_is_the_pass_manager():
    """The compile's pass step is one ``PassManager`` run of the default
    pipeline, over every function of the module."""
    with collect() as sink:
        compiled = compile_source(MM_SOURCE, cache=False)
    managed = lower(MM_SOURCE)
    PassManager().run(managed)
    assert _render(compiled) == _render(managed)
    applied = sink.of_kind("pass_applied")
    n_fns = sum(1 for _ in compiled)
    assert [e.payload["pass"] for e in applied] == list(DEFAULT_PIPELINE) * n_fns
    assert {e.payload["pipeline"] for e in applied} == {"default"}


def test_vendor_optimize_stats_still_reported():
    """The vendor recompile after Grover reports per-pass statistics."""
    events = _grover_pass_events(MM_SOURCE)
    assert len(events) == len(DEFAULT_PIPELINE)
    for e in events:
        for key in ("rewrites", "insts_before", "insts_after"):
            assert isinstance(e.payload[key], int) and e.payload[key] >= 0
    assert sum(e.payload["rewrites"] for e in events) > 0


def test_compile_runs_the_pipeline_once():
    """A compile is lowering plus one pipeline run; ``optimize=False``
    is lowering alone."""
    compiled = compile_source(MM_SOURCE, cache=False)
    assert _render(compiled) == _render(_explicit_sequence(lower(MM_SOURCE)))
    raw = compile_source(MM_SOURCE, optimize=False, cache=False)
    assert _render(raw) == _render(lower(MM_SOURCE))


# ---------------------------------------------------------------------------
# the ``repro passes`` subcommand
# ---------------------------------------------------------------------------


def test_cli_passes_lists_registry(capsys):
    from repro.cli import main

    assert main(["passes"]) == 0
    out = capsys.readouterr().out
    for name in PASS_REGISTRY:
        assert name in out
    assert " -> ".join(DEFAULT_PIPELINE) in out


def test_cli_passes_runs_a_pipeline(tmp_path, capsys):
    from repro.cli import main
    from repro.session import validate_jsonl

    src = tmp_path / "k.cl"
    src.write_text(MT_SOURCE)
    trace = tmp_path / "ev.jsonl"
    assert main([
        "passes", "--run", str(src), "--trace-out", str(trace)
    ]) == 0
    out = capsys.readouterr().out
    assert "promote-single-store-slots" in out
    assert "rewrites" in out
    n = validate_jsonl(str(trace))
    # compile_start + compile_end, then one pass_applied + one verify_ok
    # per stage
    assert n == 2 + 2 * len(DEFAULT_PIPELINE)


def test_cli_passes_rejects_bad_source(tmp_path, capsys):
    from repro.cli import main

    src = tmp_path / "bad.cl"
    src.write_text("__kernel void k( {")
    with pytest.raises(SystemExit) as exc:
        main(["passes", "--run", str(src)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
