"""Session entry points produce bit-identical results to the legacy path.

The multi-layer refactor's safety net: every module-level function is
now a shim over :func:`repro.session.current_session`, and an explicit
:class:`Session` must reproduce the legacy results exactly — compiled
IR, launch traces, model cycles and experiment-grid floats.
"""

from __future__ import annotations

import numpy as np

from repro.apps.registry import get_app
from repro.frontend import compile_kernel, compile_source
from repro.ir.printer import print_function
from repro.session import Session, current_session
from tests.conftest import MT_SOURCE

# ---------------------------------------------------------------------------
# compile path
# ---------------------------------------------------------------------------


def test_session_compile_matches_legacy_shim():
    legacy = compile_kernel(MT_SOURCE)
    s = Session(env={})
    via_session = s.compile_kernel(MT_SOURCE)
    assert print_function(via_session) == print_function(legacy)


def test_shim_resolves_to_active_session():
    s = Session(env={})
    with s.activate():
        assert current_session() is s
        compile_source(MT_SOURCE)
    assert len(s._compile_cache) == 1


def test_sessions_have_isolated_compile_caches():
    a, b = Session(env={}), Session(env={})
    a.compile_kernel(MT_SOURCE)
    assert len(a._compile_cache) == 1
    assert len(b._compile_cache) == 0


def test_cache_hits_hand_out_private_copies():
    s = Session(env={})
    k1 = s.compile_kernel(MT_SOURCE)
    k2 = s.compile_kernel(MT_SOURCE)
    assert k1 is not k2
    assert print_function(k1) == print_function(k2)


# ---------------------------------------------------------------------------
# transform + runtime paths
# ---------------------------------------------------------------------------


def test_session_grover_matches_legacy():
    from repro.core.grover import disable_local_memory

    legacy_k = compile_kernel(MT_SOURCE)
    legacy_report = disable_local_memory(legacy_k)

    s = Session(env={})
    sess_k = s.compile_kernel(MT_SOURCE)
    sess_report = s.disable_local_memory(sess_k)
    assert str(sess_report) == str(legacy_report)
    assert print_function(sess_k) == print_function(legacy_k)


def test_session_launch_trace_bit_identical():
    from repro.parallel.diff import assert_traces_equal
    from repro.runtime import Memory, launch

    kernel = compile_kernel(MT_SOURCE)
    a = np.arange(32 * 32, dtype=np.float32)

    def legacy_run():
        mem = Memory()
        args = {
            "out": mem.alloc(32 * 32 * 4, "out"),
            "in": mem.from_array(a, "in"),
            "W": 32, "H": 32,
        }
        return launch(
            kernel, (32, 32), (16, 16), args, memory=mem, collect_trace=True
        )

    def session_run():
        mem = Memory()
        args = {
            "out": mem.alloc(32 * 32 * 4, "out"),
            "in": mem.from_array(a, "in"),
            "W": 32, "H": 32,
        }
        return Session(env={}).launch(
            kernel, (32, 32), (16, 16), args, memory=mem, collect_trace=True
        )

    assert_traces_equal(legacy_run().trace, session_run().trace, "session launch")


def test_session_execute_app_matches_legacy():
    """Same compiled kernel, legacy vs session executor: traces are
    bit-identical (inst ids included) and outputs byte-equal."""
    from repro.apps.harness import compile_app, execute_app
    from repro.parallel.diff import assert_traces_equal

    app = get_app("NVD-MT")
    kernel, _ = compile_app(app, "without")
    legacy = execute_app(
        app, kernel, variant="without", scale="test", collect_trace=True
    )
    via_session = Session(env={}).execute_app(
        app, kernel, variant="without", scale="test", collect_trace=True
    )
    assert_traces_equal(legacy.trace, via_session.trace, "session execute_app")
    for name in legacy.outputs:
        np.testing.assert_array_equal(
            legacy.outputs[name], via_session.outputs[name]
        )


def test_session_run_app_outputs_match_legacy():
    """End-to-end run_app (fresh compile each side): numerical outputs
    are byte-equal even though instruction ids differ per compile."""
    from repro.apps.harness import run_app

    app = get_app("NVD-MT")
    legacy = run_app(app, "without", scale="test")
    via_session = Session(env={}).run_app(app, "without", scale="test")
    assert set(legacy.outputs) == set(via_session.outputs)
    for name in legacy.outputs:
        np.testing.assert_array_equal(
            legacy.outputs[name], via_session.outputs[name]
        )


# ---------------------------------------------------------------------------
# model + experiment paths
# ---------------------------------------------------------------------------


def test_session_config_reaches_the_models():
    from repro.perf.fastcache import FastCacheHierarchy, make_hierarchy
    from repro.perf.cache import CacheHierarchy

    specs = [(32, 8, 64, "L1")]
    with Session(env={}, cache_backend="reference").activate():
        assert isinstance(make_hierarchy(specs), CacheHierarchy)
    with Session(env={}, cache_backend="fast").activate():
        assert isinstance(make_hierarchy(specs), FastCacheHierarchy)


def test_session_matrix_matches_direct_normalized_perf():
    from repro.experiments import clear_caches, normalized_perf

    clear_caches()
    direct = normalized_perf("NVD-MT", "SNB", "test")
    result = Session(env={}).run_matrix(
        apps=["NVD-MT"], devices=["SNB"], workers=1, scale="test"
    )
    assert result.values["SNB"]["NVD-MT"] == direct  # exact float equality
