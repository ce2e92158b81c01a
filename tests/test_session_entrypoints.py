"""Session entry points produce bit-identical results to the legacy path.

``compile_source`` and ``disable_local_memory`` are implemented on
:class:`Session`, and their module-level functions delegate to
:func:`repro.session.current_session`: an explicit session must
reproduce their results exactly, and a session's config must reach the
code that runs under its ``activate()``.
"""

from __future__ import annotations

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
# transform path
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


# ---------------------------------------------------------------------------
# model path
# ---------------------------------------------------------------------------


def test_session_config_reaches_the_models():
    from repro.perf.fastcache import FastCacheHierarchy, make_hierarchy
    from repro.perf.cache import CacheHierarchy

    specs = [(32, 8, 64, "L1")]
    with Session(env={}, cache_backend="reference").activate():
        assert isinstance(make_hierarchy(specs), CacheHierarchy)
    with Session(env={}, cache_backend="fast").activate():
        assert isinstance(make_hierarchy(specs), FastCacheHierarchy)
