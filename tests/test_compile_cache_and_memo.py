"""Compile cache isolation and model memoization consistency."""

import numpy as np
import pytest

from repro.core import GroverPass
from repro.frontend import clear_compile_cache, compile_kernel, compile_source
from repro.frontend.compile import _COMPILE_CACHE_SIZE
from repro.perf import CPUModel, GPUModel
from repro.perf.devices import FERMI, SNB
from repro.session import current_session

from tests.conftest import MM_SOURCE, MT_SOURCE
from tests.test_perf_models import mt_trace


# -- compile cache --------------------------------------------------------------


def _compile_cache():
    return current_session()._compile_cache


def test_cache_hit_returns_equivalent_module():
    clear_compile_cache()
    m1 = compile_source(MT_SOURCE)
    m2 = compile_source(MT_SOURCE)
    assert m1 is not m2  # caller owns a private copy
    k1, k2 = m1.kernel(None), m2.kernel(None)
    assert k1.name == k2.name
    assert len(list(k1.blocks)) == len(list(k2.blocks))


def test_cache_isolates_in_place_mutation():
    """GroverPass mutates kernels in place; a later cache hit must see
    the pristine compile, not the transformed one."""
    clear_compile_cache()
    k1 = compile_kernel(MT_SOURCE)
    n_local_before = len(k1.local_arrays)
    assert n_local_before > 0
    GroverPass().run(k1)  # removes the __local tile
    assert len(k1.local_arrays) == 0
    k2 = compile_kernel(MT_SOURCE)  # cache hit
    assert len(k2.local_arrays) == n_local_before


def test_cache_key_includes_defines_and_optimize():
    clear_compile_cache()
    compile_source(MM_SOURCE)
    compile_source(MM_SOURCE, defines={"EXTRA": 1})
    compile_source(MM_SOURCE, optimize=False)
    assert len(_compile_cache()) == 3


def test_cache_bypass_and_clear():
    clear_compile_cache()
    compile_source(MT_SOURCE, cache=False)
    assert len(_compile_cache()) == 0
    compile_source(MT_SOURCE)
    assert len(_compile_cache()) == 1
    clear_compile_cache()
    assert len(_compile_cache()) == 0


def test_cache_is_bounded():
    clear_compile_cache()
    for i in range(_COMPILE_CACHE_SIZE + 5):
        compile_source(MT_SOURCE, defines={"TAG": i})
    assert len(_compile_cache()) == _COMPILE_CACHE_SIZE
    clear_compile_cache()


# -- model memoization ----------------------------------------------------------


def test_cpu_memo_consistent_with_per_group_sum():
    trace = mt_trace()
    model = CPUModel(SNB, memoize=True)
    total = model.time_kernel(trace)
    # memoized time_kernel must equal scale * sum(time_group) exactly
    per_group = sum(model.time_group(g).cycles for g in trace.groups)
    assert total == pytest.approx(trace.scale * per_group)


def test_cpu_memo_reuses_identical_groups():
    trace = mt_trace()
    model = CPUModel(SNB, memoize=True)
    model.time_kernel(trace)
    prints = {g.fingerprint() for g in trace.groups}
    assert len(model._group_costs) == len(prints)
    # identical fingerprints share the identical cost object
    a = model.time_group(trace.groups[0])
    b = model.time_group(trace.groups[-1])
    if trace.groups[0].fingerprint() == trace.groups[-1].fingerprint():
        assert a is b


def test_memo_off_recomputes():
    trace = mt_trace()
    model = CPUModel(SNB, memoize=False)
    model.time_kernel(trace)
    assert model._group_costs == {}


def test_memo_matches_exact_on_homogeneous_trace():
    """When every group has the same fingerprint, memoization is exact."""
    trace = mt_trace()
    assert len({g.fingerprint() for g in trace.groups}) == 1
    exact = CPUModel(SNB, memoize=False).time_kernel(trace)
    memo = CPUModel(SNB, memoize=True).time_kernel(trace)
    assert memo == pytest.approx(exact)
    g_exact = GPUModel(FERMI, memoize=False).time_kernel(trace)
    g_memo = GPUModel(FERMI, memoize=True).time_kernel(trace)
    assert g_memo == pytest.approx(g_exact)


def test_memo_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_MEMO", "0")
    assert CPUModel(SNB).memoize is False
    assert GPUModel(FERMI).memoize is False
    monkeypatch.setenv("REPRO_PERF_MEMO", "1")
    assert CPUModel(SNB).memoize is True
    # explicit argument beats the environment
    assert CPUModel(SNB, memoize=False).memoize is False


def test_fingerprint_distinguishes_different_patterns():
    from repro.ir.types import AddressSpace
    from repro.runtime.trace import GroupTrace, MemEvent

    def ev(offsets, store=False):
        offs = np.asarray(offsets, np.int64)
        return MemEvent(
            AddressSpace.GLOBAL, store, 7, offs,
            np.arange(len(offs), dtype=np.int64), 4, 0, 1,
        )

    a = GroupTrace((0,), 4, [ev([0, 4, 8, 12])], inst_count=10)
    # pure translation of the same pattern -> same fingerprint
    b = GroupTrace((1,), 4, [ev([64, 68, 72, 76])], inst_count=10)
    assert a.fingerprint() == b.fingerprint()
    # different stride -> different fingerprint
    c = GroupTrace((2,), 4, [ev([0, 8, 16, 24])], inst_count=10)
    assert a.fingerprint() != c.fingerprint()
    # a store is not a load
    d = GroupTrace((3,), 4, [ev([0, 4, 8, 12], store=True)], inst_count=10)
    assert a.fingerprint() != d.fingerprint()
