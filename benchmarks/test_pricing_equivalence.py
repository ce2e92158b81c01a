"""Fast vs reference pricing on the paper's bench-scale traces.

Every Table IV and Fig. 10 number on a CPU comes from the vectorised
cache simulation (``repro.perf.fastcache``).  It may only change wall
time: on the bench-scale trace of both variants of every Table III app
(``experiments.app_trace``, 4 sampled groups), the fast and reference
backends must report the same per-level hits, memory misses and
prefetches for every group, with the memo off, on all three CPUs.
The tier-1 suite checks the same at test scale
(``tests/test_fastcache_equivalence.py``).
"""

import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.perf.devices import CPU_DEVICES
from tests.conftest import assert_pricing_exact

from conftest import SCALE


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_bench_traces_price_exactly(app_id):
    for variant in ("with", "without"):
        trace = app_trace(app_id, variant, SCALE)
        for spec in CPU_DEVICES.values():
            assert_pricing_exact(trace, spec)
