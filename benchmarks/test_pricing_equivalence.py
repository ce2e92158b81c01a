"""Fast vs reference pricing on the paper's bench-scale traces.

Every Table IV, Fig. 10 and Fig. 2 number comes from the vectorised
cache simulation (``repro.perf.fastcache``), priced on a whole device
family at once (``repro.perf.price``).  Neither may change anything but
wall time: on the bench-scale trace of both variants of every Table III
app (``experiments.app_trace``, 4 sampled groups), pricing on all six
devices at once on the fast backend must report, for every group and
device, the same per-level hits, memory misses and prefetches (CPUs),
transactions, memory and scratch-pad cycles (GPUs) and cycles as the
reference backend pricing each device alone, with the memo off.
The tier-1 suite checks the same at test scale
(``tests/test_fastcache_equivalence.py``, ``tests/test_shared_pricing.py``).
"""

import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.perf.devices import DEVICES
from tests.conftest import assert_pricing_exact

from conftest import SCALE


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_bench_traces_price_exactly(app_id):
    for variant in ("with", "without"):
        trace = app_trace(app_id, variant, SCALE)
        assert_pricing_exact(trace, list(DEVICES.values()))
