"""Property tests for a launch's canonical group pick list.

Seeded loops (explicit ``np.random.default_rng`` seeds, no wall-clock
randomness): whatever the group count and ``sample_groups`` subset,
:func:`~repro.runtime.ndrange.select_groups` returns a strictly
increasing, in-range subset of exactly the requested size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.ndrange import select_groups

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_select_groups_subset_properties(seed):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(1, 500))
    sample = int(rng.integers(1, 64))
    picks = select_groups(total, sample)

    assert len(picks) == min(sample, total)
    assert (np.diff(picks) > 0).all()  # strictly increasing, no dupes
    assert picks[0] >= 0 and picks[-1] < total
    if sample >= total:
        assert np.array_equal(picks, np.arange(total))
