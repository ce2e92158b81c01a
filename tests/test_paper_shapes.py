"""The paper's result shapes, guarded at test scale.

Only the shapes that hold at test scale are pinned here; the
bench-scale checks of Table IV, Fig. 2 and Fig. 10 live in
``benchmarks/``.  Tahiti's MT sign is deliberately left free: it sits
at 1.02 at test scale, too close to 1 to be a shape.
"""

import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import figure2, figure10, table4

SCALE = "test"


@pytest.fixture(scope="module")
def fig2():
    return figure2(scale=SCALE)


def test_fig2_mt_loses_on_nvidia_gpus(fig2):
    assert fig2["MT"]["Fermi"] < 1.0
    assert fig2["MT"]["Kepler"] < 1.0


def test_fig2_mt_gains_on_cpus(fig2):
    assert fig2["MT"]["SNB"] > 1.2
    assert fig2["MT"]["Nehalem"] > 1.2
    assert fig2["MT"]["MIC"] > 1.0


def test_kepler_loses_on_every_app():
    values = figure10("Kepler", scale=SCALE).values
    assert set(values) == set(TABLE_ORDER)
    assert {a: v for a, v in values.items() if v >= 1.0} == {}


def test_table4_distribution():
    assert table4(scale=SCALE).per_device == {
        "SNB": {"gain": 4, "loss": 0, "similar": 7},
        "Nehalem": {"gain": 4, "loss": 0, "similar": 7},
        "MIC": {"gain": 2, "loss": 2, "similar": 7},
    }
