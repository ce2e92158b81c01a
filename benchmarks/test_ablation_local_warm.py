"""Ablation — modelling the __local arena as cache-warm vs cold.

On a CPU the local-memory arena is ordinary memory owned by the
executing thread and reused by every work-group it runs; treating its
lines as cold per-group would charge the with-local-memory versions
phantom DRAM misses and bias the comparison toward removal.  This
ablation quantifies that bias.
"""

import pytest

from repro.experiments import app_trace
from repro.perf import CPUModel
from repro.perf.devices import SNB

from conftest import SCALE


def np_ratio(app_id, warm):
    model = CPUModel(SNB, warm_local=warm)
    c_with = model.time_kernel(app_trace(app_id, "with", SCALE))
    c_without = model.time_kernel(app_trace(app_id, "without", SCALE))
    return c_with / c_without


@pytest.mark.paper
def test_cold_local_biases_toward_removal(benchmark):
    def ratios():
        return {
            a: (np_ratio(a, warm=True), np_ratio(a, warm=False))
            for a in ("NVD-MT", "AMD-RG", "NVD-MM-B")
        }

    result = benchmark(ratios)
    print("\nnormalised perf, warm vs cold local arena:")
    for a, (warm, cold) in result.items():
        print(f"  {a:10s} warm={warm:.3f}  cold={cold:.3f}")

    # cold modelling charges extra misses to the with-local version, so
    # the normalised ratio (with/without) can only grow
    for a, (warm, cold) in result.items():
        assert cold >= warm - 1e-9, f"{a}: cold model should inflate np"

    # and for at least one kernel the bias is material (> 2%)
    assert any(cold - warm > 0.02 for warm, cold in result.values())


@pytest.mark.paper
def test_warm_modelling_keeps_losses_visible(benchmark):
    """The MM-B loss (the paper's key counter-example) must survive the
    warm-arena model — it is a *global-traffic* effect, not an arena
    artefact."""
    ratio = benchmark(lambda: np_ratio("NVD-MM-B", warm=True))
    assert ratio < 0.95
