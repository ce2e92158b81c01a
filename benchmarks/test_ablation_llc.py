"""Ablation — MIC's distributed LLC vs a hypothetical unified one.

The paper attributes MIC's flat response to its distributed last-level
cache ("This architectural difference minimizes the performance gaps").
We test the claim inside the model: give the MIC a unified shared L3 and
check that the with/without-local-memory gaps widen for the matrix
kernels, while the distributed configuration keeps them smaller.
"""

from dataclasses import replace

import pytest

from repro.experiments import app_trace
from repro.perf import CPUModel
from repro.perf.devices import MIC

from conftest import SCALE

#: MIC with a 16 MiB unified L3 bolted on (keeping everything else)
MIC_UNIFIED = replace(MIC, name="MIC+L3", l3=(16 * 1024, 16), lat_l3=20.0)


def gap(app_id, spec):
    model = CPUModel(spec)
    c_with = model.time_kernel(app_trace(app_id, "with", SCALE))
    c_without = model.time_kernel(app_trace(app_id, "without", SCALE))
    return abs(1.0 - c_with / c_without)


@pytest.mark.paper
def test_distributed_llc_flattens_matrix_kernels(benchmark):
    apps = ["NVD-MM-B", "NVD-MM-AB", "AMD-MM"]

    def gaps():
        return {
            a: (gap(a, MIC), gap(a, MIC_UNIFIED)) for a in apps
        }

    result = benchmark(gaps)
    print("\n|1 - np| gap per app (distributed vs unified LLC):")
    for a, (dist, uni) in result.items():
        print(f"  {a:10s} distributed={dist:.3f}  unified={uni:.3f}")

    # a unified LLC absorbs the no-blocking B-matrix traffic, changing
    # the balance for at least one of the MM kernels
    assert any(abs(d - u) > 0.01 for d, u in result.values()), (
        "the LLC organisation should matter for the MM family"
    )


@pytest.mark.paper
def test_llc_choice_is_irrelevant_for_small_kernels(benchmark):
    """Kernels whose working set fits L1/L2 must not care about the LLC."""
    apps = ["AMD-SS", "ROD-SC"]

    def gaps():
        return {a: (gap(a, MIC), gap(a, MIC_UNIFIED)) for a in apps}

    result = benchmark(gaps)
    for a, (dist, uni) in result.items():
        assert abs(dist - uni) < 0.02, f"{a} should be LLC-insensitive"
