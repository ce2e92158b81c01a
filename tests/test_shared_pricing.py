"""One pricing call for all devices (``repro.perf.price``).

Pricing a trace on several devices at once shares the serialised
stream, the line streams, the cache-level prefixes and the GPU warp
passes between them.  It may only change wall time: every group must
cost exactly what each device's model prices it at alone, with the memo
on and off, and the event stream must be the one the per-device calls
emit.
"""

import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.perf import CPUModel, GPUModel, price
from repro.perf.devices import DEVICES, FERMI, MIC, NEHALEM, SNB
from repro.perf.fastcache import FastSetAssocCache
from repro.perf.pricing import group_costs
from repro.runtime.trace import GroupTrace, KernelTrace
from repro.session.events import collect

from tests.conftest import PRICED_FIELDS, widened

SPECS = list(DEVICES.values())


def alone(spec, memoize):
    return (GPUModel if spec.is_gpu else CPUModel)(spec, memoize=memoize)


@pytest.fixture(params=[True, False], ids=["memo-on", "memo-off"])
def memo(request, monkeypatch):
    monkeypatch.setenv("REPRO_PERF_MEMO", "1" if request.param else "0")
    return request.param


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_shared_call_equals_each_device_alone(app_id, memo):
    for variant in ("with", "without"):
        trace = app_trace(app_id, variant, "test")
        want = {s.name: alone(s, memo).time_kernel(trace) for s in SPECS}
        assert price(trace, SPECS) == want
        # group by group, each model keeping its own memo across groups
        together = [alone(s, memo) for s in SPECS]
        apart = [alone(s, memo) for s in SPECS]
        for g in trace.groups:
            for spec, got, m in zip(SPECS, group_costs(g, together), apart):
                exp = m.time_group(g)
                for f in PRICED_FIELDS[spec.is_gpu] + ("cycles",):
                    assert getattr(got, f) == getattr(exp, f), (
                        f"{app_id}/{variant} {spec.name} group {g.group_id}: {f}"
                    )


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_price_does_not_depend_on_offset_width(app_id, monkeypatch):
    """The backends record int32 offsets; the same trace with int64
    offsets costs the same on every device, memo off."""
    monkeypatch.setenv("REPRO_PERF_MEMO", "0")
    for variant in ("with", "without"):
        trace = app_trace(app_id, variant, "test")
        wide = KernelTrace(
            [widened(g) for g in trace.groups], trace.total_groups,
            trace.local_size, trace.global_size,
        )
        assert price(wide, SPECS) == price(trace, SPECS)


def test_price_accepts_names_and_specs():
    trace = app_trace("NVD-MT", "with", "test")
    assert price(trace, ["SNB", "Fermi"]) == price(trace, [SNB, FERMI])
    assert list(price(trace, ["Fermi", "SNB"])) == ["Fermi", "SNB"]


def test_group_serialised_once_per_call(memo, monkeypatch):
    """Three CPUs priced together serialise each priced group once; the
    GPUs never serialise."""
    calls = []
    original = GroupTrace.serialized

    def spy(self, spaces):
        calls.append(self)
        return original(self, spaces)

    monkeypatch.setattr(GroupTrace, "serialized", spy)
    trace = app_trace("NVD-MM-B", "with", "test")
    priced = (
        len({g.fingerprint() for g in trace.groups}) if memo else len(trace.groups)
    )
    price(trace, SPECS)
    assert len(calls) == priced
    calls.clear()
    for spec in (SNB, NEHALEM, MIC):
        alone(spec, memo).time_kernel(trace)
    assert len(calls) == 3 * priced


def test_common_level_prefixes_simulated_once(monkeypatch):
    """SNB, Nehalem and MIC run 5 distinct level prefixes, not 8."""
    simulated = []
    original = FastSetAssocCache.access_many

    def spy(self, lines):
        simulated.append((self.n_sets, self.assoc))
        return original(self, lines)

    monkeypatch.setattr(FastSetAssocCache, "access_many", spy)
    monkeypatch.setenv("REPRO_CACHE_BACKEND", "fast")
    gt = app_trace("NVD-MM-B", "with", "test").groups[0]
    cpus = [CPUModel(s, memoize=False) for s in (SNB, NEHALEM, MIC)]
    group_costs(gt, cpus)
    assert len(simulated) == 5


def test_shared_call_emits_the_per_device_event_stream(monkeypatch):
    """Per device: its memo hits, then one ``model_kernel_timed``, in
    device order — what pricing on each device in turn emits."""
    monkeypatch.setenv("REPRO_PERF_MEMO", "1")
    trace = app_trace("NVD-MT", "with", "test")

    def stream(sink):
        return [(e.kind, dict(e.payload)) for e in sink.events]

    with collect() as sink:
        price(trace, SPECS)
    with collect() as one_by_one:
        for spec in SPECS:
            alone(spec, True).time_kernel(trace)
    assert stream(sink) == stream(one_by_one)
    kinds = [kind for kind, _ in stream(sink)]
    assert kinds.count("model_kernel_timed") == len(SPECS)
    assert kinds.count("model_memo_hit") == len(SPECS) * (
        len(trace.groups) - len({g.fingerprint() for g in trace.groups})
    )
