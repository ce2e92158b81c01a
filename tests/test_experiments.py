"""Tests for the experiment drivers, CLI and reporting."""

import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import (
    FIG2_APPS,
    app_trace,
    clear_caches,
    figure2,
    figure10,
    normalized_perf,
    table4,
)
from repro.reporting import ascii_table, bar_series, normalized_perf_table

from tests.conftest import MT_SOURCE, REDUCTION_SOURCE


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestExperimentDrivers:
    def test_traces_cached(self):
        t1 = app_trace("NVD-MT", "with", "test")
        t2 = app_trace("NVD-MT", "with", "test")
        assert t1 is t2

    def test_mm_baselines_are_one_trace(self):
        """NVD-MM-A, -B and -AB are three Grover choices on one kernel:
        their ``with`` runs are one launch, their ``without`` runs not."""
        base = app_trace("NVD-MM-A", "with", "test")
        assert app_trace("NVD-MM-B", "with", "test") is base
        assert app_trace("NVD-MM-AB", "with", "test") is base
        without = {id(app_trace(a, "without", "test")) for a in
                   ("NVD-MM-A", "NVD-MM-B", "NVD-MM-AB")}
        assert len(without) == 3

    def test_sweep_launches_each_distinct_kernel_once(self):
        """The paper sweep launches 20 kernels for its 22 (app, variant)
        pairs, and each value equals pricing the app's own trace."""
        from repro.apps.harness import run_app
        from repro.apps.registry import get_app
        from repro.perf import price
        from repro.perf.devices import CPU_DEVICES, GPU_DEVICES
        from repro.session import events

        clear_caches()
        with events.collect() as sink:
            t4 = table4(scale="test")
            fig10 = {dev: figure10(dev, scale="test") for dev in GPU_DEVICES}
            figure2(scale="test")
        assert len(sink.of_kind("launch_end")) == 20
        assert t4.cases == 33
        for app_id in TABLE_ORDER:
            own = {
                v: price(
                    run_app(get_app(app_id), v, "test", collect_trace=True).trace,
                    list(CPU_DEVICES) + list(GPU_DEVICES),
                )
                for v in ("with", "without")
            }
            for dev in list(CPU_DEVICES) + list(GPU_DEVICES):
                expected = own["with"][dev] / own["without"][dev]
                assert normalized_perf(app_id, dev, "test") == expected
                if dev in fig10:
                    assert fig10[dev].values[app_id] == expected

    def test_normalized_perf_is_positive(self):
        v = normalized_perf("NVD-MT", "SNB", "test")
        assert v > 0

    def test_mt_gains_on_cpus_at_test_scale(self):
        for dev in ("SNB", "Nehalem"):
            assert normalized_perf("NVD-MT", dev, "test") > 1.0

    def test_figure10_series(self):
        s = figure10("SNB", scale="test")
        assert set(s.values) == set(TABLE_ORDER)
        verdicts = s.classify_all()
        assert set(verdicts.values()) <= {"gain", "loss", "similar"}

    def test_table4_shape(self):
        t = table4(scale="test")
        assert t.cases == 33
        assert set(t.per_device) == {"SNB", "Nehalem", "MIC"}
        assert sum(t.totals.values()) == 33

    def test_figure2_covers_six_platforms(self):
        f2 = figure2(scale="test")
        assert set(f2) == {"MT", "MM"}
        for series in f2.values():
            assert set(series) == {"Fermi", "Kepler", "Tahiti", "SNB", "Nehalem", "MIC"}

    def test_fig2_apps_match_paper_setup(self):
        assert FIG2_APPS == ("NVD-MT", "NVD-MM-A")


class TestReporting:
    def test_ascii_table(self):
        t = ascii_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "30" in t

    def test_bar_series_marks_parity(self):
        s = bar_series({"x": 1.5, "y": 0.5})
        assert "x" in s and "y" in s
        assert "|" in s or "+" in s

    def test_bar_series_empty(self):
        assert bar_series({}) == "(empty)"

    def test_normalized_perf_table(self):
        per_dev = {"SNB": {"A": 1.0, "B": 0.5}, "MIC": {"A": 1.2, "B": 0.9}}
        t = normalized_perf_table(per_dev, ["A", "B"])
        assert "SNB" in t and "MIC" in t and "0.500" in t


class TestCLI:
    def test_cli_transforms_file(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "mt.cl"
        f.write_text(MT_SOURCE)
        rc = main([str(f), "--before"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "before Grover" in out
        assert "after Grover" in out
        assert "[ok] lm" in out

    def test_cli_rejects_reduction(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "red.cl"
        f.write_text(REDUCTION_SOURCE)
        rc = main([str(f)])
        assert rc == 2
        assert "cannot disable" in capsys.readouterr().err

    def test_cli_parse_error(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "bad.cl"
        f.write_text("__kernel void k(__global float* o) { o[0] = ; }")
        rc = main([str(f)])
        assert rc == 1

    def test_cli_defines_and_arrays(self, tmp_path, capsys):
        from repro.cli import main
        from tests.conftest import MM_SOURCE

        f = tmp_path / "mm.cl"
        f.write_text(MM_SOURCE)
        rc = main([str(f), "--arrays", "As", "--keep-barriers"])
        assert rc == 0
        out = capsys.readouterr().out
        report, after = out.split("after Grover")
        assert "[ok] As" in report
        assert "[ok] Bs" not in report
        assert "%Bs = local" in after
        assert "%As = local" not in after
