"""The paper's correctness claim (§VI-A): every application transforms
and still runs correctly — plus Table III index assertions."""

import pytest

from repro.apps.harness import compile_app, validate_app
from repro.apps.registry import (
    SCALES,
    TABLE_ORDER,
    get_app,
    table_apps,
    validate_app_ids,
)

ALL_APPS = TABLE_ORDER


@pytest.mark.parametrize("app_id", ALL_APPS)
def test_original_correct(app_id):
    validate_app(get_app(app_id), "with", "test")


@pytest.mark.parametrize("app_id", ALL_APPS)
def test_transformed_correct(app_id):
    """The Grover-transformed kernel computes identical results."""
    validate_app(get_app(app_id), "without", "test")


@pytest.mark.parametrize("app_id", ALL_APPS)
def test_local_memory_actually_removed(app_id):
    app = get_app(app_id)
    kernel, report = compile_app(app, "without")
    assert report is not None
    removed = {r.name for r in report.transformed}
    remaining = {la.name for la in kernel.local_arrays}
    assert removed, f"{app_id}: nothing was transformed"
    assert not (removed & remaining)
    if app.arrays is None:
        assert not remaining, f"{app_id}: local arrays left: {remaining}"


class TestRegistry:
    def test_eleven_table_rows(self):
        assert len(TABLE_ORDER) == 11
        assert len(table_apps()) == 11

    def test_all_suites_represented(self):
        suites = {a.suite for a in table_apps()}
        assert {"AMD APP SDK", "NVIDIA SDK", "Rodinia", "Parboil"} <= suites

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            get_app("XXX-YY")

    def test_validate_app_ids_lists_the_valid_ids(self):
        assert validate_app_ids(["NVD-MT", "PAB-ST"]) == ["NVD-MT", "PAB-ST"]
        with pytest.raises(ValueError, match="NVD-TYPO; valid ids: AMD-SS, "):
            validate_app_ids(["NVD-MT", "NVD-TYPO"])

    def test_every_app_uses_local_memory(self):
        for app in table_apps():
            kernel, _ = compile_app(app, "with")
            has_local = bool(kernel.local_arrays) or any(
                a.type.addrspace.name == "LOCAL"
                for a in kernel.args
                if hasattr(a.type, "addrspace")
            )
            assert has_local, f"{app.id} does not use local memory"

    def test_problem_scales_exist(self):
        for app in table_apps():
            for scale in SCALES:
                p = app.make_problem(scale)
                assert p.global_size and p.local_size
                assert p.expected


class TestTable3Indices:
    """Symbolic per-app assertions mirroring the paper's Table III."""

    def _report(self, app_id):
        _, report = compile_app(get_app(app_id), "without")
        return report

    def test_nvd_mt_swap(self):
        rep = self._report("NVD-MT")
        (ll,) = rep.record("lm").lls
        assert ll.solution.render() == "lx = ly, ly = lx"

    def test_amd_mt_swap(self):
        rep = self._report("AMD-MT")
        (ll,) = rep.record("lm").lls
        assert ll.solution.render() == "lx = ly, ly = lx"

    def test_amd_ss_group_independent(self):
        """All work-items share the pattern: GL has no group component."""
        rep = self._report("AMD-SS")
        rec = rep.record("lp")
        assert "get_group_id" not in rec.gl_index
        (ll,) = rec.lls
        assert "lx = j" in ll.solution.render()

    def test_nvd_mm_a_solution(self):
        rep = self._report("NVD-MM-A")
        (ll,) = rep.record("As").lls
        assert "lx = k" in ll.solution.render()
        assert "ly = ly" in ll.solution.render()

    def test_nvd_mm_b_solution(self):
        rep = self._report("NVD-MM-B")
        (ll,) = rep.record("Bs").lls
        assert "lx = lx" in ll.solution.render()
        assert "ly = k" in ll.solution.render()

    def test_nbody_tile_solution(self):
        rep = self._report("NVD-NBody")
        (ll,) = rep.record("sh").lls
        assert "lx = j" in ll.solution.render()
        assert "tile" in ll.ngl_index  # loop counter survives in nGL

    def test_rod_sc_solution(self):
        rep = self._report("ROD-SC")
        (ll,) = rep.record("cc").lls
        assert "lx = d" in ll.solution.render()
        # the centre argument must appear in the new global index
        assert "center" in ll.ngl_index

    def test_pab_st_five_systems(self):
        rep = self._report("PAB-ST")
        rec = rep.record("lm")
        assert len(rec.lls) == 5
        sols = {ll.solution.render() for ll in rec.lls}
        assert "lx = lx, ly = ly" in sols            # centre
        assert "lx = lx, ly = ly - 1" in sols        # north
        assert "lx = lx, ly = ly + 1" in sols        # south
        assert "lx = lx - 1, ly = ly" in sols        # west
        assert "lx = lx + 1, ly = ly" in sols        # east

    def test_amd_rg_tap_solution(self):
        rep = self._report("AMD-RG")
        rec = rep.record("lm")
        (ll,) = rec.lls
        # lm[lx + k] with LS lm[lx + R]: writer lx = lx + k - R
        assert "lx = " in ll.solution.render()
        assert "k" in ll.solution.render()

    def test_amd_mm_vector_tile(self):
        rep = self._report("AMD-MM")
        (ll,) = rep.record("Bs").lls
        s = ll.solution.render()
        assert "lx = lx" in s and "ly = k" in s


class TestMultiPassHaloChoice:
    def test_rg_selects_dominating_pair(self):
        """AMD-RG has three (GL,LS) pairs; the main one must be chosen."""
        from repro.core.candidates import find_candidates

        kernel, _ = compile_app(get_app("AMD-RG"), "with")
        (cand,) = find_candidates(kernel)[0]
        assert len(cand.pairs) == 3
        from repro.ir.cfg import dominators, inst_dominates

        doms = dominators(kernel)
        assert all(inst_dominates(doms, cand.ls, ll) for ll in cand.lls)
