"""Golden-file tests for the Grover analysis reports.

``str(GroverReport)`` is the user-facing rendering of Table III — the
GL/LS/LL index strings and the solved nGL writer index per local array.
Each application's report is pinned byte-for-byte under
``tests/golden/<app-id>.txt``; a drift in symbolic rendering, solver
output or cleanup counts shows up as a readable unified diff.

To regenerate after an intentional change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_reports.py
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

from repro.apps.harness import compile_app
from repro.apps.registry import TABLE_ORDER, get_app

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def _render_report(app_id: str) -> str:
    _, report = compile_app(get_app(app_id), "without")
    return str(report).rstrip("\n") + "\n"


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_report_matches_golden(app_id):
    got = _render_report(app_id)
    path = GOLDEN_DIR / f"{app_id}.txt"

    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(got)
        pytest.skip(f"regenerated {path}")

    assert path.exists(), (
        f"missing golden file {path}; run with REPRO_UPDATE_GOLDEN=1 to create it"
    )
    want = path.read_text()
    if got != want:
        diff = "".join(
            difflib.unified_diff(
                want.splitlines(keepends=True),
                got.splitlines(keepends=True),
                fromfile=f"golden/{app_id}.txt",
                tofile=f"current {app_id}",
            )
        )
        pytest.fail(
            f"GroverReport for {app_id} drifted from golden file:\n{diff}\n"
            "If the change is intentional, regenerate with REPRO_UPDATE_GOLDEN=1."
        )


@pytest.mark.parametrize("app_id", TABLE_ORDER)
def test_session_path_matches_golden_byte_for_byte(app_id):
    """An explicit Session reproduces the pinned report exactly — the
    refactor's guarantee that the Session path is the legacy path."""
    from repro.session import Session

    path = GOLDEN_DIR / f"{app_id}.txt"
    if UPDATE or not path.exists():
        pytest.skip("golden files not pinned in this run")
    with Session(env={}).activate():
        _, report = compile_app(get_app(app_id), "without")
    assert str(report).rstrip("\n") + "\n" == path.read_text()


def test_golden_dir_has_no_strays():
    """Every golden file corresponds to a known application."""
    if not GOLDEN_DIR.exists():
        pytest.skip("golden dir not generated yet")
    known = {f"{app_id}.txt" for app_id in TABLE_ORDER}
    known.add("analyze.txt")  # the `repro analyze` verdict summary (CI)
    known.add("search.txt")  # the `repro search` pipeline report (CI)
    strays = {p.name for p in GOLDEN_DIR.glob("*.txt")} - known
    assert not strays, f"unexpected golden files: {sorted(strays)}"
