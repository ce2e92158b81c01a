"""Plain-text rendering of the paper's tables and figure series, and
the golden-file check that pins a rendered report in CI."""

from __future__ import annotations

import difflib
import sys
from pathlib import Path
from typing import Mapping, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Simple fixed-width table (used by benchmarks and examples)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]

    def fmt(row: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(row, widths))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(fmt(cells[0]))
    out.append(sep)
    out.extend(fmt(r) for r in cells[1:])
    return "\n".join(out)


def bar_series(values: Mapping[str, float], width: int = 40, ref: float = 1.0) -> str:
    """ASCII bar chart of normalised performance (the Fig. 2/10 look).

    Bars are scaled so that ``ref`` (= 1.0, parity) sits mid-scale; a
    marker shows the parity line.
    """
    if not values:
        return "(empty)"
    vmax = max(max(values.values()), ref * 1.2)
    lines = []
    label_w = max(len(k) for k in values)
    for name, v in values.items():
        n = int(round(v / vmax * width))
        ref_pos = int(round(ref / vmax * width))
        bar = ["#"] * n + [" "] * (width - n)
        if 0 <= ref_pos < width:
            bar[ref_pos] = "|" if bar[ref_pos] == " " else "+"
        lines.append(f"{name.ljust(label_w)} [{''.join(bar)}] {v:5.2f}")
    return "\n".join(lines)


def normalized_perf_table(
    per_device: Mapping[str, Mapping[str, float]],
    app_order: Sequence[str],
) -> str:
    """Figure-10-style table: one column per device, one row per app."""
    headers = ["app"] + list(per_device)
    rows = []
    for app in app_order:
        rows.append([app] + [f"{per_device[d][app]:.3f}" for d in per_device])
    return ascii_table(headers, rows, title="normalised performance (np > 1: removing local memory wins)")


def check_golden(path: str, text: str, update: bool) -> int:
    """Pin ``text`` against the golden file ``path``; an exit status.

    With ``update`` the file is (re)written and the status is 0.
    Otherwise the status is 0 when the file holds ``text`` line for
    line, and 1 with an ``error:`` line on stderr when it cannot be read
    or has drifted (followed by a unified diff).
    """
    golden = Path(path)
    if update:
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(text)
        print(f"# golden updated: {path}")
        return 0
    try:
        expected = golden.read_text().splitlines()
    except OSError as exc:
        print(f"error: cannot read golden {path!r}: {exc.strerror or exc} "
              "(write it with --update-golden)", file=sys.stderr)
        return 1
    current = text.splitlines()
    if expected != current:
        diff = "\n".join(difflib.unified_diff(
            expected, current, fromfile=path, tofile="current", lineterm=""
        ))
        print(f"error: {path} drifted:\n{diff}", file=sys.stderr)
        return 1
    print(f"# golden ok: {path}")
    return 0
