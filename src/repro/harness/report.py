"""Per-source-line profile rendering: the hot-line table.

The ASCII tables in ``figures.py`` match the paper's presentation; this
module renders the one view of a line profile that is read on the
console (``repro run --profile`` / ``repro bench --profile``), next to
the collapsed stacks those verbs write for flame graphs.
"""

from __future__ import annotations

from typing import Dict

from ..obs import MEM_LEVELS, line_totals, profile_total
from .figures import render_table

__all__ = ["profile_table"]


def profile_table(profile: Dict[str, Dict], top: int = 20,
                  title: str = "") -> str:
    """Top-N per-source-line profile as an aligned ASCII table.

    One row per (function, line), hottest first: total simulated
    cycles, share of all profiled cycles, busy cycles, the memory
    cycles split by resolution level (CMP hits vs local home vs clean
    remote vs dirty 3-hop), and the R-vs-A split for slipstream runs.
    """
    rows = line_totals(profile)
    grand = profile_total(profile) or 1.0
    lv_cols = [lv for lv in MEM_LEVELS
               if any(r["levels"].get(lv) for r in rows.values())]
    show_streams = any(r["streams"]["A"] for r in rows.values())
    headers = ["function", "line", "cycles", "%", "busy"] + lv_cols
    if show_streams:
        headers += ["R", "A"]
    table = []
    ranked = sorted(rows.items(), key=lambda kv: (-kv[1]["total"], kv[0]))
    for (func, line), r in ranked[:top]:
        row = [func or "<runtime>", line, f"{r['total']:.0f}",
               f"{100.0 * r['total'] / grand:.1f}", f"{r['busy']:.0f}"]
        row += [f"{r['levels'].get(lv, 0.0):.0f}" for lv in lv_cols]
        if show_streams:
            row += [f"{r['streams']['R']:.0f}", f"{r['streams']['A']:.0f}"]
        table.append(row)
    return render_table(headers, table, title)
