"""Figure/table data extraction and ASCII rendering.

One function per paper exhibit:

* Figure 2 -- static-scheduling speedups over single mode plus
  execution-time breakdowns;
* Figure 3 -- shared-data request classification under static
  scheduling (reads and read-exclusives; A/R x Timely/Late/Only);
* Figure 4 -- dynamic-scheduling execution-time breakdowns;
* Figure 5 -- request classification under dynamic scheduling;
* Table 1  -- machine parameters (from MachineConfig.describe());
* Table 2  -- benchmark inventory.

Each extractor returns plain dict/list data (easy to test) and has a
``render_*`` companion that formats the same rows the paper plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..obs import ClassStats
from ..npb import REGISTRY
from .runner import BenchRun

__all__ = [
    "BREAKDOWN_CATEGORIES", "speedup_table", "breakdown_table",
    "classification_table", "summary_gains", "render_table",
    "render_speedups", "render_breakdowns", "render_classification",
    "benchmark_inventory",
]

#: Paper Figure 2/4 time categories, in display order.  "jobwait" is the
#: paper's "job wait time", "scheduling" its scheduling time.
BREAKDOWN_CATEGORIES = ("busy", "memory", "lock", "barrier",
                        "scheduling", "jobwait", "io")


def speedup_table(suite: Dict[str, Dict[str, BenchRun]],
                  base: str = "single") -> Dict[str, Dict[str, float]]:
    """Speedup of every configuration normalized to ``base`` -- the
    paper's 'speedup normalized to single-mode execution'."""
    out: Dict[str, Dict[str, float]] = {}
    for bench, runs in suite.items():
        b = runs[base].cycles
        out[bench] = {cfg: b / r.cycles for cfg, r in runs.items()}
    return out


def breakdown_table(suite: Dict[str, Dict[str, BenchRun]],
                    base: str = "single"
                    ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Execution-time breakdown per benchmark/config, normalized so the
    base configuration totals 1.0 (the paper's stacked bars)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for bench, runs in suite.items():
        base_total = sum(runs[base].result.r_breakdown.values())
        out[bench] = {}
        for cfg, run in runs.items():
            bd = run.result.r_breakdown
            # Equal-width bars: normalize each config by its own thread
            # count so single (16 R-threads) and double (32) compare.
            n_r = sum(1 for n in run.result.breakdowns if n.startswith("R"))
            base_n = sum(1 for n in runs[base].result.breakdowns
                         if n.startswith("R"))
            scale = base_total * (n_r / base_n)
            row = {c: bd.get(c, 0.0) / scale for c in BREAKDOWN_CATEGORIES}
            row["other"] = (sum(bd.values())
                            - sum(bd.get(c, 0.0)
                                  for c in BREAKDOWN_CATEGORIES)) / scale
            out[bench][cfg] = row
    return out


def classification_table(suite: Dict[str, Dict[str, BenchRun]],
                         configs: Sequence[str] = ("G0", "L1")
                         ) -> Dict[str, Dict[str, Dict[str, Dict[str, float]]]]:
    """Shared-data request breakdown: {bench: {config: {kind: {label:
    fraction}}}} for kind in read/rdex -- Figures 3 and 5."""
    out: Dict[str, Dict[str, Dict[str, Dict[str, float]]]] = {}
    for bench, runs in suite.items():
        out[bench] = {}
        for cfg in configs:
            if cfg not in runs:
                continue
            cls: ClassStats = runs[cfg].result.classes
            out[bench][cfg] = {
                "read": cls.breakdown("read"),
                "rdex": cls.breakdown("rdex"),
            }
    return out


def summary_gains(suite: Dict[str, Dict[str, BenchRun]],
                  slip_configs: Sequence[str] = ("G0", "L1"),
                  base_configs: Sequence[str] = ("single", "double")
                  ) -> Dict[str, float]:
    """The paper's headline metric per benchmark: best slipstream over
    best of single/double ('performance advantage over the best of
    single and double mode')."""
    out = {}
    for bench, runs in suite.items():
        best_base = min(runs[c].cycles for c in base_configs if c in runs)
        best_slip = min(runs[c].cycles for c in slip_configs if c in runs)
        out[bench] = best_base / best_slip
    return out


def benchmark_inventory(names=None) -> List[Dict[str, object]]:
    """Table 2 analogue: the paper's benchmark suite with bench-size
    parameters (pass names to list others, e.g. the extra EP kernel)."""
    from .runner import STATIC_BENCHMARKS
    rows = []
    for name in sorted(names if names is not None else STATIC_BENCHMARKS):
        spec = REGISTRY[name]
        rows.append({
            "benchmark": name.upper(),
            "description": spec.description,
            "bench parameters": spec.sizes["bench"],
            "test parameters": spec.sizes["test"],
        })
    return rows


# ------------------------------------------------------------- rendering

def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Format rows as an aligned ASCII table."""
    cols = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
            else len(str(h)) for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, cols))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in cols))
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def render_speedups(suite, base: str = "single", title: str = "") -> str:
    """Figure 2a/4a-style speedup table with the headline gain row."""
    tbl = speedup_table(suite, base)
    configs = list(next(iter(tbl.values())))
    rows = [[bench.upper()] + [f"{tbl[bench][c]:.3f}" for c in configs]
            for bench in tbl]
    gains = summary_gains(suite)
    rows.append(["best-slip/best-base"]
                + ["" for _ in configs[:-1]]
                + [f"avg {sum(gains.values()) / len(gains):.3f}"])
    return render_table(["bench"] + configs, rows, title)


def render_breakdowns(suite, base: str = "single", title: str = "") -> str:
    """Figure 2b/4b-style execution-time breakdown table."""
    tbl = breakdown_table(suite, base)
    cats = list(BREAKDOWN_CATEGORIES) + ["other"]
    rows = []
    for bench, cfgs in tbl.items():
        for cfg, row in cfgs.items():
            rows.append([bench.upper(), cfg]
                        + [f"{row[c]:.3f}" for c in cats]
                        + [f"{sum(row.values()):.3f}"])
    return render_table(["bench", "config"] + list(cats) + ["total"],
                        rows, title)


def render_classification(suite, configs=("G0", "L1"),
                          title: str = "") -> str:
    """Figure 3/5-style request-classification table."""
    tbl = classification_table(suite, configs)
    labels = ["A-Timely", "A-Late", "A-Only",
              "R-Timely", "R-Late", "R-Only"]
    rows = []
    for bench, cfgs in tbl.items():
        for cfg, kinds in cfgs.items():
            for kind, brk in kinds.items():
                rows.append([bench.upper(), cfg, kind]
                            + [f"{brk[label]:.3f}" for label in labels])
    return render_table(["bench", "config", "kind"] + labels, rows, title)
