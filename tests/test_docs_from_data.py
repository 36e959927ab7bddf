"""Documentation tables that quote a BENCH file must agree with it.

The README's reference-vs-default row is ``BENCH_hotpath.json`` at two
significant digits; a regenerated JSON (or a typed-in number) that no
longer matches fails here instead of going stale in prose."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROW = re.compile(
    r"^\| `(?P<arm>[a-z,]+)`\s*\| (?P<suite>\S+)\s*\| (?P<vm>\S+)\s*\|$")


def two_digits(x: float) -> float:
    return float(f"{x:.2g}")


def test_readme_tier_table_matches_bench_hotpath_json():
    arms = json.loads((ROOT / "BENCH_hotpath.json").read_text())["arms"]
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| `REPRO_HOTPATH`"):]
    rows = {}
    for line in table.splitlines()[2:]:
        m = ROW.match(line)
        if m is None:
            break
        rows[m["arm"]] = (m["suite"], m["vm"])
    assert set(rows) == set(arms) - {"off"}
    for arm, cells in rows.items():
        for cell, key in zip(cells, ("speedup_vs_off",
                                     "vm_dispatch_speedup_vs_off")):
            assert cell.endswith("×"), (arm, cell)
            assert float(cell[:-1]) == two_digits(arms[arm][key]), \
                f"README says {cell} for {arm} {key}, " \
                f"BENCH_hotpath.json says {arms[arm][key]}"
