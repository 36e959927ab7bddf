#!/usr/bin/env python3
"""Static checks on the benchmark itself; imports nothing from repro.

* the benchmark reaches the program through public names only: no
  underscore name imported from ``repro`` or read off an object, and
  nothing from ``repro.hotpath`` or ``repro.harness.exec`` -- so the
  deletions ROADMAP items 2-4 plan cannot break it, and a change that
  claims a gain has no reason to edit it;
* ``BENCHMARK.json`` and ``metrics.py`` list the same metrics and
  workloads, every name is well formed, and the counts stay within
  8 workloads, 16 end-to-end and 128 per-layer metrics.

Exit code 0 when everything holds; otherwise the findings, one a line.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE.parents[1] / "BENCHMARK.json"
FORBIDDEN_MODULES = ("repro.hotpath", "repro.harness.exec")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def surface_findings(path: Path) -> list:
    out = []
    where = path.name
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules, names = [a.name for a in node.names], []
        elif isinstance(node, ast.Attribute):
            own = isinstance(node.value, ast.Name) and node.value.id == "self"
            if private(node.attr) and not own:
                out.append(f"{where}:{node.lineno}: reads private "
                           f"attribute .{node.attr}")
            continue
        else:
            continue
        for module in modules:
            if not (module == "repro" or module.startswith("repro.")):
                continue
            if any(module == m or module.startswith(m + ".")
                   for m in FORBIDDEN_MODULES):
                out.append(f"{where}:{node.lineno}: imports {module}")
            parts = module.split(".") + names
            out += [f"{where}:{node.lineno}: imports private name {p}"
                    for p in parts if private(p)]
    return out


def manifest_findings() -> list:
    sys.path.insert(0, str(HERE))
    from metrics import END_TO_END, PER_LAYER, WORKLOADS
    manifest = json.loads(MANIFEST.read_text())
    out = []
    for key, (low, high) in LIMITS.items():
        names = [entry["name"] for entry in manifest[key]]
        if not low <= len(names) <= high:
            out.append(f"BENCHMARK.json: {len(names)} {key}, allowed "
                       f"{low} to {high}")
        out += [f"BENCHMARK.json: malformed {key} name {n!r}"
                for n in names if not NAME.match(n)]
    used = [e["name"] for key in LIMITS for e in manifest[key]]
    out += [f"BENCHMARK.json: name {n!r} used twice"
            for n in sorted(set(used)) if used.count(n) > 1]
    want = {
        "workloads": [{"name": n, "why": why}
                      for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    out += [f"BENCHMARK.json: {key} differs from metrics.py"
            for key in want if manifest[key] != want[key]]
    if not any(e["name"] == "setup_s" for e in manifest["end_to_end"]):
        out.append("BENCHMARK.json: no setup_s among the end-to-end metrics")
    return out


def main() -> int:
    findings = manifest_findings()
    for path in sorted(HERE.glob("*.py")):
        findings += surface_findings(path)
    for line in findings:
        print(line)
    print(f"check_surface: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
