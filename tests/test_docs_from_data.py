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


DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PATH = re.compile(r"[\w./*-]+\.(?:py|json|md|yml|txt)(?:::\w+)?")
#: Prose leaves these off: `harness/jobs.py`, `bench_scaling.py`,
#: `quickstart.py`.
PREFIXES = ("", "src", "src/repro", "benchmarks", "examples")
NOT_IN_THE_TREE = {
    "out.json",                         # the reader's own --trace output
    "sim/stats.py", "mem/classify.py",  # DESIGN §6: "removed in PR 3"
}


def test_docs_name_files_and_tests_that_exist():
    stale = []
    for doc in DOCS:
        prose = re.sub(r"```.*?```", "", (ROOT / doc).read_text(),
                       flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", prose):
            if not PATH.fullmatch(span) or span in NOT_IN_THE_TREE:
                continue
            path, _, test = span.partition("::")
            found = [p for prefix in PREFIXES
                     for p in (ROOT / prefix).glob(path)]
            if not found or (test and f"def {test}("
                             not in found[0].read_text()):
                stale.append(f"{doc}: `{span}`")
    assert not stale, stale


WORDS = ("none", "one", "two", "three", "four", "five")
GAIN_ROW = re.compile(r"^\| (?P<bench>[A-Z]{2}) \|[^|]*\| \*\*"
                      r"(?P<gain>[+−-]\d+\.\d)%\*\*", re.M)


def test_fig2_sentence_counts_the_in_band_rows_of_its_own_table():
    """EXPERIMENTS.md, Figure 2: the sentence under the headline table
    says how many measured gains sit inside the paper's 5-20 % band;
    the measured-gain column of that table has to say the same."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Figure 2"):text.index("## Figure 3")]
    gains = {m["bench"]: float(m["gain"].replace("−", "-"))
             for m in GAIN_ROW.finditer(section)}
    assert sorted(gains) == ["BT", "CG", "LU", "MG", "SP"]
    in_band = sum(5.0 <= g <= 20.0 for g in gains.values())
    said = re.search(r"(\w+) of the five gains inside the paper's "
                     r"5–20% band", section)
    assert said is not None, "the Figure 2 sentence lost its count"
    assert said[1] == WORDS[in_band], \
        f"sentence says {said[1]}, the table has {in_band} rows in band"
    for bench, g in gains.items():          # a row out of band is named
        if not 5.0 <= g <= 20.0:
            assert f"{bench}'s is {g:+.1f}%" in section
