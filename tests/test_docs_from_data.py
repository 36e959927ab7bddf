"""Documentation tables that quote a BENCH file must agree with it.

The README's reference-vs-default row is ``BENCH_hotpath.json`` at two
significant digits, and EXPERIMENTS.md's measured numbers are the
committed ``benchmarks/results`` tables; a regenerated file (or a
typed-in number) that no longer matches fails here instead of going
stale in prose."""

import json
import pathlib
import re

from .test_paper_claims import _table, _text

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


AVERAGE_ROW = re.compile(r"^\| \*\*average\*\* \|[^|]*\| \*\*"
                         r"(?P<gain>[+−-]\d+\.\d)%\*\*", re.M)


def test_fig4_gains_are_the_committed_table_at_one_decimal():
    """EXPERIMENTS.md, Figure 4: the measured-gain column and its average
    are ``benchmarks/results/fig4_dynamic.txt``'s slipstream gains as
    percentages, to one decimal."""
    table = (ROOT / "benchmarks" / "results" / "fig4_dynamic.txt").read_text()

    def line(label):
        return next(ln for ln in table.splitlines() if ln.startswith(label))

    def pct(gain):
        return f"{(float(gain) - 1) * 100:+.1f}"

    want = {b: pct(g) for b, g in re.findall(
        r"(\w+)=([\d.]+)", line("per-benchmark slipstream gain:"))}
    want["average"] = pct(line("average gain:").split()[-1])
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Figure 4"):text.index("## Figure 5")]
    said = {m["bench"]: m["gain"].replace("−", "-")
            for m in GAIN_ROW.finditer(section)}
    said["average"] = AVERAGE_ROW.search(section)["gain"].replace("−", "-")
    assert said == want


def _section(start, end):
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return text[text.index(start):text.index(end)]


def test_ablation_numbers_are_their_tables():
    """EXPERIMENTS.md, Ablations: the measured numbers typed into the
    EP-affinity, latency and scaling bullets."""
    prose = _section("## Ablations", "### The chunk-128 cell")
    ratio = {r["bench"]: float(r["dynamic/static"])
             for r in _table(_text("ablation_ep_affinity.txt"), "bench")}
    assert f"measured {ratio['EP']:.2f}x vs {ratio['CG']:.2f}x" in prose
    gains = [r["slip gain"]
             for r in _table(_text("ablation_latency.txt"), "NetTime scale")]
    assert "measured " + " → ".join(gains) + ";" in prose
    at16 = _table(_text("scaling.txt"), "CMPs")[-1]
    assert (f"({int(at16['double']):,} vs single's "
            f"{int(at16['single']):,} cycles;") in prose


def test_table1_row_states_the_one_dirty_miss_the_probe_measures():
    """EXPERIMENTS.md, Table 1: the 3-hop row quotes the one placement
    ``table1_parameters.txt`` measures, not a range it does not."""
    value = {r["parameter"]: r["value"]
             for r in _table(_text("table1_parameters.txt"), "parameter")}
    row = next(ln for ln in _section("## Table 1", "## Table 2").splitlines()
               if ln.startswith("| remote dirty (3-hop) miss |"))
    measured = row.split("|")[3]
    assert re.findall(r"[\d.]+ ns", measured) == [
        f"{value['measured remote dirty (3-hop) miss']} ns"], measured
