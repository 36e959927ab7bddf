"""Documentation tables that quote a BENCH file must agree with it.

The README's reference-vs-default row is ``BENCH_hotpath.json`` at two
significant digits, and EXPERIMENTS.md's measured numbers are the
committed ``benchmarks/results`` tables; a regenerated file (or a
typed-in number) that no longer matches fails here instead of going
stale in prose."""

import json
import pathlib
import re

from .test_paper_claims import _gains, _table, _text

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
AVERAGE_ROW = re.compile(r"^\| \*\*average\*\* \|[^|]*\| \*\*"
                         r"(?P<gain>[+−-]\d+\.\d)%\*\*", re.M)


def _section(start, end):
    text = (ROOT / "EXPERIMENTS.md").read_text()
    return text[text.index(start):text.index(end)]


def _prose(section) -> str:
    """``section`` with line breaks and indents as single spaces."""
    return " ".join(section.split())


def _line(text, label) -> str:
    return next(ln for ln in text.splitlines() if ln.startswith(label))


def _pct(ratio) -> str:
    """A gain ratio as EXPERIMENTS.md types it: 1.103 -> ``+10.3``."""
    return f"{(float(ratio) - 1) * 100:+.1f}"


def _said_gains(section):
    """{BENCH or "average": gain} from a section's measured-gain column."""
    said = {m["bench"]: m["gain"].replace("−", "-")
            for m in GAIN_ROW.finditer(section)}
    said["average"] = AVERAGE_ROW.search(section)["gain"].replace("−", "-")
    return said


def _ours(section, labels, column):
    """{row label: cell} -- the ``column``-th cell of each markdown row
    of ``section`` whose first cell is one of ``labels``."""
    said = {}
    for row in section.splitlines():
        cells = [c.strip().strip("*") for c in row.strip("|").split("|")]
        if cells[0] in labels:
            said[cells[0]] = cells[column]
    return said


def test_fig2_sentence_counts_the_in_band_rows_of_its_own_table():
    """EXPERIMENTS.md, Figure 2: the sentence under the headline table
    says how many measured gains sit inside the paper's 5-20 % band;
    the measured-gain column of that table has to say the same."""
    section = _section("## Figure 2", "## Figure 3")
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


def test_fig2_gains_are_the_committed_table_at_one_decimal():
    """EXPERIMENTS.md, Figure 2: the measured-gain column and its
    average, LU's and MG's L1 gains, their G0-over-L1 margins and SP's
    gain over single are ``fig2_static.txt``'s, as percentages."""
    table = _text("fig2_static.txt")
    gains = _gains(table, "per-benchmark best-slip/best-base gains")
    want = {b: _pct(g) for b, g in gains.items()}
    want["average"] = _pct(_line(table, "average gain:").split()[-1])
    section = _section("## Figure 2", "## Figure 3")
    assert _said_gains(section) == want
    rows = {r["bench"]: {c: float(v) for c, v in r.items() if c != "bench"}
            for r in _table(table, "bench", "single") if r["bench"] in gains}
    margins = []
    for bench in ("LU", "MG"):
        r = rows[bench]
        l1 = r["L1"] / max(r["single"], r["double"])
        assert f"(L1 {_pct(l1)}%)" in section, bench
        margins.append((gains[bench] - l1) * 100)
    prose = _prose(section)
    assert f"({min(margins):.1f}–{max(margins):.1f} points)" in prose
    sp = _pct(rows["SP"]["G0"] / rows["SP"]["single"])
    assert f"{sp}% vs single" in prose
    assert f"{sp}% against `single`" in prose


def test_fig3_averages_are_the_committed_table():
    """EXPERIMENTS.md, Figure 3: our G0 and L1 columns are the
    ``averages:`` line of ``fig3_requests_static.txt``.  L1's
    read-exclusive coverage, which that line leaves out, is the mean of
    the L1 rdex rows' A-Timely + A-Late, as G0's is."""
    table = _text("fig3_requests_static.txt")
    *policies, cov = _line(table, "averages:").split(";")
    g0, l1 = ({k: float(v) for k, v in
               re.findall(r"([\w-]+)\(read\)=([\d.]+)", part)}
              for part in policies)

    def coverage(config):
        rdex = [r for r in _table(table, "bench")
                if r["config"] == config and r["kind"] == "rdex"]
        return sum(float(r["A-Timely"]) + float(r["A-Late"])
                   for r in rdex) / len(rdex)

    g0_cov = float(cov.split("=")[1])
    assert abs(coverage("G0") - g0_cov) < 0.001
    want = {"A-Timely (reads)": (g0["A-Timely"], l1["A-Timely"]),
            "A-Late (reads)": (g0["A-Late"], l1["A-Late"]),
            "A-Only / premature (reads)": (g0["A-Only"], l1["A-Only"]),
            "rd-exclusive coverage (A-Timely+A-Late)":
                (g0_cov, coverage("L1"))}
    section = _section("## Figure 3", "## Figure 4")
    for column, policy in ((2, 0), (4, 1)):
        assert _ours(section, want, column) == {
            k: f"{pair[policy] * 100:.1f}%" for k, pair in want.items()}
    prose = _prose(section)
    assert (f"({g0['A-Timely'] * 100:.0f}/{g0['A-Late'] * 100:.0f}/"
            f"{g0['A-Only'] * 100:.1f} vs the") in prose
    assert (f"ours {l1['A-Only'] * 100:.0f}% vs "
            f"{g0['A-Only'] * 100:.1f}%") in prose


def test_fig4_gains_are_the_committed_table_at_one_decimal():
    """EXPERIMENTS.md, Figure 4: the measured-gain column and its average
    are ``benchmarks/results/fig4_dynamic.txt``'s slipstream gains as
    percentages, to one decimal."""
    table = _text("fig4_dynamic.txt")
    want = {b: _pct(g) for b, g in
            _gains(table, "per-benchmark slipstream gain:").items()}
    want["average"] = _pct(_line(table, "average gain:").split()[-1])
    assert _said_gains(_section("## Figure 4", "## Figure 5")) == want


def test_fig5_averages_are_the_committed_table():
    """EXPERIMENTS.md, Figure 5: our column is the ``averages:`` line of
    ``fig5_requests_dynamic.txt``."""
    value = dict(re.findall(r"(\S+)=([\d.]+)", _line(
        _text("fig5_requests_dynamic.txt"), "averages:")))
    want = {"A-Timely (reads), avg": value["A-Timely(read)"],
            "A-Late (reads), avg": value["A-Late(read)"],
            "rd-ex coverage (A-Timely + A-Late)": value["coverage"]}
    assert _ours(_section("## Figure 5", "## §5.1"), want, 2) == {
        k: f"{float(v) * 100:.1f}%" for k, v in want.items()}


def test_ablation_numbers_are_their_tables():
    """EXPERIMENTS.md, Ablations: the measured numbers typed into the
    EP-affinity, latency and scaling bullets."""
    prose = _prose(_section("## Ablations", "### The chunk-128 cell"))
    ratio = {r["bench"]: float(r["dynamic/static"])
             for r in _table(_text("ablation_ep_affinity.txt"), "bench")}
    assert f"measured {ratio['EP']:.2f}x vs {ratio['CG']:.2f}x" in prose
    gains = [r["slip gain"]
             for r in _table(_text("ablation_latency.txt"), "NetTime scale")]
    assert "measured " + " → ".join(gains) + ";" in prose
    at4, *_, at16 = _table(_text("scaling.txt"), "CMPs")
    assert (f"({int(at16['double']):,} vs single's "
            f"{int(at16['single']):,} cycles;") in prose
    speedup = int(at4["single"]) / int(at16["single"])
    assert f"4x CMPs buys {speedup:.1f}x;" in prose
    assert (f"({int(at16['slipstream (G0)']):,} cycles, "
            f"{_pct(at16['slip speedup vs single'])}% over single)") in prose


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
