"""The paper's qualitative results, asserted over the committed tables.

Every table under ``benchmarks/results/`` is paper scale (16 CMPs,
``bench`` size; scaling also at 4 and 8, Table 2's smoke runs at test
size on 4) and is rewritten by ``benchmarks/exhibits.py``; this module
runs no simulation, it reads them.  It is the one home of the exhibits'
shape checks: a refactor that re-records a table keeps passing only
while the table still says what the paper says.  The claims are the
bench-size ones: at 4 CMPs test size ``double`` still scales and
slipstream's static average is below 1.

Open and deliberately not asserted: the sign of CG's dynamic gain
(0.986, ⚠ in EXPERIMENTS.md's Figure 4 section) -- the paper has every
benchmark gaining under dynamic scheduling; mini-CG's serialized
scheduler does not.  Only "hurts by less than 3 %" is claimed.
"""

import re
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
BENCHES = {"BT", "CG", "LU", "MG", "SP"}

#: The paper's Figure 2 gains span 5-20 % per benchmark (average 13.5 %);
#: the measured average must stay inside that band.
STATIC_AVG_BAND = (1.05, 1.20)


def _text(name):
    return (RESULTS / name).read_text()


def _gains(text, label):
    """{BENCH: value} from a ``<label>: BT=1.103, CG=...`` line."""
    line = next(ln for ln in text.splitlines() if ln.startswith(label))
    return {b: float(g) for b, g in re.findall(r"(\w+)=([\d.]+)", line)}


def _split(line):
    # render_table joins cells with two spaces; no cell holds two.
    return re.split(r"\s{2,}", line.strip())


def _table(text, *head):
    """Rows ({column: cell}) of the first table whose header starts with
    the columns ``head``, up to the first blank line."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines)
                 if _split(ln)[:len(head)] == list(head))
    columns = _split(lines[start])
    rows = []
    for ln in lines[start + 2:]:          # skip the header and its rule
        if not ln.strip():
            break
        rows.append(dict(zip(columns, _split(ln))))
    return rows


@pytest.fixture(scope="module")
def fig2():
    return _text("fig2_static.txt")


def test_slipstream_beats_best_base_on_every_static_benchmark(fig2):
    gains = _gains(fig2, "per-benchmark best-slip/best-base gains")
    assert set(gains) == BENCHES
    for bench, gain in gains.items():
        assert gain > 1.0, (
            f"§5.1 (Fig 2): slipstream must beat the best of single and "
            f"double on every static benchmark; {bench} reads {gain}")
    avg = sum(gains.values()) / len(gains)
    lo, hi = STATIC_AVG_BAND
    assert lo <= avg <= hi, (
        f"§5.1 (Fig 2): average static gain {avg:.3f} left the paper's "
        f"5-20 % band")


def test_some_benchmarks_prefer_loose_and_some_conservative_sync(fig2):
    speedups = {r["bench"]: r for r in _table(fig2, "bench", "single")
                if r["bench"] in BENCHES}
    prefer_l1 = {b for b, r in speedups.items()
                 if float(r["L1"]) > float(r["G0"])}
    assert prefer_l1 and prefer_l1 != BENCHES, (
        f"§5.1 (Fig 2): CG, LU and MG favour loose sync, BT and SP "
        f"conservative; the split must exist, L1 wins on {prefer_l1}")


def test_static_scheduling_time_is_negligible(fig2):
    rows = _table(fig2, "bench", "config", "busy")
    assert len(rows) == 20                # 5 benchmarks x 4 configurations
    for row in rows:
        assert float(row["scheduling"]) < 0.02, (
            f"§5.1 (Fig 2b): scheduling time under static scheduling "
            f"must be negligible (< 2 %); {row['bench']} {row['config']} "
            f"reads {row['scheduling']}")


#: The paper's average gains (§5.1 Fig 2, §5.2 Fig 4), in percent, and
#: how many points the measured averages may sit from them.
PAPER_AVERAGE_GAIN = {"fig2_static.txt": 13.5, "fig4_dynamic.txt": 12.0}
PAPER_GAP_PTS = 5.0


def test_average_gains_sit_within_five_points_of_the_papers():
    gaps = {}
    for name, paper in PAPER_AVERAGE_GAIN.items():
        line = next(ln for ln in _text(name).splitlines()
                    if ln.startswith("average gain:"))
        gaps[name] = paper - (float(line.split()[-1]) - 1) * 100
        assert abs(gaps[name]) <= PAPER_GAP_PTS, (
            f"§5: the average gain in {name} is {gaps[name]:.1f} points "
            f"off the paper's +{paper}%")
    # EXPERIMENTS.md's Figure 2 text states its gap to half a point.
    text = (RESULTS.parents[1] / "EXPERIMENTS.md").read_text()
    section = text[text.index("## Figure 2"):text.index("## Figure 3")]
    said = float(re.search(r"average within ([\d.]+) points of the "
                           r"paper's", section)[1])
    assert abs(gaps["fig2_static.txt"]) <= said \
        < abs(gaps["fig2_static.txt"]) + 0.5, said


@pytest.fixture(scope="module")
def fig3_averages():
    """G0's and L1's read averages and G0's rdex coverage, from the
    ``averages:`` line of Figure 3."""
    line = next(ln for ln in _text("fig3_requests_static.txt").splitlines()
                if ln.startswith("averages:"))
    *policies, cov = line.split(";")
    g0, l1 = ({k: float(v) for k, v in
               re.findall(r"([\w-]+)\(read\)=([\d.]+)", part)}
              for part in policies)
    return g0, l1, float(cov.split("=")[1])


def test_request_timeliness_follows_the_sync_policy(fig3_averages):
    g0, l1, _ = fig3_averages
    assert g0["A-Late"] > l1["A-Late"], (
        "§5.1 (Fig 3): the tight G0 policy must show more late A-stream "
        "read fills than loose L1 (its prefetches are still in flight)")
    assert l1["A-Only"] > g0["A-Only"], (
        "§5.1 (Fig 3): the loose L1 policy must show more premature "
        "(A-Only) read fills than G0")


def test_loose_sync_fills_more_reads_in_time_on_cg_and_mg():
    reads = {(r["bench"], r["config"]): float(r["A-Timely"])
             for r in _table(_text("fig3_requests_static.txt"), "bench")
             if r["kind"] == "read"}
    for bench in ("CG", "MG"):
        assert reads[bench, "L1"] > reads[bench, "G0"], (
            f"§5.1 (Fig 3): on {bench}, which favours loose sync, L1 lets "
            f"the A-stream run further ahead: more A-Timely read fills")


def test_g0_prefetches_are_rarely_premature_and_cover_rdex(fig3_averages):
    g0, _, coverage = fig3_averages
    assert g0["A-Only"] < 0.15, (
        "§5.1 (Fig 3): premature prefetches stay the minority under G0")
    assert coverage > 0.30, (
        "§5.1 (Fig 3): converted stores give substantial read-exclusive "
        "coverage")


@pytest.fixture(scope="module")
def fig4():
    return _text("fig4_dynamic.txt")


def test_sp_gains_most_under_dynamic_scheduling(fig4):
    gains = _gains(fig4, "per-benchmark slipstream gain")
    assert set(gains) == {"BT", "CG", "MG", "SP"}
    assert max(gains, key=gains.get) == "SP", (
        f"§5.2 (Fig 4): SP must gain most under dynamic scheduling; "
        f"gains {gains}")


def test_slipstream_wins_under_dynamic_scheduling(fig4):
    gains = _gains(fig4, "per-benchmark slipstream gain")
    assert sum(g > 1.0 for g in gains.values()) >= len(gains) - 1, gains
    assert min(gains.values()) > 0.97, (
        f"§5.2 (Fig 4): slipstream may fail to win on one kernel (CG) "
        f"but must not hurt by 3 %; gains {gains}")
    assert 1.02 < sum(gains.values()) / len(gains) < 1.35, gains


def test_dynamic_scheduling_costs_visible_scheduling_time(fig4):
    fracs = _gains(fig4, "base scheduling-time fraction")
    assert sum(fracs.values()) / len(fracs) > 0.02, (
        f"§5.2 (Fig 4): dynamic scheduling shows real scheduling "
        f"overhead in the base runs; fractions {fracs}")


def test_a_stream_covers_fills_under_dynamic_scheduling():
    rows = _table(_text("fig5_requests_dynamic.txt"), "bench")
    assert {r["bench"] for r in rows} == {"BT", "CG", "MG", "SP"}
    for r in rows:
        covered = float(r["A-Timely"]) + float(r["A-Late"])
        assert covered > (0.05 if r["kind"] == "read" else 0.15), (
            f"§5.2 (Fig 5): the A-stream must still supply {r['kind']} "
            f"fills on {r['bench']}; A-Timely + A-Late reads {covered:.3f}")


def test_slipstream_gain_rises_with_interconnect_latency():
    rows = _table(_text("ablation_latency.txt"), "NetTime scale")
    assert [r["NetTime scale"] for r in rows] == ["0.5x", "1.0x", "2.0x"]
    gains = [float(r["slip gain"]) for r in rows]
    assert gains[0] < gains[1] < gains[2], (
        f"§1: slipstream pays off where communication dominates, so its "
        f"gain on SP must rise as NetTime grows; gains {gains}")


def test_scheduling_fraction_falls_as_the_chunk_grows():
    rows = _table(_text("ablation_chunksize.txt"), "chunk")
    assert [int(r["chunk"]) for r in rows] == [16, 32, 128]
    fracs = [float(r["sched fraction (single)"]) for r in rows]
    assert fracs[0] > fracs[1] > fracs[2], (
        f"§3.2.2: a chunk carrying more work must spend a smaller share "
        f"of CG's time scheduling; fractions {fracs}")


def test_dynamic_scheduling_hurts_ep_less_than_cg():
    ratio = {r["bench"]: float(r["dynamic/static"])
             for r in _table(_text("ablation_ep_affinity.txt"), "bench")}
    assert 1.0 < ratio["EP"] < ratio["CG"], (
        f"§3.2.2: dynamic scheduling loses cache affinity, which costs "
        f"iterative CG more than embarrassingly parallel EP; "
        f"dynamic/static {ratio}")


def test_the_token_policy_matters():
    rows = _table(_text("ablation_tokens.txt"), "bench")
    for bench in ("CG", "SP"):
        speedups = [float(r["speedup vs single"]) for r in rows
                    if r["bench"] == bench]
        assert len(speedups) == 6
        assert max(speedups) - min(speedups) > 0.005, (
            f"§5.1: performance is sensitive to the A-R synchronization; "
            f"{bench} speedups {speedups}")


def test_self_invalidation_is_measured_on_sp_and_mg():
    rows = _table(_text("ablation_selfinv.txt"), "bench")
    assert [r["bench"] for r in rows] == ["SP", "MG"]
    for r in rows:
        assert int(r["selfinv OFF (cycles)"]) > 0
        assert int(r["selfinv ON (cycles)"]) > 0


@pytest.fixture(scope="module")
def scaling():
    rows = _table(_text("scaling.txt"), "CMPs")
    assert [r["CMPs"] for r in rows] == ["4", "8", "16"]
    return [{k: int(v) for k, v in r.items()
             if k in ("single", "double", "slipstream (G0)")} for r in rows]


def test_slipstream_is_the_best_configuration_at_16_cmps(scaling):
    single, double, slip = (scaling[-1][c] for c in
                            ("single", "double", "slipstream (G0)"))
    assert slip < double < single, (
        f"§1: at 16 CMPs CG is past its scaling knee, where a second "
        f"task per CMP barely helps and slipstream is the best use of "
        f"the second processor; cycles single {single}, double {double}, "
        f"slipstream {slip}")
    assert double > 0.9 * single


def test_fixed_size_cg_scales_sublinearly(scaling):
    first, last = scaling[0]["single"], scaling[-1]["single"]
    assert first > last
    assert first / last < 4 * 0.9, (
        f"§1: four times the CMPs must buy less than four times the "
        f"speed on fixed-size CG; single {first} -> {last}")


def test_table1_latencies_compose_to_the_papers():
    value = {r["parameter"]: r["value"]
             for r in _table(_text("table1_parameters.txt"), "parameter")}
    assert float(value["measured local L2 miss"]) == 170.0
    assert float(value["measured remote clean miss"]) == 290.0
    assert float(value["measured remote dirty (3-hop) miss"]) > 290.0


def test_table2_lists_the_papers_five_benchmarks():
    rows = _table(_text("table2_benchmarks.txt"), "benchmark")
    assert {r["benchmark"] for r in rows} == BENCHES
    assert all(int(r["test cycles (4 CMPs)"]) > 0 for r in rows)


def test_token_insertion_point_sets_how_far_the_a_stream_runs_ahead():
    rows = _table(_text("fig1_token_sync.txt"), "cycle")

    def at(policy, stream, event):
        return next(float(r["cycle"]) for r in rows
                    if (r["policy"], r["stream"], r["event"])
                    == (policy, stream, event))

    local, glob = "one-token local", "zero-token global"
    # L1: the initial token lets A skip barrier 0 on arrival (400), then
    # it runs one session ahead of R's barrier entries.
    assert at(local, "A", "consume token, skip 0") == 400.0
    assert at(local, "A", "consume token, skip 1") == \
        at(local, "R", "enter barrier 0")
    # G0: A crosses barrier k exactly when R leaves it.
    assert at(glob, "A", "consume token, skip 0") == \
        at(glob, "R", "exit barrier 0")
    for policy in (local, glob):
        assert sum(r["policy"] == policy
                   and r["event"].startswith("consume token")
                   for r in rows) == 4
