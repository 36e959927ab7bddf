"""The paper's qualitative results, asserted over the committed tables.

``benchmarks/results/fig{2,3,4}_*.txt``, ``ablation_latency.txt``,
``ablation_chunksize.txt`` and ``scaling.txt`` are paper scale (16 CMPs,
``bench`` size; scaling also at 4 and 8) and are rewritten by the
``benchmarks/bench_*.py`` of the same name; this module runs no
simulation, it reads them.  A refactor that re-records a
table keeps passing only while the table still says what the paper
says.  The claim is the bench-size one: at 4 CMPs test size ``double``
still scales and slipstream's static average is below 1.

Open and deliberately not asserted: CG's dynamic gain (0.986, ⚠ in
EXPERIMENTS.md's Figure 4 section) -- the paper has every benchmark
gaining under dynamic scheduling; mini-CG's serialized scheduler does
not.
"""

import re
from pathlib import Path

import pytest

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The paper's Figure 2 gains span 5-20 % per benchmark (average 13.5 %);
#: the measured average must stay inside that band.
STATIC_AVG_BAND = (1.05, 1.20)


def _text(name):
    return (RESULTS / name).read_text()


def _gains(text, label):
    """{BENCH: gain} from a ``<label>: BT=1.103, CG=...`` line."""
    line = next(ln for ln in text.splitlines() if ln.startswith(label))
    return {b: float(g) for b, g in re.findall(r"(\w+)=([\d.]+)", line)}


def _cells(text, header):
    """(header line, rows as lists of cells) of the table whose header
    line starts with ``header``, up to the first blank line."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(header))
    rows = []
    for ln in lines[start + 2:]:          # skip the header and its rule
        if not ln.strip():
            break
        rows.append(ln.split())
    return lines[start], rows


def _rows(text, header):
    """Rows ({column: cell}) of a table whose column names are one word
    each."""
    head, rows = _cells(text, header)
    return [dict(zip(head.split(), row)) for row in rows]


@pytest.fixture(scope="module")
def fig2():
    return _text("fig2_static.txt")


def test_slipstream_beats_best_base_on_every_static_benchmark(fig2):
    gains = _gains(fig2, "per-benchmark best-slip/best-base gains")
    assert set(gains) == {"BT", "CG", "LU", "MG", "SP"}
    for bench, gain in gains.items():
        assert gain > 1.0, (
            f"§5.1 (Fig 2): slipstream must beat the best of single and "
            f"double on every static benchmark; {bench} reads {gain}")
    avg = sum(gains.values()) / len(gains)
    lo, hi = STATIC_AVG_BAND
    assert lo <= avg <= hi, (
        f"§5.1 (Fig 2): average static gain {avg:.3f} left the paper's "
        f"5-20 % band")


def test_static_scheduling_time_is_negligible(fig2):
    rows = _rows(fig2, "bench  config  busy")
    assert len(rows) == 20                # 5 benchmarks x 4 configurations
    for row in rows:
        assert float(row["scheduling"]) < 0.02, (
            f"§5.1 (Fig 2b): scheduling time under static scheduling "
            f"must be negligible (< 2 %); {row['bench']} {row['config']} "
            f"reads {row['scheduling']}")


def test_request_timeliness_follows_the_sync_policy():
    line = next(ln for ln in _text("fig3_requests_static.txt").splitlines()
                if ln.startswith("averages:"))
    g0, l1 = (dict(re.findall(r"([\w-]+\(read\))=([\d.]+)", part))
              for part in line.split(";")[:2])
    assert float(g0["A-Late(read)"]) > float(l1["A-Late(read)"]), (
        "§5.1 (Fig 3): the tight G0 policy must show more late A-stream "
        "read fills than loose L1 (its prefetches are still in flight)")
    assert float(l1["A-Only(read)"]) > float(g0["A-Only(read)"]), (
        "§5.1 (Fig 3): the loose L1 policy must show more premature "
        "(A-Only) read fills than G0")


def test_sp_gains_most_under_dynamic_scheduling():
    gains = _gains(_text("fig4_dynamic.txt"), "per-benchmark slipstream gain")
    assert set(gains) == {"BT", "CG", "MG", "SP"}
    assert max(gains, key=gains.get) == "SP", (
        f"§5.2 (Fig 4): SP must gain most under dynamic scheduling; "
        f"gains {gains}")


def test_slipstream_gain_rises_with_interconnect_latency():
    head, rows = _cells(_text("ablation_latency.txt"), "NetTime scale")
    assert head.split()[-2:] == ["slip", "gain"]
    assert [row[0] for row in rows] == ["0.5x", "1.0x", "2.0x"]
    gains = [float(row[-1]) for row in rows]
    assert gains[0] < gains[1] < gains[2], (
        f"§1: slipstream pays off where communication dominates, so its "
        f"gain on SP must rise as NetTime grows; gains {gains}")


def test_scheduling_fraction_falls_as_the_chunk_grows():
    # Only the chunk and the single-mode fraction are read: the slip-G0
    # cell of the chunk-128 row is the one exhibit cell that drifted
    # (ROADMAP item 1(a)).
    head, rows = _cells(_text("ablation_chunksize.txt"), "chunk")
    assert head.rstrip().endswith("sched fraction (single)")
    assert [int(row[0]) for row in rows] == [16, 32, 128]
    fracs = [float(row[-1]) for row in rows]
    assert fracs[0] > fracs[1] > fracs[2], (
        f"§3.2.2: a chunk carrying more work must spend a smaller share "
        f"of CG's time scheduling; fractions {fracs}")


def test_slipstream_is_the_best_configuration_at_16_cmps():
    _head, rows = _cells(_text("scaling.txt"), "CMPs")
    assert [row[0] for row in rows] == ["4", "8", "16"]
    single, double, slip = (int(c) for c in rows[-1][1:4])
    assert slip < double < single, (
        f"§1: at 16 CMPs CG is past its scaling knee, where a second "
        f"task per CMP barely helps and slipstream is the best use of "
        f"the second processor; cycles single {single}, double {double}, "
        f"slipstream {slip}")
