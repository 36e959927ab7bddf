"""Tests for the experiment harness (runner + figure extractors)."""

import re

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import (BREAKDOWN_CATEGORIES, SLIP_CONFIGS,
                           benchmark_inventory, breakdown_table,
                           classification_table, dynamic_chunk,
                           render_breakdowns, render_classification,
                           render_speedups, render_table, run_benchmark,
                           run_dynamic_suite, run_static_suite,
                           speedup_table, summary_gains)
from repro.harness.runner import _env_for
from repro.runtime import RuntimeEnv

CFG = PAPER_MACHINE.with_(n_cmps=4)


@pytest.fixture(scope="module")
def small_suite():
    return run_static_suite(cfg=CFG, size="test", benchmarks=("cg",),
                            configs=("single", "double", "G0", "L1"))


def test_run_benchmark_verifies_and_tags():
    run = run_benchmark("cg", "G0", cfg=CFG, size="test")
    assert run.bench == "cg"
    assert run.config == "G0"
    assert run.cycles > 0
    assert run.params["n"] > 0


def test_run_benchmark_param_overrides():
    run = run_benchmark("cg", "single", cfg=CFG, size="test",
                        params=dict(n=128))
    assert run.params["n"] == 128


def test_config_names_parse_to_token_policies():
    for name, slip in SLIP_CONFIGS.items():
        assert _env_for(name) == RuntimeEnv(slipstream=slip,
                                            slipstream_set=True)
    assert _env_for("G2").slipstream == ("GLOBAL_SYNC", 2)
    assert _env_for("L4", ("dynamic", 8)) == RuntimeEnv(
        schedule=("dynamic", 8), slipstream=("LOCAL_SYNC", 4),
        slipstream_set=True)
    assert _env_for("single") is None


@pytest.mark.parametrize("name", ["G", "Gx", "X1", "g0", "L-1", "G0 "])
def test_a_malformed_config_name_is_refused_by_name(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        _env_for(name)
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        run_benchmark("cg", name, cfg=CFG, size="test")


def test_speedup_table_normalizes_to_base(small_suite):
    tbl = speedup_table(small_suite)
    assert tbl["cg"]["single"] == pytest.approx(1.0)
    assert set(tbl["cg"]) == {"single", "double", "G0", "L1"}


def test_summary_gains_uses_best_of_both(small_suite):
    gains = summary_gains(small_suite)
    runs = small_suite["cg"]
    expect = (min(runs["single"].cycles, runs["double"].cycles)
              / min(runs["G0"].cycles, runs["L1"].cycles))
    assert gains["cg"] == pytest.approx(expect)


def test_breakdown_table_base_sums_to_one(small_suite):
    tbl = breakdown_table(small_suite)
    row = tbl["cg"]["single"]
    assert sum(row.values()) == pytest.approx(1.0, rel=1e-6)
    assert set(BREAKDOWN_CATEGORIES) <= set(row)


def test_breakdown_table_double_scaled_per_thread(small_suite):
    # Double mode has 2x the R-threads; per-bar normalization keeps its
    # stacked total comparable (total = relative time, not 2x).
    row = tbl_total = sum(breakdown_table(small_suite)["cg"]["double"]
                          .values())
    assert 0.2 < tbl_total < 5.0


def test_classification_table_structure(small_suite):
    tbl = classification_table(small_suite)
    assert set(tbl["cg"]) == {"G0", "L1"}
    brk = tbl["cg"]["G0"]["read"]
    assert set(brk) == {"A-Timely", "A-Late", "A-Only",
                        "R-Timely", "R-Late", "R-Only"}


def test_renderers_produce_tables(small_suite):
    s = render_speedups(small_suite, title="T")
    assert s.startswith("T\n")
    assert "CG" in s
    b = render_breakdowns(small_suite)
    assert "busy" in b and "jobwait" in b
    c = render_classification(small_suite)
    assert "A-Timely" in c


def test_render_table_alignment():
    out = render_table(["a", "bbb"], [["x", 1], ["yyyy", 22]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert len(set(len(l) for l in lines[1:])) <= 2  # columns aligned


def test_dynamic_chunk_policy():
    # CG: half the static block (n / (2 * n_cmps)).
    assert dynamic_chunk("cg", CFG, "test") == \
        max(1, 96 // (2 * CFG.n_cmps))
    # Others at test size: compiler default.
    assert dynamic_chunk("bt", CFG, "test") is None
    assert dynamic_chunk("mg", CFG, "bench") == 3


def test_dynamic_suite_excludes_lu():
    suite = run_dynamic_suite(cfg=CFG, size="test", benchmarks=("cg",),
                              configs=("single",))
    assert "lu" not in suite
    assert "cg" in suite


def test_benchmark_inventory_lists_all():
    rows = benchmark_inventory()
    assert [r["benchmark"] for r in rows] == ["BT", "CG", "LU", "MG", "SP"]
    assert all(r["description"] for r in rows)
