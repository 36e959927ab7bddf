"""The exhibit plan of ``benchmarks/exhibits.py``, built but not run.

Every exhibit's specs go into one ``SweepPlan``, so rows two exhibits
share must be written in one canonical form and shard to one unit key.
These tests pin which rows do; no simulation runs."""

import importlib.util
from pathlib import Path

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import SweepPlan, unit_key

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "exhibits.py"


@pytest.fixture(scope="module")
def exhibits():
    spec = importlib.util.spec_from_file_location("exhibits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: specs for name, (specs, _) in
            module.build("bench", PAPER_MACHINE).items()}


def shared(exhibits, a, b):
    """(bench, config) of ``a``'s rows that are units of ``b`` too."""
    keys = {unit_key(s) for s in exhibits[b]}
    return {(s.bench, s.config) for s in exhibits[a] if unit_key(s) in keys}


def test_all_fourteen_tables_and_one_plan(exhibits):
    assert len(exhibits) == 14
    plan = SweepPlan([s for specs in exhibits.values() for s in specs])
    # Figures 3 and 5 list the runs of Figures 2 and 4 again (28), and
    # 13 rows of the ablations are runs of another exhibit.
    assert (len(plan), len(plan.distinct())) == (104, 63)
    assert [name for name, specs in exhibits.items() if not specs] == [
        "fig1_token_sync", "table1_parameters", "ablation_constructs"]


def test_rows_shared_between_exhibits_run_once(exhibits):
    assert shared(exhibits, "ablation_latency", "fig2_static") == {
        ("sp", "single"), ("sp", "G0")}                  # the 1.0x row
    assert shared(exhibits, "ablation_chunksize", "fig4_dynamic") == {
        ("cg", "single"), ("cg", "G0")}                  # chunk 32
    # static is schedule=None, as in Figure 2, and CG's dynamic chunk
    # is Figure 4's.
    assert shared(exhibits, "ablation_ep_affinity", "fig2_static") == {
        ("cg", "single")}
    assert shared(exhibits, "ablation_ep_affinity", "fig4_dynamic") == {
        ("cg", "single")}
    assert shared(exhibits, "ablation_tokens", "fig2_static") == {
        (b, c) for b in ("cg", "sp") for c in ("single", "G0", "L1")}
    assert shared(exhibits, "ablation_selfinv", "ablation_tokens") == {
        ("sp", "G1")}                                    # selfinv off
    assert shared(exhibits, "fig3_requests_static", "fig2_static") == {
        (s.bench, s.config) for s in exhibits["fig2_static"]}
    assert not shared(exhibits, "scaling", "fig2_static")
    assert not shared(exhibits, "table2_benchmarks", "fig2_static")
