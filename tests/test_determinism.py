"""Determinism guard for the simulator's hot paths.

The simulated cycle counts below were recorded from the seed simulator
(before the cache tag index, engine fast path and interpreter dispatch
table landed) and pin down the acceptance criterion that performance
work must leave simulated time bit-identical: any optimization that
perturbs event ordering, LRU victim choice, or per-instruction cycle
accounting shows up here as an exact-equality failure, not a tolerance
drift.

The matrix is the full static study (5 benchmarks x 4 configurations)
plus the dynamic study (4 benchmarks x 2 configurations) at test size
on a 4-CMP machine -- every execution mode, both A-R synchronization
policies, and both scheduling styles.
"""

import json
from pathlib import Path

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import run_dynamic_suite, run_static_suite

CFG = PAPER_MACHINE.with_(n_cmps=4)

#: {(suite, bench, config): simulated cycles} recorded from the seed.
GOLDEN_CYCLES = {
    ("static", "bt", "single"): 306917.0,
    ("static", "bt", "double"): 195050.0,
    ("static", "bt", "G0"): 261238.0,
    ("static", "bt", "L1"): 305153.0,
    ("static", "cg", "single"): 81587.0,
    ("static", "cg", "double"): 78462.0,
    ("static", "cg", "G0"): 73175.0,
    ("static", "cg", "L1"): 70587.0,
    ("static", "lu", "single"): 78041.0,
    ("static", "lu", "double"): 88708.0,
    ("static", "lu", "G0"): 67153.0,
    ("static", "lu", "L1"): 71687.0,
    ("static", "mg", "single"): 59876.0,
    ("static", "mg", "double"): 50914.0,
    ("static", "mg", "G0"): 54221.0,
    ("static", "mg", "L1"): 51907.0,
    ("static", "sp", "single"): 153978.0,
    ("static", "sp", "double"): 98806.0,
    ("static", "sp", "G0"): 138917.0,
    ("static", "sp", "L1"): 154287.0,
    ("dynamic", "bt", "single"): 446706.0,
    ("dynamic", "bt", "G0"): 359809.0,
    ("dynamic", "cg", "single"): 209913.0,
    ("dynamic", "cg", "G0"): 197033.0,
    ("dynamic", "mg", "single"): 241899.0,
    ("dynamic", "mg", "G0"): 232333.0,
    ("dynamic", "sp", "single"): 251695.0,
    ("dynamic", "sp", "G0"): 204586.0,
}


def test_bench_hotpath_cycles_are_the_golden_static_cycles():
    """``BENCH_hotpath.json`` records the test-size sweep it timed; its
    cycle map is the static half of the table above, not a third copy
    that may drift."""
    cycles = json.loads((Path(__file__).resolve().parents[1]
                         / "BENCH_hotpath.json").read_text())["cycles"]
    assert len(cycles) == 20
    assert {("static",) + tuple(k.split("/")): v
            for k, v in cycles.items()} == {
        k: v for k, v in GOLDEN_CYCLES.items() if k[0] == "static"}


@pytest.fixture(scope="module")
def suites():
    return (run_static_suite(cfg=CFG, size="test"),
            run_dynamic_suite(cfg=CFG, size="test"))


def test_static_suite_cycles_match_seed_exactly(suites):
    static, _ = suites
    got = {("static", b, c): run.cycles
           for b, row in static.items() for c, run in row.items()}
    want = {k: v for k, v in GOLDEN_CYCLES.items() if k[0] == "static"}
    assert got == want


def test_dynamic_suite_cycles_match_seed_exactly(suites):
    _, dynamic = suites
    got = {("dynamic", b, c): run.cycles
           for b, row in dynamic.items() for c, run in row.items()}
    want = {k: v for k, v in GOLDEN_CYCLES.items() if k[0] == "dynamic"}
    assert got == want


def test_repeated_run_is_bit_identical(suites):
    """Same spec, same process, fresh machine: identical cycles *and*
    identical per-shell time breakdowns, not just the total."""
    from repro.harness import run_benchmark
    a = run_benchmark("cg", "G0", cfg=CFG, size="test")
    b = run_benchmark("cg", "G0", cfg=CFG, size="test")
    assert a.cycles == b.cycles
    assert a.result.breakdowns == b.result.breakdowns
    assert a.result.r_breakdown == b.result.r_breakdown
