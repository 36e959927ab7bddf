"""Tests for the parallel experiment execution layer.

The contract under test: a batch of RunSpecs produces bit-identical
results -- cycles and stat breakdowns -- whether executed serially,
serially twice, or fanned out over a process pool of any width, with
results merged back in submission order.
"""

import os
import pickle

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import (ExecutionPipeline, PoolTransport, RunSpec,
                           dynamic_specs, execute_spec, run_static_suite,
                           static_specs)

CFG = PAPER_MACHINE.with_(n_cmps=4)

#: Small cross-mode matrix: cheap enough to simulate repeatedly, wide
#: enough to cover single/slipstream and both sync policies.
SMOKE = [RunSpec.make(b, c, size="test", cfg=CFG)
         for b in ("bt", "cg") for c in ("single", "G0")]


def _signature(run):
    """Everything determinism promises to hold fixed, by value."""
    return (run.bench, run.config, run.cycles,
            sorted(run.result.r_breakdown.items()),
            sorted((k, sorted(v.items()))
                   for k, v in run.result.breakdowns.items()))


# ---------------------------------------------------------------- RunSpec

def test_runspec_is_hashable_and_picklable():
    spec = RunSpec.make("cg", "G0", size="test", cfg=CFG,
                        params={"n": 24}, schedule=("dynamic", 3))
    assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_runspec_key_is_order_canonical():
    a = RunSpec.make("cg", "G0", size="test", params={"n": 9, "m": 2})
    b = RunSpec.make("cg", "G0", size="test", params={"m": 2, "n": 9})
    assert a.key == b.key


def test_execute_spec_matches_run_benchmark():
    from repro.harness import run_benchmark
    spec = RunSpec.make("cg", "G0", size="test", cfg=CFG)
    assert (_signature(execute_spec(spec))
            == _signature(run_benchmark("cg", "G0", cfg=CFG, size="test")))


def test_execute_spec_records_stage_timings():
    run = execute_spec(RunSpec.make("cg", "single", size="test", cfg=CFG))
    assert set(run.timing) == {"compile_s", "sim_s", "verify_s", "total_s"}
    assert run.timing["total_s"] >= run.timing["sim_s"] > 0


# --------------------------------------------------- transports/determinism

def test_serial_context_is_deterministic_across_repeats():
    first = [_signature(r) for r in ExecutionPipeline().run(SMOKE)]
    second = [_signature(r) for r in ExecutionPipeline().run(SMOKE)]
    assert first == second


@pytest.mark.parametrize("jobs", [2, 4])
def test_pool_results_bit_identical_to_serial(jobs):
    serial = [_signature(r) for r in ExecutionPipeline().run(SMOKE)]
    pool = ExecutionPipeline(transport=PoolTransport(jobs=jobs))
    pooled = [_signature(r) for r in pool.run(SMOKE)]
    assert pooled == serial


def test_pool_merges_in_submission_order_not_completion_order():
    # bt/single is the longest job in the batch by far; submitted first,
    # it finishes last under a 2-wide pool, so any completion-order
    # merge would visibly permute the output.
    runs = ExecutionPipeline(transport=PoolTransport(jobs=2)).run(SMOKE)
    assert [(r.bench, r.config) for r in runs] \
        == [(s.bench, s.config) for s in SMOKE]


def test_map_keys_results_by_spec():
    out = ExecutionPipeline().map(SMOKE[:2])
    assert set(out) == {s.key for s in SMOKE[:2]}
    for s in SMOKE[:2]:
        assert out[s.key].bench == s.bench


def test_suite_via_pool_matches_serial_suite():
    serial = run_static_suite(cfg=CFG, size="test",
                              benchmarks=("bt", "cg"),
                              configs=("single", "G0"))
    pooled = run_static_suite(
        cfg=CFG, size="test", benchmarks=("bt", "cg"),
        configs=("single", "G0"),
        context=ExecutionPipeline(transport=PoolTransport(jobs=2)))
    assert {(b, c): run.cycles
            for b, row in serial.items() for c, run in row.items()} \
        == {(b, c): run.cycles
            for b, row in pooled.items() for c, run in row.items()}


# ----------------------------------------------------------------- helpers

def test_pool_rejects_bad_jobs():
    with pytest.raises(ValueError):
        PoolTransport(jobs=0)


def test_spec_builders_cover_suite_order():
    specs = static_specs(CFG, "test", ("bt", "cg"), ("single", "G0"))
    assert [(s.bench, s.config) for s in specs] \
        == [("bt", "single"), ("bt", "G0"),
            ("cg", "single"), ("cg", "G0")]
    dyn = dynamic_specs(CFG, "test", ("cg",), ("single", "G0"))
    assert all(s.schedule[0] == "dynamic" for s in dyn)


# ------------------------------------------------------------ wall-clock

@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_TESTS") != "1"
    or (os.cpu_count() or 1) < 4,
    reason="perf acceptance test: needs >= 4 cores and REPRO_PERF_TESTS=1")
def test_pool_speedup_on_full_static_suite():
    """Acceptance: the full static suite (5 benchmarks x 4 configs)
    under PoolTransport(jobs=4) is >= 2.5x faster than serial on a
    4-core host, with bit-identical cycle counts.  Opt-in (wall-clock
    measurements don't belong in the default unit run)."""
    import time
    specs = static_specs(CFG, "bench",
                         ("bt", "cg", "lu", "mg", "sp"),
                         ("single", "double", "G0", "L1"))
    t0 = time.perf_counter()
    serial = ExecutionPipeline().run(specs)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = ExecutionPipeline(transport=PoolTransport(jobs=4)).run(specs)
    t_pool = time.perf_counter() - t0
    assert [r.cycles for r in pooled] == [r.cycles for r in serial]
    assert t_serial / t_pool >= 2.5, \
        f"speedup {t_serial / t_pool:.2f}x < 2.5x " \
        f"(serial {t_serial:.1f}s, pool {t_pool:.1f}s)"
