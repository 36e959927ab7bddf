"""The tentpole invariants of the observability layer.

Simulated cycle counts (the golden table of ``test_determinism.py``)
must be bit-identical whether observability is off (NullSink), totals
only (AggregateSink, the default), fully traced (TraceSink), or
line-profiled (ProfileSink, whose breakdowns are the line profiles) --
probes record, they never touch the engine.  And specs carrying a sink selection must
survive the process-pool path with results identical to serial
execution.
"""

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.harness import (ExecutionPipeline, PoolTransport, RunSpec,
                           dynamic_specs, execute_spec, run_benchmark,
                           run_static_suite)
from repro.obs import merge_traces, validate_trace
from repro.runtime import run_program

CFG = PAPER_MACHINE.with_(n_cmps=4)

#: cg/G0 at test size on 4 CMPs -- captured from the pre-refactor
#: collectors; the AggregateSink must reproduce them exactly.
GOLDEN_CYCLES = 73175.0
GOLDEN_R_BREAKDOWN = {"barrier": 122710.0, "busy": 66115.0, "io": 200.0,
                      "jobwait": 10654.0, "lock": 49602.0,
                      "memory": 43419.0}
GOLDEN_CLASSES = {"A-rdex-late": 10, "A-rdex-only": 1, "A-rdex-timely": 62,
                  "A-read-late": 10, "A-read-timely": 2, "R-rdex-late": 3,
                  "R-rdex-only": 23, "R-rdex-timely": 10, "R-read-late": 36,
                  "R-read-only": 15}

#: sha256 of every track's ``sorted(profile[track].items())``, tracks in
#: sorted order -- captured from the pre-refactor profiler (two settle
#: clocks a track); one cycle moved to another source line changes it.
PROFILE_DIGESTS = {
    "cg/G0/static":
        "00afeb7c844efc2bd3d0a7db09d2ab877d4748c7ec099f0efd96d6ca317a95e1",
    "mg/G0/dynamic":
        "eb625290c05ea5bd2d8ff690775456a3dceb8f428a2b73fcb80129a2dbce0800",
    "jacobi/slipstream":
        "95f811b5c9c294e7fcff921992822bfeed29228d327895ee85c4e57604b4fe3e",
}
JACOBI = Path(__file__).resolve().parents[1] / "examples" / "jacobi.c"


@pytest.fixture(scope="module")
def runs():
    return {obs: run_benchmark("cg", "G0", cfg=CFG, size="test", obs=obs)
            for obs in ("aggregate", "null", "trace", "profile")}


def test_cycles_identical_across_sinks(runs):
    for obs, run in runs.items():
        assert run.cycles == GOLDEN_CYCLES, obs


def test_aggregate_sink_reproduces_golden_figures(runs):
    assert runs["aggregate"].result.r_breakdown == GOLDEN_R_BREAKDOWN
    assert runs["aggregate"].result.classes.as_dict() == GOLDEN_CLASSES


def test_trace_sink_loses_no_aggregate_data(runs):
    agg, tr = runs["aggregate"].result, runs["trace"].result
    assert tr.r_breakdown == GOLDEN_R_BREAKDOWN
    assert tr.breakdowns == agg.breakdowns
    assert tr.classes.as_dict() == GOLDEN_CLASSES
    assert tr.rt_stats == agg.rt_stats


def test_null_sink_drops_everything(runs):
    r = runs["null"].result
    assert r.cycles == GOLDEN_CYCLES
    assert r.r_breakdown == {}
    assert r.classes.as_dict() == {}
    assert r.rt_stats == {}
    assert r.trace is None


def test_trace_is_valid_and_only_on_trace_sink(runs):
    assert runs["aggregate"].result.trace is None
    tr = runs["trace"].result.trace
    assert tr and validate_trace(tr) == []
    # One thread-name row per track, including all simulated processors.
    names = {e["args"]["name"] for e in tr
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"R0@n0c0", "A0@n0c1", "engine", "mem", "team"} <= names
    kinds = {e["name"] for e in tr if e["ph"] == "i"}
    assert any(k.startswith("coh.") for k in kinds)
    assert any(k.startswith("token.") for k in kinds)
    assert any(k.startswith("classify.") for k in kinds)


def test_profile_sink_loses_no_aggregate_data(runs):
    agg, pr = runs["aggregate"].result, runs["profile"].result
    assert pr.r_breakdown == GOLDEN_R_BREAKDOWN
    assert pr.breakdowns == agg.breakdowns
    assert pr.classes.as_dict() == GOLDEN_CLASSES
    assert pr.rt_stats == agg.rt_stats
    assert pr.profile            # and it actually profiled


def test_profile_totals_match_breakdowns(runs):
    """Cycle-exactness: per shell track, the profile's per-category
    totals equal the breakdown's -- every simulated cycle of every
    stream is attributed to some source line, none twice."""
    r = runs["profile"].result
    assert r.profile is not None
    for track, bd in r.breakdowns.items():
        per_track = r.profile.get(track, {})
        by_cat = {}
        for (_f, _l, cat, _lv), c in per_track.items():
            by_cat[cat] = by_cat.get(cat, 0.0) + c
        assert by_cat == {k: v for k, v in bd.items() if v}, track


def _profile_digest(profile):
    h = hashlib.sha256()
    for track in sorted(profile):
        h.update(repr((track, sorted(profile[track].items()))).encode())
    return h.hexdigest()


def test_profile_itself_is_pinned(runs):
    """Not just the sums: the per-line profile of cg G0 (static) and mg
    G0 (dynamic) at test size on 4 CMPs and of ``examples/jacobi.c``
    in slipstream mode hash to the recorded digests, and a profiled
    unit's aggregates are an ``"aggregate"`` run's."""
    mg = {obs: execute_spec(dynamic_specs(CFG, "test", ("mg",), ("G0",),
                                          obs=obs)[0]).result
          for obs in ("aggregate", "profile")}
    cg = {obs: runs[obs].result for obs in ("aggregate", "profile")}
    for name, pair in (("cg/G0/static", cg), ("mg/G0/dynamic", mg)):
        agg, pr = pair["aggregate"], pair["profile"]
        assert _profile_digest(pr.profile) == PROFILE_DIGESTS[name], name
        assert pr.cycles == agg.cycles, name
        assert pr.breakdowns == agg.breakdowns, name
        assert pr.rt_stats == agg.rt_stats, name
        assert pr.classes.as_dict() == agg.classes.as_dict(), name
    jacobi = run_program(compile_source(JACOBI.read_text()), cfg=CFG,
                         mode="slipstream", obs="profile")
    assert (_profile_digest(jacobi.profile)
            == PROFILE_DIGESTS["jacobi/slipstream"])


def test_pool_merge_matches_serial_with_profiling():
    kw = dict(cfg=CFG, size="test", benchmarks=("cg",),
              configs=("single", "G0"), obs="profile")
    serial = run_static_suite(context=ExecutionPipeline(), **kw)
    pooled = run_static_suite(
        context=ExecutionPipeline(transport=PoolTransport(jobs=2)), **kw)
    for cfg_name in ("single", "G0"):
        s, p = serial["cg"][cfg_name], pooled["cg"][cfg_name]
        assert s.cycles == p.cycles
        assert s.result.profile == p.result.profile
        assert s.result.profile


def test_runspec_with_sink_selection_pickles():
    spec = RunSpec.make("cg", "G0", cfg=CFG, size="test", obs="trace")
    clone = pickle.loads(pickle.dumps(spec))
    assert dict(clone.machine_kw)["obs"] == "trace"


def test_pool_merge_matches_serial_with_tracing():
    kw = dict(cfg=CFG, size="test", benchmarks=("cg",),
              configs=("single", "G0"), obs="trace")
    serial = run_static_suite(context=ExecutionPipeline(), **kw)
    pooled = run_static_suite(
        context=ExecutionPipeline(transport=PoolTransport(jobs=2)), **kw)

    def merged(suite):
        return merge_traces(
            (f"{b}:{c}", run.result.trace)
            for b, runs_ in suite.items() for c, run in runs_.items())

    for cfg_name in ("single", "G0"):
        assert (serial["cg"][cfg_name].cycles
                == pooled["cg"][cfg_name].cycles)
        assert (serial["cg"][cfg_name].result.r_breakdown
                == pooled["cg"][cfg_name].result.r_breakdown)
    a, b = merged(serial), merged(pooled)
    assert a == b
    assert validate_trace(a) == []
