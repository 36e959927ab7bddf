"""Slipstream core tests: token synchronization, construct policy,
dynamic-scheduling decision forwarding, divergence and recovery."""

import numpy as np
import pytest

from repro import compile_source, run_program
from repro.config import PAPER_MACHINE
from repro.runtime import RuntimeEnv
from repro.runtime.machine import Machine
from repro.sim import Engine
from repro.slipstream import PairChannel, SlipControl

CFG4 = PAPER_MACHINE.with_(n_cmps=4)


# --------------------------------------------------------------- PairChannel

def test_token_insert_consume_roundtrip():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.begin_region("GLOBAL_SYNC", 0)
    got = []

    def a_stream():
        yield from ch.consume_token()
        got.append(eng.now)

    def r_stream():
        yield 100
        ch.insert_token()

    eng.process(a_stream())
    eng.process(r_stream())
    eng.run()
    assert got == [100.0]
    assert ch.tokens_consumed == 1


def test_initial_tokens_let_a_run_ahead():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.begin_region("LOCAL_SYNC", 2)
    passed = []

    def a_stream():
        for k in range(3):
            yield from ch.consume_token()
            passed.append((k, eng.now))

    eng.process(a_stream())

    def r_stream():
        yield 500
        ch.insert_token()

    eng.process(r_stream())
    eng.run()
    # Two barriers skipped immediately on the initial allocation; the
    # third waits for the R-stream's insertion.
    assert passed[0][1] == pytest.approx(0.0)
    assert passed[1][1] == pytest.approx(0.0)
    assert passed[2][1] == pytest.approx(500.0)


def test_begin_region_reestablishes_token_count():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.begin_region("LOCAL_SYNC", 3)
    assert ch.tokens.count == 3
    ch.begin_region("GLOBAL_SYNC", 0)
    assert ch.tokens.count == 0
    ch.begin_region("LOCAL_SYNC", 1)
    assert ch.tokens.count == 1


def test_divergence_detection_site_mismatch():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.r_reached_barrier(11)
    ch.a_reached_barrier(11)
    assert ch.divergence_detected() is None
    ch.r_reached_barrier(12)
    ch.a_reached_barrier(99)
    reason = ch.divergence_detected()
    assert reason is not None and "mismatch" in reason


def test_divergence_detection_tolerates_lag():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.r_reached_barrier(1)
    ch.r_reached_barrier(2)
    # A-stream behind: no divergence as long as the prefix matches.
    ch.a_reached_barrier(1)
    assert ch.divergence_detected() is None


def test_token_count_heuristic():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.begin_region("LOCAL_SYNC", 1)
    assert not ch.a_predicted_visited()   # count == initial
    ch.tokens.count = 0                   # A consumed one
    assert ch.a_predicted_visited()


def test_mailbox_tag_mismatch_flags_divergence():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.publish("sched", site=5, seq=0, payload=(0, 8))

    def a_stream():
        ok, payload = yield from ch.take("sched", site=6, seq=0)
        assert ok is False

    eng.run_process(a_stream())


def test_reset_after_recovery_aligns_histories():
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.r_reached_barrier(1)
    ch.r_reached_barrier(2)
    ch.a_reached_barrier(1)
    ch.a_reached_barrier(7)
    ch.mark_fault("test")
    ch.reset_after_recovery()
    assert ch.a_sites == ch.r_sites
    assert ch.divergence_detected() is None
    assert ch.recoveries == 1


# --------------------------------------------------------------- SlipControl

def _env(setting=None):
    if setting is None:
        return RuntimeEnv()
    return RuntimeEnv(slipstream=setting, slipstream_set=True)


def test_control_default_is_global_sync():
    c = SlipControl(_env(), enabled=True)
    assert c.effective == ("GLOBAL_SYNC", 0)


def test_control_env_used_when_no_directive():
    c = SlipControl(_env(("LOCAL_SYNC", 2)), enabled=True)
    assert c.effective == ("LOCAL_SYNC", 2)


def test_control_global_directive_overrides_env():
    c = SlipControl(_env(("LOCAL_SYNC", 2)), enabled=True)
    c.directive("GLOBAL_SYNC", 1, cond=True, region_scoped=False)
    assert c.effective == ("GLOBAL_SYNC", 1)


def test_control_region_directive_restored_at_exit():
    """'Using the directive on a parallel region takes precedence but
    does not override the global setting' (§3.3)."""
    c = SlipControl(_env(), enabled=True)
    c.directive("LOCAL_SYNC", 3, cond=True, region_scoped=False)   # global
    c.directive("GLOBAL_SYNC", 0, cond=True, region_scoped=True)   # region
    assert c.region_enter() == ("GLOBAL_SYNC", 0)
    c.region_exit()
    assert c.region_enter() == ("LOCAL_SYNC", 3)   # global restored


def test_control_runtime_sync_resolves_env():
    c = SlipControl(_env(("LOCAL_SYNC", 5)), enabled=True)
    c.directive("RUNTIME_SYNC", 0, cond=True, region_scoped=False)
    assert c.effective == ("LOCAL_SYNC", 5)


def test_control_if_false_ignores_directive():
    c = SlipControl(_env(), enabled=True)
    c.directive("LOCAL_SYNC", 2, cond=False, region_scoped=False)
    assert c.effective == ("GLOBAL_SYNC", 0)


def test_control_none_deactivates():
    c = SlipControl(_env(), enabled=True)
    c.directive("NONE", 0, cond=True, region_scoped=False)
    assert not c.active


# ----------------------------------------------------------- end-to-end slip

def test_directive_in_source_controls_region():
    src = """
double a[256];
int i;
void main() {
    #pragma omp slipstream(LOCAL_SYNC, 2)
    #pragma omp parallel for
    for (i = 0; i < 256; i = i + 1) a[i] = i;
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert np.array_equal(r.store.array("a"), np.arange(256.0))
    assert sum(s["tokens_consumed"] for s in r.channel_stats.values()) > 0


def test_global_directive_from_file_scope():
    src = """
#pragma omp slipstream(LOCAL_SYNC, 1)
double a[128];
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 128; i = i + 1) a[i] = i;
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert np.array_equal(r.store.array("a"), np.arange(128.0))


def test_dynamic_scheduling_forwards_decisions():
    """§3.2.2: the A-stream waits for its R-stream's published chunk."""
    src = """
double a[512];
int i;
void main() {
    #pragma omp parallel for schedule(dynamic, 32)
    for (i = 0; i < 512; i = i + 1) a[i] = i * 2.0;
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert np.array_equal(r.store.array("a"), np.arange(512.0) * 2)
    forwarded = sum(s["decisions_forwarded"]
                    for s in r.channel_stats.values())
    # 16 chunks + 4 loop-end decisions, forwarded once per R-stream.
    assert forwarded >= 20


def test_injected_divergence_triggers_recovery_and_correct_result():
    src = """
double a[256];
double sig;
int i;
void main() {
    int it;
    for (it = 0; it < 2; it = it + 1) {
        #pragma omp parallel
        {
            if (astream_probe() == 1) {
                #pragma omp barrier
            }
            #pragma omp for
            for (i = 0; i < 256; i = i + 1) a[i] = a[i] + 1.0;
        }
    }
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert len(r.recoveries) > 0                      # divergence repaired
    assert np.all(r.store.array("a") == 2.0)          # and results correct


def test_recovery_restores_a_stream_progress():
    """After recovery the A-stream keeps working (tokens consumed after
    the recovery point)."""
    src = """
double a[512];
int i;
void main() {
    int it;
    #pragma omp parallel
    {
        if (astream_probe() == 1) {
            #pragma omp barrier
        }
        #pragma omp for
        for (i = 0; i < 512; i = i + 1) a[i] = 1.0;
        #pragma omp for
        for (i = 0; i < 512; i = i + 1) a[i] = a[i] + 1.0;
        #pragma omp for
        for (i = 0; i < 512; i = i + 1) a[i] = a[i] * 2.0;
    }
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert len(r.recoveries) >= 1
    assert np.all(r.store.array("a") == 4.0)
    recs = sum(s["recoveries"] for s in r.channel_stats.values())
    toks = sum(s["tokens_consumed"] for s in r.channel_stats.values())
    assert toks > 0 and recs >= 1


def test_a_faults_are_recovered():
    """An A-stream VM fault (wild index from a stale shared value) parks
    the A-stream until its R-stream repairs it at the next barrier."""
    src = """
double a[64];
double idx;
int i;
void main() {
    idx = 10.0;
    #pragma omp parallel
    {
        int k;
        if (astream_probe() == 1) k = 1000000000;
        else k = 5;
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) a[i] = a[k % 64] + i;
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) a[i] = a[i] + 1.0;
    }
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    # Either the wild index faulted (recovery) or was benign; results
    # must be correct regardless.
    assert r.store.array("a").shape == (64,)


SELFINV_SRC = """
double a[2048];
double b[2048];
int i;
void main() {
    int it;
    #pragma omp parallel for
    for (i = 0; i < 2048; i = i + 1) a[i] = i;
    for (it = 0; it < 2; it = it + 1) {
        #pragma omp parallel for
        for (i = 1; i < 2047; i = i + 1) b[i] = a[i-1] + a[i+1];
        #pragma omp parallel for
        for (i = 1; i < 2047; i = i + 1) a[i] = b[i] * 0.5;
    }
}
"""


def test_selfinv_option_runs_and_stays_correct():
    img = compile_source(SELFINV_SRC)
    base = run_program(img, cfg=CFG4, mode="slipstream", selfinv=False)
    si = run_program(img, cfg=CFG4, mode="slipstream", selfinv=True)
    assert np.allclose(base.store.array("a"), si.store.array("a"))


def test_selfinv_walk_drops_the_same_lines_at_the_same_instants():
    """``self_invalidate_stale`` walks ``list(nm.l2.lines())`` at every
    barrier of every node and issues its invalidations and directory
    drops in that order.  The walk now skips sets nothing was filled
    into; the literals were recorded while it still visited all 2 048
    (4 CMPs, one-token global sync): cycles, total drops, and every
    ``selfinv`` trace instant as (cycle, track, lines dropped)."""
    env = RuntimeEnv(slipstream=("GLOBAL_SYNC", 1), slipstream_set=True)
    r = run_program(compile_source(SELFINV_SRC), cfg=CFG4,
                    mode="slipstream", env=env, selfinv=True, obs="trace")
    assert r.cycles == 108278.0
    assert r.mem_stats.get("selfinv_drops") == 112
    assert [(e["ts"], e["tid"], e["args"]["dropped"])
            for e in r.trace if e.get("name") == "selfinv"] == [
        (7220.0, 3, 5), (17343.0, 6, 3), (17596.0, 4, 3), (17848.0, 5, 3),
        (30011.0, 3, 5), (33844.0, 5, 1), (33873.0, 4, 1), (35370.0, 6, 1),
        (40886.0, 6, 4), (41378.0, 4, 7), (41570.0, 5, 6), (41786.0, 3, 3),
        (50813.0, 3, 5), (54142.0, 4, 1), (54665.0, 5, 1), (56256.0, 6, 1),
        (61763.0, 6, 4), (61979.0, 4, 3), (62171.0, 3, 2), (62351.0, 5, 4),
        (74097.0, 3, 5), (78123.0, 4, 1), (78306.0, 5, 1), (79813.0, 6, 1),
        (85329.0, 6, 4), (85585.0, 3, 4), (85857.0, 5, 6), (85953.0, 4, 7),
        (94612.0, 3, 5), (98759.0, 4, 1), (100711.0, 6, 1), (100875.0, 5, 1),
        (106374.0, 5, 4), (106651.0, 4, 3), (106869.0, 6, 4), (107109.0, 3, 1)]


def test_a_exec_critical_ablation_correct():
    src = """
double counter;
int i;
void main() {
    counter = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 64; i = i + 1) {
        #pragma omp critical
        { counter = counter + 1.0; }
    }
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream", a_exec_critical=True)
    # A-streams execute the body but their stores are suppressed, so the
    # count stays exact.
    assert r.store.value("counter") == 64.0


def test_sync_after_reduction_option():
    """§3.1 option: the A-stream synchronizes with its R-stream after a
    reduction (so outcomes that steer control flow are not stale)."""
    src = """
double total;
double a[256];
int i;
void main() {
    int it;
    #pragma omp parallel private(it)
    {
        for (it = 0; it < 3; it = it + 1) {
            #pragma omp for reduction(+: total)
            for (i = 0; i < 256; i = i + 1) total = total + 1.0;
        }
    }
}
"""
    img = compile_source(src)
    base = run_program(img, cfg=CFG4, mode="slipstream",
                       sync_after_reduction=False)
    synced = run_program(img, cfg=CFG4, mode="slipstream",
                         sync_after_reduction=True)
    assert base.store.value("total") == 3 * 256.0
    assert synced.store.value("total") == 3 * 256.0
    # The synchronized run really exchanged reduce tokens R->A.
    fwd = sum(s["decisions_forwarded"] for s in synced.channel_stats.values())
    fwd0 = sum(s["decisions_forwarded"] for s in base.channel_stats.values())
    assert fwd > fwd0
