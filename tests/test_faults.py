"""Fault-injection subsystem: FaultConfig/FaultPlan semantics, the
per-layer injection hooks, the watchdog, and channel fault invariants
under region-scoped slipstream settings."""

import pickle

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.faults import (CLASS_KINDS, FAULT_CLASSES, FAULT_KINDS,
                          FaultConfig, FaultPlan)
from repro.interp import VM
from repro.interp.events import MemRead, TimeSlice
from repro.obs.probe import NULL_PROBE
from repro.runtime import (DeadlockError, SimDeadlockError, run_program)
from repro.sim import Engine
from repro.sim.resources import Server
from repro.slipstream.channel import PairChannel

CFG4 = PAPER_MACHINE.with_(n_cmps=4)


# ------------------------------------------------------------- FaultConfig

def test_config_validates_classes_and_rate():
    with pytest.raises(ValueError):
        FaultConfig(1, classes=("bogus",))
    with pytest.raises(ValueError):
        FaultConfig(1, rate=0)
    cfg = FaultConfig(1, classes=("vm", "kill", "vm"))
    assert cfg.classes == ("kill", "vm")     # canonical: sorted, deduped


def test_config_is_hashable_and_picklable():
    cfg = FaultConfig(42, classes=("vm", "channel"))
    assert hash(cfg) == hash(FaultConfig(42, classes=("channel", "vm")))
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert set(cfg.kinds) == set(CLASS_KINDS["channel"] +
                                 CLASS_KINDS["vm"])


# --------------------------------------------------------------- FaultPlan

def test_plan_schedule_is_seed_deterministic():
    a = FaultPlan(FaultConfig(7))
    b = FaultPlan(FaultConfig(7))
    assert a.schedule == b.schedule
    c = FaultPlan(FaultConfig(8))
    assert a.schedule != c.schedule


def test_seed_zero_schedule_is_pinned():
    """Seed -> schedule, as literal values: a change to the draw (kind
    order, window, payload) moves every recorded chaos matrix, and the
    default and reference runs CI compares would move together."""
    assert FaultPlan(FaultConfig(0)).schedule == {
        "a_corrupt": {798: (663, -2147483648), 871: (8376, 0.0)},
        "a_vmfault": {839: True, 631: True},
        "a_kill": {1992: True, 1506: True},
        "token_loss": {19: True, 7: True},
        "mailbox_stale": {16: 2, 4: 1},
        "net_jitter": {3145: 341.0, 438: 153.0}}


def test_plan_draws_rate_entries_per_armed_kind():
    plan = FaultPlan(FaultConfig(3, rate=4))
    for kind in FAULT_KINDS:
        assert len(plan.schedule[kind]) == 4
    vm_only = FaultPlan(FaultConfig(3, classes=("vm",)))
    assert set(vm_only.schedule) == set(CLASS_KINDS["vm"])


def test_fire_counts_opportunities():
    plan = FaultPlan(FaultConfig(11, classes=("kill",), rate=2))
    plan.bind(Engine(), NULL_PROBE)
    idxs = sorted(plan.schedule["a_kill"])
    hits = [i for i in range(max(idxs) + 10)
            if plan.fire("a_kill", "t") is not None]
    assert hits == idxs
    assert [f["index"] for f in plan.fired] == idxs
    assert plan.report()["scheduled"]["a_kill"] == idxs


# ----------------------------------------------------------- VM corruption

def test_vm_corrupt_overwrites_a_numeric_slot():
    img = compile_source("""
double out[4];
void main() {
    int i;
    double s;
    s = 1.5;
    for (i = 0; i < 4; i = i + 1) out[i] = s + i;
}
""")
    vm = VM(img, img.main_index)
    ev = vm.run()                      # run to the first externally
    while isinstance(ev, TimeSlice):   # serviced event: frames are live
        ev = vm.run()
    assert isinstance(ev, MemRead) or ev is not None
    desc = vm.corrupt((5, 999.0))
    assert desc is not None and "999.0" in desc
    frame = vm.frames[-1]
    slots = list(frame.stack) + list(frame.locals)
    assert any(v == 999.0 for v in slots
               if isinstance(v, (int, float)))


def test_vm_corrupt_without_frames_is_a_noop():
    img = compile_source("void main() { }")
    vm = VM(img, img.main_index)
    ev = vm.run()
    while isinstance(ev, TimeSlice):
        ev = vm.run()                   # drain to Done: frames emptied
    assert vm.corrupt((0, 1.0)) is None


# --------------------------------------------------------- channel faults

def _armed_channel(schedule):
    eng = Engine()
    ch = PairChannel(eng, node=0)
    plan = FaultPlan(FaultConfig(1, classes=("channel",)))
    plan.bind(eng, NULL_PROBE)
    plan.schedule.update(schedule)      # pin exact opportunity indices
    ch.faults = plan
    return ch, plan


def test_token_loss_swallows_the_release():
    ch, plan = _armed_channel({"token_loss": {0: True}})
    ch.insert_token()                   # injected: swallowed
    assert ch.tokens.count == 0
    ch.insert_token()                   # next one goes through
    assert ch.tokens.count == 1
    assert [f["kind"] for f in plan.fired] == ["token_loss"]


def test_mailbox_stale_corrupts_the_sequence_tag():
    ch, _ = _armed_channel({"mailbox_stale": {0: 2}})
    ch.publish("chunk", site=3, seq=0, payload=17)
    kind, site, seq, payload = ch.mailbox[0]
    assert (kind, site, payload) == ("chunk", 3, 17)
    assert seq == 2                     # 0 + injected delta


def test_mark_fault_records_site_and_reset_clears_it():
    ch = PairChannel(Engine(), node=0)
    ch.mark_fault("mailbox mismatch", site=5)
    assert ch.a_faulted and ch.a_fault_site == 5
    assert ch.divergence_detected() == "mailbox mismatch"
    ch.reset_after_recovery()
    assert not ch.a_faulted
    assert ch.a_fault_site is None and ch.a_fault_reason is None
    assert ch.recoveries == 1


# ----------------------------------------------------------- network layer

def test_server_jitter_stretches_serve_duration():
    eng = Engine()
    srv = Server(eng, "ni", units=1)
    plan = FaultPlan(FaultConfig(1, classes=("net",)))
    plan.bind(eng, NULL_PROBE)
    plan.schedule["net_jitter"] = {0: 100.0}
    srv.faults = plan

    done = []

    def client():
        yield from srv.serve(10.0)
        done.append(eng.now)

    eng.process(client(), name="client")
    eng.run()
    assert done == [110.0]


# -------------------------------------------------------------- watchdog

def test_watchdog_raises_structured_deadlock_error():
    img = compile_source("""
double a[4096];
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 4096; i = i + 1) a[i] = i * 2.0;
}
""")
    with pytest.raises(SimDeadlockError) as exc:
        run_program(img, cfg=CFG4, mode="slipstream", max_cycles=200)
    e = exc.value
    assert e.kind == "watchdog"
    assert e.cycle >= 200
    assert e.blocked, "blocked-process table must not be empty"
    assert all(len(row) == 4 for row in e.blocked)
    assert "\n" not in e.summary
    assert "watchdog expired" in e.summary
    assert "blocked" in str(e)


def test_deadlock_error_alias_and_runtimeerror_compat():
    assert DeadlockError is SimDeadlockError
    assert issubclass(SimDeadlockError, RuntimeError)


# --------------------------------- faults under region-scoped slipstream

NESTED_SRC = """
#pragma omp slipstream(GLOBAL_SYNC, 0)
double a[256];
double b[256];
int i;
void main() {
    int it;
    for (it = 0; it < 20; it = it + 1) {
        #pragma omp slipstream(LOCAL_SYNC, 2)
        #pragma omp parallel for
        for (i = 0; i < 256; i = i + 1) a[i] = a[i] + 1.0;
        #pragma omp parallel for
        for (i = 0; i < 256; i = i + 1) b[i] = a[i] * 2.0;
    }
}
"""


def test_fault_invariants_under_region_scoped_slipstream():
    """Injected A-stream faults must recover cleanly even when regions
    override the slipstream policy: every channel ends re-aligned
    (fault flags cleared) and the output is exact."""
    img = compile_source(NESTED_SRC)
    r = run_program(img, cfg=CFG4, mode="slipstream",
                    faults=FaultConfig(5, classes=("vm", "kill"), rate=3))
    assert np.array_equal(r.store.array("a"), np.full(256, 20.0))
    assert np.array_equal(r.store.array("b"), np.full(256, 40.0))
    assert r.faults is not None and r.faults["fired"]
    assert len(r.recoveries) >= 1
    # every recovery names its shell, reason, and (optional) site
    for who, reason, site in r.recoveries:
        assert who and reason
        assert site is None or isinstance(site, int)


def test_disarmed_runs_report_no_faults():
    img = compile_source(NESTED_SRC)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert r.faults is None


def test_same_seed_reproduces_the_campaign():
    img = compile_source(NESTED_SRC)
    kw = dict(cfg=CFG4, mode="slipstream",
              faults=FaultConfig(9, rate=2))
    r1 = run_program(img, **kw)
    r2 = run_program(img, **kw)
    assert r1.faults == r2.faults
    assert r1.recoveries == r2.recoveries
    assert r1.cycles == r2.cycles
