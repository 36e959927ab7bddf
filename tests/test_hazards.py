"""Harness hazard injection and the crash-consistency hardening it
gates: seeded deterministic schedules, integrity framing, poison-unit
quarantine, graceful SIGTERM drain, lease reaping, and the one
stalled-claim rule at the one lease."""

import errno
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import hazards
from repro.harness.chaos import run_harness_chaos
from repro.harness.hazards import HazardConfig, HazardPlan
from repro.harness.integrity import (IntegrityError, atomic_pickle, frame,
                                     gc_tmp, load_verified, unframe)
from repro.harness.jobs import RunSpec, SweepPlan, unit_key
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import (LEASE_S, DirQueueTransport,
                                     PoolTransport, _Spool)
from repro.obs.telemetry import Telemetry, read_events

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs(configs=("single", "G0")):
    return [RunSpec.make("cg", c, size="test", cfg=CFG) for c in configs]


@pytest.fixture(scope="module")
def golden():
    """Hazard-free serial cycles for the two-config sweep."""
    runs = ExecutionPipeline().run(_specs())
    return {r.config: r.cycles for r in runs}


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test may leak an armed plan (or env campaign) into the next."""
    yield
    hazards.disarm()
    hazards.clear_env()


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for(predicate, timeout_s=60.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


# -- schedules: seeded, validated, opportunity-indexed -----------------------

def test_config_validation_and_canonicalization():
    with pytest.raises(ValueError):
        HazardConfig(0, classes=("nosuch",))
    with pytest.raises(ValueError):
        HazardConfig(0, rate=0)
    cfg = HazardConfig(0, classes=("lease", "corrupt", "corrupt"))
    assert cfg.classes == ("corrupt", "lease")
    # kinds come out in fixed schedule-draw order, classes only gate
    assert cfg.kinds == ("pickle_corrupt", "pickle_truncate",
                         "stale_claim", "clock_skew")


def test_schedule_is_a_pure_function_of_the_seed():
    a = HazardPlan(HazardConfig(7))
    b = HazardPlan(HazardConfig(7))
    assert a.schedule == b.schedule
    assert set(a.schedule) == set(HazardConfig(7).kinds)
    others = [HazardPlan(HazardConfig(s)).schedule for s in range(1, 6)]
    assert any(o != a.schedule for o in others)


def test_seed_zero_schedule_is_pinned():
    """Seed -> schedule, as literal values (see the twin in
    ``test_faults.py``: both plans draw through one algorithm)."""
    assert HazardPlan(HazardConfig(0)).schedule == {
        "pickle_corrupt": {12: (0.890243920837131, 11),
                           15: (0.25891675029296335, 131)},
        "pickle_truncate": {15: 0.8304991820173621, 6: 0.7553749681101427},
        "publish_enospc": {15: True, 5: True},
        "publish_eio": {6: True, 8: True},
        "stale_claim": {2: 229.00171227400955, 7: 193.9679955119476},
        "clock_skew": {26: 592.7377445888173, 9: 333.56127143046047},
        "kill_worker": {2: True, 0: True},
        "term_worker": {1: True, 0: True}}


def test_fire_by_opportunity_index():
    plan = HazardPlan(HazardConfig(3, classes=("disk",), rate=1))
    (idx,) = plan.schedule["publish_enospc"]
    hits = [i for i in range(40) if plan.fire("publish_enospc")]
    assert hits == [idx]
    # unknown/unarmed kinds never fire
    assert plan.fire("kill_worker") is None


def test_disarmed_sites_are_noops(tmp_path):
    hazards.disarm()
    assert hazards.current() is None
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    spool.publish("k", {"x": 1})
    assert spool.load_result("k") == {"x": 1}
    assert spool.try_claim("k")
    age = spool.claim_age("k")
    assert age is not None and age < 5.0                # no skew applied


# -- integrity framing -------------------------------------------------------

def test_frame_roundtrip_and_tamper_detection():
    payload = pickle.dumps({"cycles": 123})
    data = frame(payload)
    assert unframe(data) == payload
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x40
    with pytest.raises(IntegrityError):
        unframe(bytes(flipped))
    with pytest.raises(IntegrityError):
        unframe(data[: len(data) // 2])                 # truncated
    with pytest.raises(IntegrityError):
        unframe(b"XXXX" + data[4:])                     # wrong magic


def test_load_verified_quarantines_and_logs(tmp_path):
    path = tmp_path / "entry.run"
    atomic_pickle({"ok": True}, path)
    good = path.read_bytes()
    assert load_verified(path) == {"ok": True}
    rotten = {
        "digest": good[:-3] + bytes([good[-3] ^ 0xFF]) + good[-2:],
        "magic": bytes([good[0] ^ 0x01]) + good[1:],    # one flipped bit
        "unframed": pickle.dumps({"ok": True}),
    }
    tel = Telemetry(root=tmp_path / "telemetry")
    for n, (unit, data) in enumerate(rotten.items(), 1):
        path.write_bytes(data)
        got = load_verified(path, quarantine_to=tmp_path / "corrupt",
                            telemetry=tel, what="result", unit=unit)
        assert got is None, unit                        # a miss, not a crash
        assert not path.exists(), unit                  # moved aside
        assert len(list((tmp_path / "corrupt").iterdir())) == n
    tel.close()
    events = read_events(tmp_path / "telemetry")
    assert [e.get("unit") for e in events
            if e["event"] == "integrity.corrupt"] == list(rotten)


# -- publish hazards (corrupt / disk-full) -----------------------------------

def test_publish_hazards_enospc_then_corrupt(tmp_path):
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    plan = hazards.arm(HazardConfig(0, classes=("corrupt", "disk")))
    # pin the schedule: first publish hits ENOSPC, second is corrupted
    plan.schedule = {"publish_enospc": {0: True}, "publish_eio": {},
                     "pickle_corrupt": {0: (0.5, 0xFF)},
                     "pickle_truncate": {}}
    plan._seen = {k: 0 for k in plan.schedule}
    with pytest.raises(OSError) as e:
        spool.publish("k", {"x": 1})
    assert e.value.errno == errno.ENOSPC
    spool.publish("k", {"x": 1})                        # lands corrupted
    hazards.disarm()
    assert spool.load_result("k") is None               # quarantined miss
    assert list(spool.corrupt.iterdir())
    assert plan.summary() == {"publish_enospc": 1, "pickle_corrupt": 1}


def test_lease_hazards_stale_claim_and_clock_skew(tmp_path):
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    plan = hazards.arm(HazardConfig(0, classes=("lease",)))
    plan.schedule = {"stale_claim": {0: 500.0}, "clock_skew": {}}
    plan._seen = {k: 0 for k in plan.schedule}
    plan.maybe_stale_claim(spool, "k")
    assert spool.claim_owner("k") == os.getpid()
    assert spool.claim_age("k") > 400.0                 # back-dated
    assert spool.reap_stale(["k"], lease_s=30.0) == ["k"]
    # clock skew inflates exactly one age reading
    plan.schedule = {"stale_claim": {}, "clock_skew": {0: 100.0}}
    plan._seen = {k: 0 for k in plan.schedule}
    assert spool.try_claim("k2")
    assert spool.claim_age("k2") >= 100.0
    assert spool.claim_age("k2") < 50.0                 # only the one reading
    assert [r["kind"] for r in plan.injected] == ["stale_claim",
                                                  "clock_skew"]


@pytest.mark.parametrize("kind,payload", [
    ("pickle_corrupt", (0.5, 0xFF)), ("pickle_truncate", 0.4),
    ("publish_enospc", True)])
def test_memo_hit_journal_publish_is_a_hazard_site(golden, tmp_path, kind,
                                                   payload):
    """A memo hit journals the frame it verified without pickling it
    again, and that publish is still one opportunity of the ``journal``
    site: the hazard armed for the second one hits the second hit's
    journal copy (the memo's stays good), the next resume quarantines
    what was corrupted, serves that unit from the memo once more and
    heals the journal."""
    from repro.harness.checkpoint import CheckpointJournal, MemoStore
    specs = _specs()
    ExecutionPipeline(memo=MemoStore(tmp_path / "memo")).run(specs)
    keys = SweepPlan(specs).keys

    def pipeline():
        return ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"),
                                 memo=MemoStore(tmp_path / "memo"))

    plan = hazards.arm(HazardConfig(0, classes=("corrupt", "disk")))
    plan.schedule = {k: {} for k in plan.schedule}
    plan.schedule[kind] = {1: payload}
    plan._seen = {k: 0 for k in plan.schedule}
    warm = pipeline()
    runs = warm.run(specs)
    hazards.disarm()
    assert {r.config: r.cycles for r in runs} == golden
    assert warm.counters.get("memo.hit") == 2
    (hit,) = plan.injected
    assert (hit["kind"], hit["site"], hit["index"], hit["file"]) \
        == (kind, "publish.journal", 1, f"{keys[1]}.run")
    lost = kind == "publish_enospc"
    assert warm.journal.keys() == sorted(keys[:1] if lost else keys)

    again = pipeline()
    runs = again.run(specs)
    assert {r.config: r.cycles for r in runs} == golden
    assert again.counters.get("unit.resumed") == 1
    assert again.counters.get("memo.hit") == 1
    assert again.counters.get("unit.executed") == 0
    rotten = tmp_path / "j" / "corrupt"
    assert (sorted(p.name for p in rotten.iterdir())
            if rotten.exists() else []) \
        == ([] if lost else [f"{keys[1]}.run"])
    for key in keys:
        assert open(again.journal._path(key), "rb").read() \
            == open(again.memo._path(key), "rb").read()


# -- tmp litter: ignored by readers, GC'd ------------------------------------

def test_gc_tmp_collects_only_stale_litter(tmp_path):
    old = tmp_path / "dead-writer.tmp"
    old.write_bytes(b"partial")
    then = time.time() - 3600
    os.utime(old, times=(then, then))
    fresh = tmp_path / "live-writer.tmp"
    fresh.write_bytes(b"in flight")
    keeper = tmp_path / "entry.run"
    keeper.write_bytes(b"payload")
    removed = gc_tmp(tmp_path, older_than_s=60.0)
    assert removed == [old]
    assert fresh.exists() and keeper.exists()


def test_sigkill_between_tmp_write_and_rename(golden, tmp_path):
    """A worker SIGKILLed inside the publish window (after the temp
    write, before the rename) leaves only ``*.tmp`` litter: readers
    never see a partial result, the driver reaps the dead lease and
    finishes bit-identical, and GC collects the litter."""
    root = tmp_path / "spool"
    specs = _specs(("single",))
    plan = SweepPlan(specs)
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)
    script = (
        "import os, signal, sys\n"
        "_real = os.replace\n"
        "def boom(src, dst, *a, **kw):\n"
        "    if str(dst).endswith('.run'):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return _real(src, dst, *a, **kw)\n"
        "os.replace = boom\n"
        "import repro.harness.transport as ht\n"
        "ht.run_worker(sys.argv[1])\n")
    proc = subprocess.Popen([sys.executable, "-c", script, str(root)],
                            env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        assert _wait_for(lambda: proc.poll() is not None, timeout_s=120.0), \
            "worker never hit the publish window"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    (key,) = plan.keys
    litter = list(spool.results.glob("*.tmp"))
    assert litter, "kill inside the window must strand a temp file"
    assert not spool.has_result(key)                    # readers see a miss
    assert spool.claim_age(key) is not None             # lease left behind
    then = time.time() - 2 * LEASE_S                    # ...and outlived
    os.utime(spool.claim_path(key), times=(then, then))

    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    runs = pipe.run(specs)
    assert {r.config: r.cycles for r in runs} == {"single": golden["single"]}
    assert spool.has_result(key)
    # the transport's in-run GC (or this explicit sweep) clears the
    # litter; results are never eligible
    spool.gc_tmp(older_than_s=0.0)
    assert not list(spool.results.glob("*.tmp"))
    assert spool.has_result(key)                        # GC never eats results


# -- poison-unit quarantine --------------------------------------------------

def test_spool_quarantines_poison_unit(golden, tmp_path):
    """A unit whose attempts ledger shows ``POISON_AFTER`` dead
    executions settles as a loud placeholder instead of crash-looping
    the fleet; the rest of the sweep is unaffected."""
    root = tmp_path / "spool"
    specs = _specs()
    plan = SweepPlan(specs)
    poison = next(u for u in plan.distinct() if u.spec.config == "G0")
    spool = _Spool(root)
    spool.ensure()
    for _ in range(3):
        spool.record_attempt(poison.key)
    tel = Telemetry(root=root / "telemetry")
    pipe = ExecutionPipeline(transport=DirQueueTransport(root),
                             telemetry=tel)
    runs = {r.config: r for r in pipe.run(specs)}
    tel.close()
    assert runs["single"].cycles == golden["single"]
    assert runs["G0"].error_kind == "quarantined"
    assert pipe.quarantined and pipe.quarantined_units == [poison.key]
    assert "1 QUARANTINED (poison)" in pipe.summary()
    events = read_events(root / "telemetry")
    assert any(e["event"] == "unit.quarantined" and e["unit"] == poison.key
               for e in events)


# -- graceful SIGTERM drain --------------------------------------------------

def test_worker_sigterm_drains_in_flight_unit(tmp_path):
    """SIGTERM mid-unit: the worker finishes the unit, publishes,
    releases its claim, and exits 0 -- nothing for lease reaping to
    recover."""
    root = tmp_path / "spool"
    specs = _specs(("single",))
    plan = SweepPlan(specs)
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)
    # stretch the unit so SIGTERM reliably lands mid-execution
    script = ("import sys, time\n"
              "import repro.harness.transport as ht\n"
              "_real = ht.execute_spec\n"
              "def slow(spec):\n"
              "    time.sleep(1.5)\n"
              "    return _real(spec)\n"
              "ht.execute_spec = slow\n"
              "ht.run_worker(sys.argv[1])\n")
    proc = subprocess.Popen([sys.executable, "-c", script, str(root)],
                            env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        assert _wait_for(lambda: any(spool.claims.glob("*.claim")),
                         timeout_s=120.0), "worker never claimed"
        proc.terminate()                                # SIGTERM
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    (key,) = plan.keys
    assert spool.has_result(key)                        # drained, not dropped
    assert not list(spool.claims.glob("*.claim"))       # claim released


# -- the one "stalled" rule and the one lease threshold --------------------

def test_stall_truth_table(tmp_path):
    """A claim is stalled when, and only when, it has outlived the
    lease -- whoever holds it is not asked -- and the driver's idle
    step reaps exactly the stalled claims at the one default lease
    :data:`LEASE_S` of the driver, the pool and the pool's children."""
    assert not _Spool.stall(None, 30.0)                 # unclaimed
    assert not _Spool.stall(1.0, 30.0)
    assert not _Spool.stall(30.0, 30.0)
    assert _Spool.stall(30.5, 30.0)
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    spool.enqueue("unit-a", {"spec": "placeholder"})
    assert spool.try_claim("unit-a")
    driver = DirQueueTransport(spool.root)
    for age, reaped in ((LEASE_S - 15, []), (LEASE_S + 1, ["unit-a"])):
        then = time.time() - age
        os.utime(spool.claim_path("unit-a"), times=(then, then))
        assert driver._idle(["unit-a"]) == reaped
    assert spool.claim_age("unit-a") is None            # reaped
    assert DirQueueTransport.lease_s == PoolTransport.lease_s == LEASE_S


# -- the harness chaos matrix (smoke; CI runs the full default one) ----------

def test_harness_chaos_smoke_pool(tmp_path):
    """One kill scenario end to end on the pool: the forked child arms
    itself from the environment and the kill fires there, its
    ``hazard.injected`` record reaches the scenario's log, and both
    legs merge bit-identical to the hazard-free baseline with the log
    valid."""
    report = run_harness_chaos(tmp_path / "wd", classes=(("kill",),),
                               base_seed=0)
    (outcome,) = report.outcomes
    assert outcome.ok, (outcome.error, outcome.telemetry_problems)
    assert report.ok and len(report.baseline) == 2
    assert sum(outcome.injected.values()) >= 1
    kills = [e for e in read_events(tmp_path / "wd" / "kill-s0" / "telemetry")
             if e["event"] == "hazard.injected"]
    assert kills and all(e["kind"] in ("kill_worker", "term_worker")
                         and e["site"].startswith("worker.")
                         and e["pid"] != os.getpid() for e in kills)
    assert hazards.current() is None                    # matrix disarms
