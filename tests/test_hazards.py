"""Harness hazard injection and the crash-consistency hardening it
gates: seeded deterministic schedules, integrity framing, poison-unit
quarantine, lease reaping, the one stalled-claim rule at the one lease,
and a pool child that arms itself from the plan it inherits at fork."""

import errno
import multiprocessing as mp
import os
import pickle
import signal
import time

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import hazards
from repro.harness.chaos import run_harness_chaos
from repro.harness.hazards import HazardConfig, HazardPlan
from repro.harness.integrity import (IntegrityError, atomic_pickle, frame,
                                     load_verified, unframe)
from repro.harness.jobs import RunSpec, SweepPlan
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import (LEASE_S, DirQueueTransport,
                                     PoolTransport, SerialTransport, _Spool,
                                     run_worker)
from repro.obs.telemetry import Telemetry, read_events, validate_events

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs(configs=("single", "G0")):
    return [RunSpec.make("cg", c, size="test", cfg=CFG) for c in configs]


@pytest.fixture(scope="module")
def golden():
    """Hazard-free serial cycles for the two-config sweep."""
    runs = ExecutionPipeline(transport=SerialTransport()).run(_specs())
    return {r.config: r.cycles for r in runs}


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test may leak an armed plan into the next."""
    yield
    hazards.disarm()


# -- schedules: seeded, validated, opportunity-indexed -----------------------

def test_config_validation_and_canonicalization():
    with pytest.raises(ValueError):
        HazardConfig(0, classes=("nosuch",))
    with pytest.raises(ValueError):
        HazardConfig(0, rate=0)
    with pytest.raises(ValueError):
        HazardConfig(0, classes=("lease",))             # no claim to age
    cfg = HazardConfig(0, classes=("kill", "corrupt", "corrupt"))
    assert cfg.classes == ("corrupt", "kill")
    # kinds come out in fixed schedule-draw order, classes only gate
    assert cfg.kinds == ("pickle_corrupt", "pickle_truncate", "kill_worker")


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
        "pickle_corrupt": {3: (0.04048437818077755, 248),
                           1: (0.5112747213686085, 104)},
        "pickle_truncate": {2: 0.35434196849074007, 1: 0.8079115608475801},
        "publish_enospc": {1: True, 2: True},
        "publish_eio": {1: True, 3: True},
        "kill_worker": {0: True, 2: True}}


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


@pytest.mark.parametrize("kind,payload", [
    ("pickle_corrupt", (0.5, 0xFF)), ("pickle_truncate", 0.4),
    ("publish_enospc", True)])
def test_memo_hit_journal_publish_is_a_hazard_site(golden, tmp_path, kind,
                                                   payload):
    """A memo hit journals the frame it verified without pickling it
    again, and that append is still one opportunity of the ``journal``
    site: the hazard armed for the second one hits the second hit's
    journal record (the memo's stays good), the next resume keeps what
    was corrupted as evidence, serves that unit from the memo once more
    and heals the journal with a record after the damaged one."""
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
        assert again.journal.get_framed(key)[1] \
            == again.memo.get_framed(key)[1]


# -- tmp litter: ignored by readers -----------------------------------------

def test_sigkill_between_tmp_write_and_rename(golden, tmp_path):
    """A forked worker SIGKILLed inside the publish window (after the
    temp write, before the rename) leaves only ``*.tmp`` litter:
    readers never see a partial result, and the driver reaps the dead
    lease and finishes bit-identical."""
    root = tmp_path / "spool"
    specs = _specs(("single",))
    plan = SweepPlan(specs)
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)

    def dies_publishing():
        real = os.replace

        def boom(src, dst, *a, **kw):
            if str(dst).endswith(".run"):
                os.kill(os.getpid(), signal.SIGKILL)
            return real(src, dst, *a, **kw)

        os.replace = boom
        run_worker(root)

    proc = mp.get_context("fork").Process(target=dies_publishing,
                                          daemon=True)
    proc.start()
    proc.join(timeout=120.0)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    assert proc.exitcode == -signal.SIGKILL, \
        "worker never hit the publish window"
    (key,) = plan.keys
    assert list(spool.results.glob("*.tmp")), \
        "kill inside the window must strand a temp file"
    assert not spool.has_result(key)                    # readers see a miss
    assert spool.claim_age(key) is not None             # lease left behind
    then = time.time() - 2 * LEASE_S                    # ...and outlived
    os.utime(spool.claim_path(key), times=(then, then))

    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    runs = pipe.run(specs)
    assert {r.config: r.cycles for r in runs} == {"single": golden["single"]}
    assert spool.has_result(key)
    assert any("reaped" in e for e in pipe.events)


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


# -- the one "stalled" rule and the one lease threshold --------------------

def test_stall_truth_table(tmp_path):
    """A claim is stalled when, and only when, it has outlived the
    lease -- whoever holds it is not asked -- and the driver's idle
    step reaps exactly the stalled claims at the one default lease
    :data:`LEASE_S`."""
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
        assert spool.reap_stale(["unit-a"], driver.lease_s) == reaped
    assert spool.claim_age("unit-a") is None            # reaped
    assert DirQueueTransport.lease_s == LEASE_S


# -- the harness chaos matrix (smoke; CI runs the full default one) ----------

def test_harness_chaos_smoke_pool(tmp_path):
    """One kill scenario end to end on the pool: the forked child arms
    itself from the plan it inherits and the kill fires there, its
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
    assert kills and all(e["kind"] == "kill_worker"
                         and e["site"].startswith("worker.")
                         and e["pid"] != os.getpid() for e in kills)
    assert hazards.current() is None                    # matrix disarms


def test_a_pool_child_arms_from_the_plan_it_inherits(golden, tmp_path,
                                                     monkeypatch):
    """No environment carries the campaign: an armed driver's forked
    child builds its own worker-side plan from the one it inherits --
    same seed, counters at zero -- and the child's ``kill_worker``
    fires, recorded in the driver plan's telemetry directory under the
    child's pid.  The driver is never killed, and the sweep merges
    bit-identical."""
    monkeypatch.delenv("REPRO_HAZARDS", raising=False)
    tel_root = tmp_path / "telemetry"
    tel = Telemetry(root=tel_root)
    plan = hazards.arm(HazardConfig(0, classes=("kill",)), telemetry=tel)
    try:
        pipe = ExecutionPipeline(transport=PoolTransport(jobs=2),
                                 telemetry=tel)
        runs = pipe.run(_specs())
    finally:
        hazards.disarm()
        tel.close()
    assert {r.config: r.cycles for r in runs} == golden
    assert plan.injected == []
    events = read_events(tel_root)
    assert validate_events(events) == []
    kills = [e for e in events if e["event"] == "hazard.injected"]
    assert [e["kind"] for e in kills] == ["kill_worker"]
    assert kills[0]["site"].startswith("worker.")
    assert kills[0]["pid"] != os.getpid()
    assert kills[0]["worker"] != tel.worker
