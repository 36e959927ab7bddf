"""Transport pluggability: serial, pool and spool dispatch must agree
bit-for-bit, and the spool protocol (claim files, published results,
the attempts ledger) must hold up under cooperating processes."""

import ast
import errno
import inspect
import os
import pickle
import time
import traceback
from pathlib import Path

import pytest

from repro.config import PAPER_MACHINE
from repro.harness.jobs import RunSpec, SweepPlan, unit_key
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import (LEASE_S, POISON_AFTER,
                                     DirQueueTransport, PoolTransport,
                                     SerialTransport, Transport, _Spool,
                                     _UnitFailure, run_worker)
from repro.obs.telemetry import Telemetry, read_events, validate_events

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs():
    return [RunSpec.make("cg", c, size="test", cfg=CFG)
            for c in ("single", "G0")]


def _outlive_the_lease(spool, key):
    """Back-date ``key``'s claim past :data:`LEASE_S`, as a holder that
    died (or stalled) that long ago leaves it."""
    then = time.time() - 2 * LEASE_S
    os.utime(spool.claim_path(key), times=(then, then))


@pytest.fixture(scope="module")
def golden():
    """Serial-transport cycles for the module's spec pair -- the
    reference every other transport must reproduce exactly."""
    runs = ExecutionPipeline(transport=SerialTransport()).run(_specs())
    return [r.cycles for r in runs]


def test_pool_matches_serial_bit_for_bit(golden):
    runs = ExecutionPipeline(transport=PoolTransport(jobs=2)).run(_specs())
    assert [r.cycles for r in runs] == golden


def test_spool_driver_completes_alone(golden, tmp_path):
    """The driver works the spool inline: a sweep finishes with zero
    attached workers, bit-identical to serial."""
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden
    assert pipe.counters.get("unit.executed") == 2


def test_worker_drains_spool_and_driver_harvests(golden, tmp_path):
    """An attached worker executes enqueued units; the driver then only
    harvests (its inline path never fires)."""
    root = tmp_path / "sp"
    plan = SweepPlan(_specs())
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)
    assert run_worker(root) == 2
    # drained spool: a second worker finds nothing
    assert run_worker(root) == 0
    # driver harvest delivers the worker's results, in merge order
    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden


def test_worker_skips_a_spec_that_fails_verification(tmp_path, caplog):
    """A unit whose spec file is damaged is skipped, never executed:
    the spec is quarantined into ``corrupt/``, the claim released, and
    the skip is a warning on the ``repro.worker`` logger."""
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    (unit,) = SweepPlan([_tiny()]).distinct()
    spool.enqueue(unit.key, unit.spec)
    path = Path(spool.unit_path(unit.key))
    path.write_bytes(path.read_bytes()[:-1])
    with caplog.at_level("WARNING", logger="repro.worker"):
        assert run_worker(root) == 0
    assert [r.getMessage() for r in caplog.records
            if r.name == "repro.worker"] == [
        f"worker: skipping unit {unit.key[:12]} (spec failed verification)"]
    assert not spool.has_result(unit.key)
    assert spool.claim_age(unit.key) is None
    assert [p.name for p in spool.corrupt.iterdir()] == [path.name]


def test_a_worker_keeps_no_event_log(tmp_path):
    """A pool's child records nothing: ``run_worker`` settles a unit
    and leaves no ``telemetry/`` directory in the spool."""
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    (unit,) = SweepPlan([_tiny()]).distinct()
    spool.enqueue(unit.key, unit.spec)
    assert run_worker(root) == 1
    assert spool.has_result(unit.key)
    assert not (root / "telemetry").exists()


def test_spool_spec_errors_propagate(tmp_path):
    """A spec that raises (watchdog expiry) propagates out of the spool
    driver exactly like the serial and pool transports."""
    from repro.runtime import SimDeadlockError
    spec = RunSpec.make("cg", "single", size="test", cfg=CFG,
                        timeout_cycles=300)
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    with pytest.raises(SimDeadlockError):
        pipe.run([spec])
    # ...and the failure record is published so no other process tries
    # the unit again.
    spool = _Spool(tmp_path / "sp")
    assert spool.has_result(unit_key(spec))


def test_spool_reaps_stalled_lease(golden, tmp_path):
    """A claim left behind by a dead worker is reaped after the lease
    and the unit re-executed by whoever notices."""
    root = tmp_path / "sp"
    plan = SweepPlan(_specs())
    spool = _Spool(root)
    spool.ensure()
    stuck = plan.distinct()[0]
    assert spool.try_claim(stuck.key)        # a "worker" that died here
    _outlive_the_lease(spool, stuck.key)
    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden
    assert any("reaped" in e for e in pipe.events)


def test_enqueue_is_idempotent(tmp_path):
    spool = _Spool(tmp_path / "sp")
    spool.ensure()
    spec = RunSpec.make("cg", "single", size="test", cfg=CFG)
    key = unit_key(spec)
    assert spool.enqueue(key, spec)
    assert not spool.enqueue(key, spec)      # already enqueued
    spool.publish(key, "done")
    os.unlink(spool.unit_path(key))
    assert not spool.enqueue(key, spec)      # already resulted


def test_claims_are_exclusive(tmp_path):
    spool = _Spool(tmp_path / "sp")
    spool.ensure()
    assert spool.try_claim("k")
    assert not spool.try_claim("k")          # second claimant loses
    spool.release("k")
    assert spool.try_claim("k")


def test_unit_failure_roundtrips_exceptions():
    from repro.harness.transport import _UnitFailure
    wrapped = _UnitFailure(ValueError("boom"))
    clone = pickle.loads(pickle.dumps(wrapped))
    exc = clone.unwrap()
    assert isinstance(exc, ValueError) and "boom" in str(exc)


def test_spool_driver_asks_the_directory_not_every_pending_unit(
        tmp_path, monkeypatch):
    """One listing of ``results/`` a loop iteration tells the driver
    what is published; ``load_result`` runs only for those keys.  40
    units, half of them published by a worker beforehand, the rest
    executed inline (execution stubbed out): at most one load a unit,
    where trying every pending key before each inline unit made
    40 + 20 + 19 + ... + 1 = 250."""
    import repro.harness.transport as ht
    from repro.harness.runner import BenchRun
    specs = [RunSpec.make("ep", "single", size="test", cfg=CFG,
                          params=dict(n=48 + i)) for i in range(40)]
    canned = {s: BenchRun("ep", "single", None, dict(s.params))
              for s in specs}
    monkeypatch.setattr(ht, "execute_spec", canned.__getitem__)
    spool = _Spool(tmp_path / "sp")
    spool.ensure()
    units = SweepPlan(specs).distinct()
    for u in units[::2]:
        spool.publish(u.key, canned[u.spec])
    loads = []
    real = _Spool.load_result
    monkeypatch.setattr(_Spool, "load_result",
                        lambda self, key: loads.append(key)
                        or real(self, key))
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    assert pipe.run(specs) == [canned[s] for s in specs]
    assert loads == [u.key for u in units[::2]]      # pending order
    assert len(loads) <= len(units)
    assert spool.published_keys() == {u.key for u in units}
    assert spool.pending_keys() == []


def test_the_attempts_ledger_makes_its_directory_once(tmp_path,
                                                      monkeypatch):
    """``record_attempt`` makes ``attempts/`` only when opening a ledger
    finds it missing: one ``mkdir`` of it in a 20-unit spool sweep
    (execution stubbed out), where making it before every ledger byte
    made one a unit."""
    import repro.harness.transport as ht
    from repro.harness.runner import BenchRun
    specs = [_tiny(48 + i) for i in range(20)]
    canned = {s: BenchRun("ep", "single", None, dict(s.params))
              for s in specs}
    monkeypatch.setattr(ht, "execute_spec", canned.__getitem__)
    made = []
    real = os.mkdir

    def mkdir(path, *args, **kw):
        made.append(os.fspath(path))
        return real(path, *args, **kw)
    monkeypatch.setattr(os, "mkdir", mkdir)
    root = tmp_path / "sp"
    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    assert pipe.run(specs) == [canned[s] for s in specs]
    assert pipe.counters.get("unit.executed") == 20
    assert made.count(str(root / "attempts")) == 1


@pytest.mark.parametrize("umask", (0o002, 0o022, 0o077),
                         ids=("002", "022", "077"))
def test_entries_are_readable_by_whoever_may_read_the_directory(
        tmp_path, umask):
    """Specs, results, journal and memo logs get the mode the
    process umask allows -- the mode of a claim made beside them -- so
    a worker under another uid on a group-shared spool can read the
    specs of the units it may claim (``mkstemp`` made every entry
    ``0600`` whatever the umask).  The attempts ledger too: a worker
    that may claim a unit (umask ``002``, a group-shared spool) must be
    able to append its own dead executions, or a poison unit is never
    quarantined (the ledger was ``0644`` whatever the umask)."""
    from repro.harness.checkpoint import ResultStore
    old = os.umask(umask)
    try:
        spool = _Spool(tmp_path / "sp")
        spool.ensure()
        spool.enqueue("k", "spec")
        spool.publish("k", "run")
        assert spool.try_claim("k")
        assert spool.record_attempt("k") == 1
        store = ResultStore(tmp_path / "store")
        assert store.put("k", "run")
    finally:
        os.umask(old)
    modes = {str(path): os.stat(path).st_mode & 0o777
             for path in (spool.unit_path("k"), spool.result_path("k"),
                          store.path, spool.attempt_path("k"),
                          spool.claim_path("k"))}
    assert set(modes.values()) == {0o666 & ~umask}, modes


# -- one way to settle a leased unit ------------------------------------------

def _tiny(n=48, **kw):
    return RunSpec.make("ep", "single", size="test", cfg=CFG,
                        params=dict(n=n), **kw)


def _enospc(*_args, **_kw):
    raise OSError(errno.ENOSPC, "no space left on device (injected)")


#: Event types that tell one unit's story in the shared log.
_LIFECYCLE = ("unit.claimed", "unit.started", "unit.finished",
              "unit.failed", "unit.quarantined")

#: How a leased unit can end -> what whoever settled it must leave
#: behind: (type of the published result or None, its error_kind,
#: ledger bytes, the unit's lifecycle events in order) and the
#: error_kind of the run the sweep is handed (raises: it raises).
_ENDINGS = {
    "good": ("BenchRun", None, 0,
             ["unit.claimed", "unit.started", "unit.finished"], None),
    "raises": ("_UnitFailure", None, 0,
               ["unit.claimed", "unit.started", "unit.failed"], None),
    "poison": ("BenchRun", "quarantined", POISON_AFTER,
               ["unit.quarantined"], "quarantined"),
    "enospc": (None, None, 0,
               ["unit.claimed", "unit.started", "unit.finished"], None),
}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
@pytest.mark.parametrize("who", ("driver", "worker"))
def test_driver_and_worker_settle_a_leased_unit_alike(
        tmp_path, monkeypatch, who, ending):
    """The four ways a leased unit ends, settled by the driver working
    inline (no worker attached) and by ``run_worker`` (the driver only
    harvesting): both must leave the same spool -- result and its
    type, claim released, ledger cleared or kept -- and a log that
    validates; the driver's holds the unit's lifecycle.  What reaches
    the sweep is the same too: the result, the quarantine placeholder,
    or the spec's own exception type."""
    from repro.runtime import SimDeadlockError
    root = tmp_path / "sp"
    spec = _tiny(timeout_cycles=300) if ending == "raises" else _tiny()
    (unit,) = SweepPlan([spec]).distinct()
    spool = _Spool(root)
    spool.ensure()
    spool.enqueue(unit.key, unit.spec)
    if ending == "poison":
        for _ in range(POISON_AFTER):
            spool.record_attempt(unit.key)
    if ending == "enospc":
        monkeypatch.setattr(_Spool, "publish", _enospc)

    def drive():
        transport = DirQueueTransport(root)
        transport.telemetry = Telemetry(root=root / "telemetry")
        got = []
        try:
            transport.run([unit], lambda u, run: got.append(run))
        finally:
            transport.telemetry.close()
        return got

    if who == "worker":
        executed = run_worker(root)
        assert executed == (1 if ending in ("good", "raises") else 0)
    result_type, error_kind, ledger, lifecycle, delivered = _ENDINGS[ending]
    if ending == "raises":
        with pytest.raises(SimDeadlockError):
            drive()
    elif who == "driver" or ending != "enospc":     # else: nothing to harvest
        (run,) = drive()
        assert run.error_kind == delivered
        assert (run.cycles == run.cycles) == (delivered is None)
    monkeypatch.undo()
    result = spool.load_result(unit.key) if spool.has_result(unit.key) \
        else None
    assert (type(result).__name__ if result is not None else None) \
        == result_type
    assert getattr(result, "error_kind", None) == error_kind
    assert spool.claim_age(unit.key) is None            # lease released
    assert spool.attempt_count(unit.key) == ledger
    records = read_events(root / "telemetry")
    if who == "driver":
        assert [r["event"] for r in records
                if r["event"] in _LIFECYCLE] == lifecycle
    assert validate_events(records) == []


def test_driver_publish_enospc_clears_the_ledger_and_keeps_the_result(
        tmp_path):
    """A driver whose first result publish hits injected ENOSPC still
    delivers that result from memory and completes the sweep; both
    units' ledgers are cleared (each execution returned, published or
    not), and only the published one is on the spool."""
    from repro.harness import hazards
    from repro.harness.hazards import HazardConfig
    specs = [_tiny(), _tiny(n=49)]
    lost, kept = SweepPlan(specs).distinct()
    spool = _Spool(tmp_path / "sp")
    spool.ensure()
    for u in (lost, kept):
        spool.enqueue(u.key, u.spec)        # before arming: not a hazard site
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    plan = hazards.arm(HazardConfig(0, classes=("disk",)))
    plan.schedule = {"publish_enospc": {0: True}, "publish_eio": {}}
    plan._seen = {k: 0 for k in plan.schedule}
    try:
        runs = pipe.run(specs)
    finally:
        hazards.disarm()
    assert plan.summary() == {"publish_enospc": 1}
    assert [r.error for r in runs] == [None, None]
    assert runs[0].cycles == runs[0].cycles             # a real result
    assert not spool.has_result(lost.key) and spool.has_result(kept.key)
    assert spool.attempt_count(lost.key) == 0
    assert spool.attempt_count(kept.key) == 0
    assert sum("publish failed" in e for e in pipe.events) == 1
    assert not list(spool.claims.iterdir())


def test_worker_returns_on_a_disk_that_refuses_every_publish(
        tmp_path, monkeypatch, caplog):
    """On a disk that refuses every publish a pool child runs its unit
    once, clears the ledger (the execution returned), skips the unit
    and returns: forked, it exits within the join timeout.  The driver,
    on the same disk, then settles the unit and delivers the real
    result from memory, not a quarantine placeholder."""
    import multiprocessing
    root = tmp_path / "sp"
    (unit,) = SweepPlan([_tiny()]).distinct()
    spool = _Spool(root)
    spool.ensure()
    spool.enqueue(unit.key, unit.spec)
    monkeypatch.setattr(_Spool, "publish", _enospc)
    child = multiprocessing.get_context("fork").Process(
        target=run_worker, args=(root,), daemon=True)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "run_worker still running after 60 s"
    assert child.exitcode == 0
    assert not spool.has_result(unit.key)
    assert spool.claim_age(unit.key) is None            # lease released
    assert spool.attempt_count(unit.key) == 0
    got = []
    with caplog.at_level("WARNING", logger="repro.harness.transport"):
        DirQueueTransport(root).run([unit], lambda u, run: got.append(run))
    (run,) = got
    (serial,) = ExecutionPipeline().run([unit.spec])
    assert run.error_kind is None
    assert run.cycles == serial.cycles
    assert spool.attempt_count(unit.key) == 0
    assert any("publish failed" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("who", ("driver", "worker"))
def test_a_reap_is_counted_by_whoever_does_it(tmp_path, caplog, who):
    """A dead worker's lease is reaped by the driver or by another
    worker, whoever idles first: the driver records one
    ``lease.reaped`` event, a worker one ``repro.worker`` warning."""
    root = tmp_path / "sp"
    (unit,) = SweepPlan([_tiny()]).distinct()
    spool = _Spool(root)
    spool.ensure()
    spool.enqueue(unit.key, unit.spec)
    assert spool.try_claim(unit.key)        # a "worker" that died here
    _outlive_the_lease(spool, unit.key)
    tel = Telemetry()
    with caplog.at_level("WARNING", logger="repro.worker"):
        if who == "driver":
            transport = DirQueueTransport(root)
            transport.telemetry = tel
            transport.run([unit], lambda u, run: None)
        else:
            assert run_worker(root) == 1
    reaps = [r["unit"] for r in tel.records if r["event"] == "lease.reaped"]
    warned = [r for r in caplog.records if r.name == "repro.worker"
              and "reaped stalled lease" in r.getMessage()]
    assert (reaps, len(warned)) == (([unit.key], 0) if who == "driver"
                                    else ([], 1))
    assert spool.has_result(unit.key)
    assert validate_events(tel.records) == []


def _slow_worker(root, sleep_s):
    """``run_worker`` whose units each sleep ``sleep_s`` first (a forked
    child: the patch stays in it)."""
    import repro.harness.transport as ht
    real = ht.execute_spec

    def slow(spec):
        time.sleep(sleep_s)
        return real(spec)

    ht.execute_spec = slow
    ht.run_worker(root)


def test_a_live_worker_whose_unit_outlasts_the_lease_is_reaped(tmp_path):
    """Whoever holds a claim is not asked: a live worker still running
    a unit past the lease loses it, so the driver reaps it and runs the
    unit again itself -- the same key, the same bytes, and the merged
    result is the serial one.  The worker's late publish leaves the
    spool settled: result in place, claim released, ledger cleared."""
    import multiprocessing
    spec = _tiny()
    (unit,) = SweepPlan([spec]).distinct()
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    spool.enqueue(unit.key, unit.spec)
    worker = multiprocessing.get_context("fork").Process(
        target=_slow_worker, args=(root, 2.5))
    worker.start()
    try:
        deadline = time.monotonic() + 60
        while spool.claim_age(unit.key) is None:
            assert time.monotonic() < deadline, "worker never claimed"
            time.sleep(0.01)
        _outlive_the_lease(spool, unit.key)
        tel = Telemetry(root=root / "telemetry")
        pipe = ExecutionPipeline(transport=DirQueueTransport(root),
                                 telemetry=tel)
        (run,) = pipe.run([spec])
        tel.close()
    finally:
        worker.join(timeout=60)
    assert worker.exitcode == 0
    (serial,) = ExecutionPipeline().run([spec])
    assert (run.cycles, run.result.output) == (serial.cycles,
                                                serial.result.output)
    assert [r["event"] for r in tel.records if r["event"] in (
        "lease.reaped", "unit.started")] == ["lease.reaped", "unit.started"]
    assert validate_events(read_events(root / "telemetry")) == []
    assert spool.has_result(unit.key)
    assert spool.claim_age(unit.key) is None
    assert spool.attempt_count(unit.key) == 0


def test_failing_spec_traceback_points_into_execute_spec(tmp_path):
    """The driver re-raises the exception it caught, not a pickled
    copy: the traceback still ends inside ``execute_spec``."""
    from repro.runtime import SimDeadlockError
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    with pytest.raises(SimDeadlockError) as caught:
        pipe.run([_tiny(timeout_cycles=300)])
    frames = [f.name for f in traceback.extract_tb(caught.value.__traceback__)]
    assert "execute_spec" in frames
    assert frames.index("settle") < frames.index("execute_spec")
    failure = _Spool(tmp_path / "sp").load_result(
        unit_key(_tiny(timeout_cycles=300)))
    assert isinstance(failure, _UnitFailure)            # the copy is on disk
    assert isinstance(failure.unwrap(), SimDeadlockError)


# -- structure: written once, nothing to set ----------------------------------

def _counting_worker(root, out):
    """``run_worker`` that writes how many units it executed to ``out``
    (a forked child's return value is lost)."""
    Path(out).write_text(str(run_worker(root)))


def test_an_attached_worker_never_runs_a_settled_unit(tmp_path):
    """A driver and one forked ``run_worker`` over 40 units: every unit
    executes once.  The worker leases from the list its scan began
    with, so a unit the driver has settled since (published, lease
    released) must be let go, not run a second time."""
    import multiprocessing
    specs = [_tiny(n=48 + i) for i in range(40)]
    units = SweepPlan(specs).distinct()
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    for u in units:
        spool.enqueue(u.key, u.spec)
    count = tmp_path / "executed"
    worker = multiprocessing.get_context("fork").Process(
        target=_counting_worker, args=(root, count))
    worker.start()
    tel = Telemetry()
    try:
        pipe = ExecutionPipeline(transport=DirQueueTransport(root),
                                 telemetry=tel)
        assert len(pipe.run(specs)) == len(units)
    finally:
        worker.join(timeout=60)
    assert worker.exitcode == 0
    inline = sum(r["event"] == "unit.started" for r in tel.records)
    remote = int(count.read_text())
    assert inline + remote == len(units), (inline, remote)


def test_the_settle_path_is_written_once():
    """Guards that count: one call site each for the ledger writes and
    the placeholder, ``unit.claimed`` under the spool half of
    ``transport.py`` only where a unit is settled or a pool child's
    result harvested; one writer of ``unit.failed``; one way to lease;
    no ``run`` but ``Transport.run``; the removed knobs on no signature
    (the lease and the poll are class constants) and no reap backoff;
    no dead ``quarantined`` list."""
    import repro.harness.transport as ht
    source = Path(ht.__file__).read_text()
    tree = ast.parse(source)
    calls = [n.func.attr if isinstance(n.func, ast.Attribute) else
             getattr(n.func, "id", None)
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    for name in ("record_attempt", "clear_attempts", "quarantined_run"):
        assert calls.count(name) == 1, name
    assert calls.count("settle") == 2                   # driver + worker
    assert calls.count("lease") == 2                    # driver + worker
    assert calls.count("reap_stale") == 2              # driver + worker
    spool_half = source[source.index("class _UnitFailure"):]
    # settle, and the pool driver's record of a child's harvested unit
    assert spool_half.count('"unit.claimed"') == 2
    assert spool_half.count('"unit.quarantined"') == 0  # the shared helper
    assert source.count('emit("unit.quarantined"') == 1
    assert source.count('emit("unit.failed"') == 1      # _emit_terminal
    runs = [cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "run"]
    assert runs == ["Transport"]
    for fn in (PoolTransport, DirQueueTransport, run_worker):
        assert not {"poison_threshold", "quarantine_after", "backoff_base",
                    "lease_s", "poll_s", "max_units", "drain", "out",
                    "start_method"} \
            & set(inspect.signature(fn).parameters)
    assert not hasattr(Transport(), "quarantined")
    assert not hasattr(ht, "BACKOFF_BASE")
    assert len(inspect.signature(PoolTransport).parameters) == 1
    assert len(inspect.signature(DirQueueTransport).parameters) == 1
    assert len(inspect.signature(run_worker).parameters) == 1
    assert list(inspect.signature(_Spool.try_claim).parameters) \
        == ["self", "key"]


def test_stalled_and_reaped_are_each_decided_once():
    """One definition of ``_Spool.stall``, asked by the reaper only; one
    ``lease.reaped`` event under ``src/`` and no metrics registry; the
    reaper and lease read a claim's age once each (the ``clock_skew``
    schedule depends on it); the predicate and the threshold it
    replaced, and every heartbeat, are gone, and no module of
    ``repro.obs`` names a spool path."""
    import re

    import repro
    import repro.harness
    import repro.obs
    import repro.obs.telemetry
    src = Path(repro.__file__).parent
    sources = {p: p.read_text() for p in sorted(src.rglob("*.py"))}
    defs, callers, ages = [], [], []
    for path, text in sources.items():
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "stall":
                defs.append(path.name)
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and isinstance(
                        n.func, ast.Attribute):
                    if n.func.attr == "stall":
                        callers.append(fn.name)
                    elif n.func.attr == "claim_age":
                        ages.append(fn.name)
    assert defs == ["transport.py"]
    assert sorted(callers) == ["reap_stale"]
    assert sorted(ages) == ["lease", "reap_stale"]
    text = "".join(sources.values())
    assert text.count('emit("lease.reaped"') == 1
    assert not re.search(
        r"\b(claim_is_stalled|heartbeat\w*|HEARTBEAT_S|DEFAULT_STALL_S)\b",
        text)
    obs = "".join(t for p, t in sources.items()
                  if "obs" in p.relative_to(src).parts)
    assert not re.search(r'"(units|claims|results|telemetry)"'
                         r'|\.(spec|claim)\b', obs)
    gone = {"claim_is_stalled", "heartbeat_age", "DEFAULT_STALL_S",
            "FleetStatus", "WorkerStatus", "collect_status",
            "render_status", "telemetry_area", "MetricsRegistry",
            "Histogram"}
    assert not gone & set(repro.obs.__all__ + repro.obs.telemetry.__all__
                          + repro.harness.__all__)
