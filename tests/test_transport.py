"""Transport pluggability: serial, pool and spool dispatch must agree
bit-for-bit, and the spool protocol (claim files, published results,
worker key checks) must hold up under cooperating processes."""

import os
import pickle

import pytest

from repro.config import PAPER_MACHINE
from repro.harness.jobs import RunSpec, SweepPlan, unit_key
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import (DirQueueTransport, PoolTransport,
                                     SerialTransport, _Spool, run_worker)

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs():
    return [RunSpec.make("cg", c, size="test", cfg=CFG)
            for c in ("single", "G0")]


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
    executed = run_worker(root, drain=True,
                          out=open(tmp_path / "w.log", "w"))
    assert executed == 2
    # drained spool: a second worker finds nothing
    assert run_worker(root, drain=True,
                      out=open(tmp_path / "w2.log", "w")) == 0
    # driver harvest delivers the worker's results, in merge order
    pipe = ExecutionPipeline(transport=DirQueueTransport(root))
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden


def test_worker_skips_key_mismatched_unit(tmp_path):
    """A unit whose spec no longer hashes to its filename (code or tier
    drift between driver and worker) is skipped, never executed."""
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    spec = RunSpec.make("cg", "single", size="test", cfg=CFG)
    spool.enqueue("0" * 64, spec)            # wrong key on purpose
    out = open(tmp_path / "w.log", "w")
    assert run_worker(root, drain=True, out=out) == 0
    out.close()
    assert "skipping" in (tmp_path / "w.log").read_text()
    assert not spool.has_result("0" * 64)
    assert os.path.isfile(spool.unit_path("0" * 64))   # left for inspection


def test_spool_spec_errors_propagate(tmp_path):
    """A spec that raises (watchdog expiry) propagates out of the spool
    driver exactly like the serial and pool transports."""
    from repro.runtime import SimDeadlockError
    spec = RunSpec.make("cg", "single", size="test", cfg=CFG,
                        timeout_cycles=300)
    pipe = ExecutionPipeline(transport=DirQueueTransport(tmp_path / "sp"))
    with pytest.raises(SimDeadlockError):
        pipe.run([spec])
    # ...and the failure record is published so attached workers stop
    # re-trying the unit.
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
    pipe = ExecutionPipeline(
        transport=DirQueueTransport(root, lease_s=0.2, poll_s=0.02))
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


@pytest.mark.parametrize("umask", (0o022, 0o077), ids=("022", "077"))
def test_entries_are_readable_by_whoever_may_read_the_directory(
        tmp_path, umask):
    """Specs, results, journal and memo entries get the mode the
    process umask allows -- the mode of a claim made beside them -- so
    a ``repro worker`` under another uid on a shared spool can read
    the specs of the units it may claim (``mkstemp`` made every entry
    ``0600`` whatever the umask)."""
    from repro.harness.checkpoint import ResultStore
    old = os.umask(umask)
    try:
        spool = _Spool(tmp_path / "sp")
        spool.ensure()
        spool.enqueue("k", "spec")
        spool.publish("k", "run")
        assert spool.try_claim("k")
        store = ResultStore(tmp_path / "store")
        assert store.put("k", "run")
    finally:
        os.umask(old)
    modes = {path: os.stat(path).st_mode & 0o777
             for path in (spool.unit_path("k"), spool.result_path("k"),
                          store._path("k"), spool.claim_path("k"))}
    assert set(modes.values()) == {0o666 & ~umask}, modes
