"""Harness hardening: the pool's children are expendable.  A killed
child's unit runs again at once, a unit that keeps killing its
executors is quarantined, a hung child's unit is run by the driver once
the lease runs out, a spec error propagates -- and every sweep that
completes is bit-identical to serial, with every death on the record
and no child left behind."""

import multiprocessing
import os
import signal
import time

import pytest

import repro.harness.transport as ht
from repro.harness import (ExecutionPipeline, PoolTransport, RunSpec,
                           SerialTransport, SweepPlan)
from repro.obs.telemetry import Telemetry, validate_events

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash tests rely on the fork start method")

_PARENT = os.getpid()
_REAL_EXECUTE = ht.execute_spec

#: Env var naming a flag file; when set, workers die only until the
#: flag exists (the first claimant dies, the unit's next executor lives).
_ONCE_ENV = "REPRO_TEST_CRASH_ONCE"


def _always_killer(spec):
    """Worker execution seam that SIGKILLs every forked worker
    (module-level: fork resolves this by reference)."""
    if os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE(spec)


def _once_killer(spec):
    """Kills workers only while the flag file is absent."""
    flag = os.environ.get(_ONCE_ENV)
    if flag and os.getpid() != _PARENT and not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE(spec)


def _poison_killer(spec):
    """Kills any forked worker that runs the ``L1`` unit, and keeps the
    others busy for half a second on each other unit: whenever ``L1``
    comes back, the driver is idle and the live children are not."""
    if os.getpid() != _PARENT:
        if spec.config == "L1":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.5)
    return _REAL_EXECUTE(spec)


def _hanger(spec):
    """A forked worker stalls on the ``single`` unit for far longer than
    the patched lease (bounded, so that a pool without a lease fails
    the test instead of hanging the suite)."""
    if os.getpid() != _PARENT and spec.config == "single":
        time.sleep(20)
    return _REAL_EXECUTE(spec)


def _specs(configs=("single", "G0")):
    return [RunSpec.make("cg", c, size="test", verify=True) for c in configs]


def _serial(specs):
    return ExecutionPipeline(transport=SerialTransport()).run(specs)


def _pool_run(specs, jobs=2):
    """(pipeline, telemetry, merged runs) of one forked pool sweep."""
    tel = Telemetry()
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=jobs),
        telemetry=tel)
    return ctx, tel, ctx.run(specs)


def _deaths(ctx):
    return [e for e in ctx.events if "died holding unit" in e]


def _reaps(tel):
    return sum(r["event"] == "lease.reaped" for r in tel.records)


def _none_left(ctx):
    """Every child of the last dispatch has been reaped."""
    return (multiprocessing.active_children() == []
            and all(c.exitcode is not None
                    for c in ctx.transport._children.values()))


def test_persistent_crash_retries_once_then_degrades(monkeypatch):
    """Every forked worker dies on its first unit: each dead worker's
    unit runs once more, and with no worker left the sweep falls to
    the driver alone -- visibly, not silently."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    ctx, tel, runs = _pool_run(_specs(("single", "G0", "L1", "double")),
                               jobs=4)
    # the sweep still completed, in order, with real results
    assert [r.config for r in runs] == ["single", "G0", "L1", "double"]
    assert all(r.result is not None for r in runs)
    assert runs[0].cycles > runs[1].cycles        # G0 beats single
    deaths = _deaths(ctx)
    assert len(deaths) == 3                       # not silent...
    assert _reaps(tel) == len(deaths)
    pids = {int(e.split()[1]) for e in deaths}
    assert pids == set(ctx.transport._children)   # ...and named
    assert validate_events(tel.records) == []
    assert _none_left(ctx)


def test_degraded_results_match_serial(monkeypatch):
    """The units the driver ran after its workers died are bit-identical
    to a serial sweep."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    specs = _specs(("single", "G0", "L1", "double"))
    ctx, _, degraded = _pool_run(specs, jobs=4)
    assert _deaths(ctx)
    assert [r.cycles for r in degraded] == [r.cycles for r in _serial(specs)]


def test_a_dead_childs_waiting_units_go_back_to_the_queue(monkeypatch):
    """A child sent several units dies running the first: that one
    counts one death, the ones waiting in its pipe none, and the driver
    runs them all to the serial result."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    specs = _specs(("single", "G0", "L1", "double", "G1", "L0", "G2", "L2"))
    ctx, tel, runs = _pool_run(specs, jobs=2)
    assert len(_deaths(ctx)) == _reaps(tel) == 1
    assert not ctx.quarantined_units
    assert [r.cycles for r in runs] == [r.cycles for r in _serial(specs)]


def test_transient_crash_recovers_on_the_retry(monkeypatch, tmp_path):
    monkeypatch.setattr(ht, "execute_spec", _once_killer)
    monkeypatch.setenv(_ONCE_ENV, str(tmp_path / "crashed.flag"))
    ctx, tel, runs = _pool_run(_specs())
    assert [r.cycles for r in runs] == [r.cycles for r in _serial(_specs())]
    assert (tmp_path / "crashed.flag").exists()   # a worker did die
    assert len(_deaths(ctx)) == 1
    assert _reaps(tel) == 1


def test_killed_workers_unit_lands_inside_the_lease(monkeypatch):
    """A dead worker's unit runs again as soon as the driver sees the
    death, not after the lease expires."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    t0 = time.monotonic()
    ctx, _, runs = _pool_run(_specs())
    elapsed = time.monotonic() - t0
    assert all(r.result is not None for r in runs)
    assert _deaths(ctx)
    assert elapsed < ht.LEASE_S / 6


def test_a_unit_that_kills_its_executors_is_quarantined(monkeypatch):
    """A unit that kills every child it reaches goes to another child,
    never to the driver, while one lives: after ``POISON_AFTER`` deaths
    it settles as a loud placeholder and the rest of the sweep merges
    bit-identical to serial."""
    monkeypatch.setattr(ht, "execute_spec", _poison_killer)
    specs = _specs(("L1", "single", "G0", "double"))
    ctx, tel, runs = _pool_run(specs, jobs=ht.POISON_AFTER + 1)
    (poison,) = [u.key for u in SweepPlan(specs).distinct()
                 if u.spec.config == "L1"]
    assert runs[0].error_kind == "quarantined"
    assert ctx.quarantined_units == [poison]
    assert len(_deaths(ctx)) == ht.POISON_AFTER
    assert all(poison[:12] in e for e in _deaths(ctx))
    assert [r.cycles for r in runs[1:]] \
        == [r.cycles for r in _serial(specs[1:])]
    assert [r["unit"] for r in tel.records
            if r["event"] == "unit.quarantined"] == [poison]
    assert validate_events(tel.records) == []
    assert _none_left(ctx)


def test_a_hung_childs_unit_is_run_by_the_driver(monkeypatch):
    """A child that never answers loses its unit once it has held it
    past the lease: the idle driver runs the unit itself, the first
    result wins, and the hung child is killed with the dispatch."""
    monkeypatch.setattr(ht, "execute_spec", _hanger)
    monkeypatch.setattr(ht, "LEASE_S", 0.5)
    t0 = time.monotonic()
    ctx, tel, runs = _pool_run(_specs())
    assert time.monotonic() - t0 < 10
    assert [r.cycles for r in runs] == [r.cycles for r in _serial(_specs())]
    assert any("held past the lease" in e for e in ctx.events)
    assert not _deaths(ctx)
    assert sum(r["event"] == "unit.started" for r in tel.records) == 2
    assert validate_events(tel.records) == []
    assert _none_left(ctx)


def test_spec_errors_still_propagate_from_the_pool():
    """Only executor loss is recovered: an exception raised *by a spec*
    in a child (here: watchdog expiry of the unit sent first, while the
    driver runs a good one) propagates at once, and no worker outlives
    it."""
    from repro.runtime import SimDeadlockError
    specs = [RunSpec.make("cg", "single", size="test", verify=True,
                          timeout_cycles=300),
             RunSpec.make("cg", "G0", size="test", verify=True)]
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2))
    t0 = time.monotonic()
    with pytest.raises(SimDeadlockError):
        ctx.run(specs)
    assert time.monotonic() - t0 < ht.LEASE_S / 6
    assert _none_left(ctx)
    assert not _deaths(ctx)


def test_a_child_leaves_when_the_driver_end_closes():
    """A child answers each spec it is sent and exits once the driver's
    end of its pipe closes -- as when the driver dies -- because it
    keeps no copy of a driver end open itself."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=ht._serve, args=(theirs, [ours]), daemon=True)
    child.start()
    theirs.close()
    (spec,) = _specs(("single",))
    ours.send(spec)
    assert ours.recv().cycles == _serial([spec])[0].cycles
    ours.close()
    child.join(timeout=30)
    assert child.exitcode == 0
