"""Harness hardening: a killed pool worker's lease is released at once
and its unit runs again -- the sweep completes with every result,
bit-identical to serial, and every death is on the record."""

import multiprocessing
import os
import signal
import time

import pytest

import repro.harness.transport as ht
from repro.harness import ExecutionPipeline, PoolTransport, RunSpec
from repro.obs.telemetry import Telemetry

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


def _specs(configs=("single", "G0")):
    return [RunSpec.make("cg", c, size="test", verify=True) for c in configs]


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


def test_persistent_crash_retries_once_then_degrades(monkeypatch):
    """Every forked worker dies on its first unit: each dead worker's
    lease is released, its unit runs once more, and with no worker left
    the sweep falls to the driver alone -- visibly, not silently."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    ctx, tel, runs = _pool_run(_specs(("single", "G0", "L1", "double")),
                               jobs=4)
    # the sweep still completed, in order, with real results
    assert [r.config for r in runs] == ["single", "G0", "L1", "double"]
    assert all(r.result is not None for r in runs)
    assert runs[0].cycles > runs[1].cycles        # G0 beats single
    deaths = _deaths(ctx)
    assert deaths                                 # not silent...
    assert _reaps(tel) == len(deaths)
    pids = {int(e.split()[1]) for e in deaths}
    assert pids <= set(ctx.transport._children)   # ...and named


def test_degraded_results_match_serial(monkeypatch):
    """The units the driver ran after its workers died are bit-identical
    to a serial sweep."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    specs = _specs(("single", "G0", "L1", "double"))
    ctx, _, degraded = _pool_run(specs, jobs=4)
    serial = ExecutionPipeline().run(specs)
    assert _deaths(ctx)
    assert [r.cycles for r in degraded] == [r.cycles for r in serial]


def test_transient_crash_recovers_on_the_retry(monkeypatch, tmp_path):
    monkeypatch.setattr(ht, "execute_spec", _once_killer)
    monkeypatch.setenv(_ONCE_ENV, str(tmp_path / "crashed.flag"))
    ctx, tel, runs = _pool_run(_specs())
    serial = ExecutionPipeline().run(_specs())
    assert [r.cycles for r in runs] == [r.cycles for r in serial]
    assert (tmp_path / "crashed.flag").exists()   # a worker did die
    assert len(_deaths(ctx)) == 1
    assert _reaps(tel) == 1


def test_killed_workers_unit_lands_inside_the_lease(monkeypatch):
    """A dead worker's unit is released the next time the driver idles,
    not after the lease expires."""
    monkeypatch.setattr(ht, "execute_spec", _always_killer)
    t0 = time.monotonic()
    ctx, _, runs = _pool_run(_specs())
    elapsed = time.monotonic() - t0
    assert all(r.result is not None for r in runs)
    assert _deaths(ctx)
    assert elapsed < ctx.transport.lease_s / 6


def test_spec_errors_still_propagate_from_the_pool():
    """Only executor loss is recovered: an exception raised *by a spec*
    (here: watchdog expiry) propagates, and no worker outlives it."""
    from repro.runtime import SimDeadlockError
    specs = [RunSpec.make("cg", c, size="test", verify=True,
                          timeout_cycles=300) for c in ("single", "G0")]
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2))
    with pytest.raises(SimDeadlockError):
        ctx.run(specs)
    assert multiprocessing.active_children() == []
    assert not _deaths(ctx)
