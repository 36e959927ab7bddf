"""Harness hardening: a killed pool worker costs one bounded retry,
then the sweep degrades gracefully to serial -- completing with every
result, and never silently."""

import os
import signal

import pytest

import repro.harness.transport as ht
from repro.harness import ExecutionPipeline, PoolTransport, RunSpec

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="crash tests rely on the fork start method")

_PARENT = os.getpid()
_REAL_EXECUTE_INDEXED = ht._execute_indexed

#: Env var naming a flag file; when set, workers die only until the
#: flag exists (first-attempt crash, second attempt succeeds).
_ONCE_ENV = "REPRO_TEST_CRASH_ONCE"


def _always_killer(item):
    """Pool entry point that SIGKILLs every worker (module-level:
    closures don't pickle; fork resolves this by reference)."""
    if os.getpid() != _PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE_INDEXED(item)


def _once_killer(item):
    """Kills workers only while the flag file is absent."""
    flag = os.environ.get(_ONCE_ENV)
    if flag and os.getpid() != _PARENT and not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_EXECUTE_INDEXED(item)


def _specs():
    return [RunSpec.make("cg", c, size="test", verify=True)
            for c in ("single", "G0")]


def test_persistent_crash_retries_once_then_degrades(monkeypatch):
    monkeypatch.setattr(ht, "_execute_indexed", _always_killer)
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2, start_method="fork"))
    runs = ctx.run(_specs())
    # the sweep still completed, in order, with real results
    assert [r.config for r in runs] == ["single", "G0"]
    assert all(r.result is not None for r in runs)
    assert runs[0].cycles > runs[1].cycles       # G0 beats single
    # ...and the degradation is visible, not silent
    assert ctx.degraded
    assert any("retrying once" in e for e in ctx.events)
    assert any("serial" in e for e in ctx.events)
    assert len(ctx.events) >= 2


def test_transient_crash_recovers_on_the_retry(monkeypatch, tmp_path):
    monkeypatch.setattr(ht, "_execute_indexed", _once_killer)
    monkeypatch.setenv(_ONCE_ENV, str(tmp_path / "crashed.flag"))
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2, start_method="fork"))
    runs = ctx.run(_specs())
    assert all(r.result is not None for r in runs)
    assert not ctx.degraded                      # the retry succeeded
    assert any("retrying once" in e for e in ctx.events)


def test_degraded_results_match_serial(monkeypatch):
    monkeypatch.setattr(ht, "_execute_indexed", _always_killer)
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2, start_method="fork"))
    degraded = ctx.run(_specs())
    serial = ExecutionPipeline().run(_specs())
    assert [r.cycles for r in degraded] == [r.cycles for r in serial]


def test_spec_errors_still_propagate_from_the_pool():
    """Only worker loss is retried: an exception raised *by a spec*
    (here: watchdog expiry) propagates, and the pool is not degraded."""
    from repro.runtime import SimDeadlockError
    specs = [RunSpec.make("cg", c, size="test", verify=True,
                          timeout_cycles=300) for c in ("single", "G0")]
    ctx = ExecutionPipeline(
        transport=PoolTransport(jobs=2, start_method="fork"))
    with pytest.raises(SimDeadlockError):
        ctx.run(specs)
    assert not ctx.degraded
