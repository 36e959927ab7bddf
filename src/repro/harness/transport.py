"""Transports: how a batch of work units is dispatched (stage two).

A :class:`Transport` takes the distinct :class:`~repro.harness.jobs.
WorkUnit` shards of a sweep and executes them, reporting each finished
``(unit, BenchRun)`` back to the driver via a callback *in the driver
process*, in whatever order units complete.  Ordering is explicitly
not a transport concern -- the :class:`~repro.harness.jobs.SweepPlan`
merge restores submission order -- which is precisely what makes the
dispatch mechanism pluggable:

* :class:`SerialTransport` -- units in order, in process;
* :class:`PoolTransport` -- a hardened local ``multiprocessing`` pool:
  a killed or crashed worker costs bounded retries on fresh pools
  (seeded-jitter backoff between passes), a unit that breaks the pool
  :data:`POISON_AFTER` times is **quarantined** (a loud placeholder
  result, never an infinite retry), and the remainder degrades
  (loudly, never silently) to in-process serial execution;
* :class:`DirQueueTransport` -- units leased through a shared **spool
  directory**: job files under ``units/``, exclusive-create claim
  files under ``claims/``, atomically-published results under
  ``results/``.  Any number of independent worker processes
  (``repro worker DIR`` -- see :func:`run_worker`) may attach to the
  same spool, on this host or any host sharing the filesystem; the
  driver itself works inline, so a sweep completes even with zero
  external workers.  Stalled leases (a worker SIGKILLed mid-unit) are
  reaped under the shared heartbeat-aware
  :func:`~repro.obs.telemetry.claim_is_stalled` predicate -- a live
  worker grinding a long unit keeps its lease; a dead one loses it --
  and the unit is re-executed after a seeded-jitter backoff.
  Determinism makes duplicated execution harmless (last atomic
  publish wins with identical content).

Crash-consistency (the harness-hazard hardening, proven by
``repro chaos --harness``):

* every publish goes through :func:`repro.harness.integrity.
  atomic_pickle` (sha256 frame, same-directory temp + ``os.replace``)
  and every load verifies -- a corrupt spec or result is quarantined
  into ``corrupt/`` and treated as a miss, never parsed;
* the driver delivers its own results to ``on_result`` directly from
  memory, so a failing publish (ENOSPC/EIO) degrades durability, not
  correctness -- the sweep still completes and merges;
* ``*.tmp`` litter from a writer SIGKILLed between temp write and
  rename is garbage-collected once older than the lease (readers
  never match it in the first place);
* a unit whose execution *process* dies :data:`POISON_AFTER` times
  (tracked in an ``attempts/`` ledger) is quarantined with a
  placeholder result instead of wedging the fleet;
* what happens to a leased unit is written once
  (:meth:`_Spool.settle`): the driver and :func:`run_worker` differ
  only in how they come by a lease and what they do with the outcome;
* :func:`run_worker` drains gracefully on SIGTERM: the in-flight unit
  finishes, publishes, and releases its claim before exit.

The spool's on-disk shape is deliberately the shape a multi-host work
queue needs (karambaci's queue-prefix/worker-prefix separation and
stalled-thread reaping are the exemplar): claim = lease, result =
completion record, and the ``results/`` directory doubles as a crash
journal -- re-running a driver over a half-finished spool harvests
completed units without re-executing them.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import signal
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.telemetry import (NULL_TELEMETRY, Telemetry, claim_is_stalled,
                             heartbeat_age, telemetry_area)
from ..runtime import SimDeadlockError
from . import hazards
from .integrity import atomic_pickle, load_verified
from .integrity import gc_tmp as _gc_tmp_dir
from .jobs import WorkUnit, execute_spec, quarantined_run, unit_key

__all__ = ["Transport", "SerialTransport", "PoolTransport",
           "DirQueueTransport", "run_worker"]

_LOG = logging.getLogger("repro.harness.transport")

#: Driver callback: one finished unit, invoked in the driver process.
OnResult = Callable[[WorkUnit, object], None]

#: Dead executions (spool ledger bytes, broken pool passes) after which
#: a unit is quarantined as poison rather than tried again.
POISON_AFTER = 3

#: First-retry delay of the seeded-jitter backoff (pool respawn, reaped
#: lease); doubles per retry, see :func:`~repro.harness.hazards.backoff_s`.
BACKOFF_BASE = 0.05


def _telemetered(tel, key: str, spec, fn):
    """Execute one unit under telemetry: ``unit.started`` -> run ``fn``
    -> terminal (``unit.finished``/``unit.failed``), recording the
    execution wall time and surfacing watchdog deadlocks as typed
    ``watchdog.deadlock`` events.  Captured failures (``BenchRun.error``
    set) terminate as ``unit.failed`` too -- the event log explains
    every outcome, not only raised ones.  Exceptions propagate after
    the terminal event is written."""
    tel.emit("unit.started", unit=key, spec=spec)
    t0 = time.perf_counter()
    try:
        run = fn()
    except BaseException as e:
        dt = time.perf_counter() - t0
        tel.observe("unit.exec_s", dt)
        if isinstance(e, SimDeadlockError):
            tel.emit("watchdog.deadlock", unit=key, spec=spec,
                     summary=e.summary)
        tel.emit("unit.failed", unit=key, spec=spec,
                 wall_s=round(dt, 6),
                 error=f"{type(e).__name__}: {e}"[:300],
                 error_kind=("hang" if isinstance(e, SimDeadlockError)
                             else "crash"))
        raise
    dt = time.perf_counter() - t0
    tel.observe("unit.exec_s", dt)
    _emit_terminal(tel, key, spec, run, dt)
    return run


def _emit_terminal(tel, key: str, spec, run, wall_s) -> None:
    """The terminal event for a finished BenchRun (shared by the
    inline execution path and pool/spool result arrival, where the
    wall time is the worker-recorded ``run.timing['total_s']``)."""
    error = getattr(run, "error", None)
    fields = {}
    if wall_s is not None:
        fields["wall_s"] = round(wall_s, 6)
    if error is not None:
        kind = getattr(run, "error_kind", None)
        if kind == "hang":
            tel.emit("watchdog.deadlock", unit=key, spec=spec,
                     summary=str(error)[:300])
        tel.emit("unit.failed", unit=key, spec=spec,
                 error=str(error)[:300], error_kind=kind, **fields)
    else:
        cycles = getattr(run, "cycles", None)
        if isinstance(cycles, (int, float)) and cycles == cycles:
            fields["cycles"] = cycles
        tel.emit("unit.finished", unit=key, spec=spec, **fields)


def _quarantined(tel, key: str, spec, attempts: int):
    """A poison unit's loud placeholder result, announced on ``tel``
    (``unit.quarantined`` event + count) -- pool and spool alike."""
    tel.emit("unit.quarantined", unit=key, spec=spec, attempts=attempts)
    tel.count("unit.quarantined")
    return quarantined_run(spec, attempts)


class Transport:
    """How distinct work units execute (see module docstring).

    Subclasses implement :meth:`_dispatch`, which :meth:`run` wraps,
    calling ``on_result(unit, run)`` once per unit as results become
    available (any order).  A spec that *raises* (verification failure
    without ``capture_errors``, watchdog expiry) propagates out of
    :meth:`run` on every transport; only worker-process loss is
    retried/degraded -- and a unit whose process dies persistently is
    quarantined (``error_kind == "quarantined"``), never retried forever.
    """

    name = "transport"

    def __init__(self):
        #: Human-readable record of retries/degradation (last run()).
        self.events: List[str] = []
        #: True when any unit of the last run() fell back to serial.
        self.degraded = False
        #: Telemetry session the driver records through (the pipeline
        #: attaches a live one; default is the zero-cost null session).
        self.telemetry = NULL_TELEMETRY

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
        self.events = []
        self.degraded = False
        self._dispatch(list(units), on_result)

    def _dispatch(self, units: List[WorkUnit], on_result: OnResult) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        """One-word-ish label for sweep summary lines."""
        return self.name

    def _note(self, msg: str) -> None:
        self.events.append(msg)
        _LOG.warning(msg)

    def _run_inline(self, units: Sequence[WorkUnit],
                    on_result: OnResult) -> None:
        """Execute ``units`` in order in the driver process."""
        tel = self.telemetry
        t0 = time.perf_counter()
        for unit in units:
            # Queue wait for in-process execution is time spent behind
            # earlier units of the same dispatch.
            tel.observe("unit.queue_wait_s", time.perf_counter() - t0)
            run = _telemetered(tel, unit.key, unit.spec,
                               lambda spec=unit.spec: execute_spec(spec))
            on_result(unit, run)

    def _deliver(self, unit: WorkUnit, run, on_result: OnResult) -> None:
        """Hand ``run`` to the driver -- a poison placeholder, loudly."""
        if getattr(run, "error_kind", None) == "quarantined":
            self._note(f"QUARANTINED {unit.key[:12]} ({unit.spec}): "
                       f"{run.error}")
        on_result(unit, run)


class SerialTransport(Transport):
    """Execute units one after another in the driver process."""

    name = "serial"
    _dispatch = Transport._run_inline


# -- local process pool ------------------------------------------------------

def _run_spec(spec):
    """Worker-side execution seam (module-level for picklability; the
    crash tests monkeypatch this to kill workers mid-unit).  Also a
    hazard kill boundary: an armed worker-side plan may SIGKILL or
    SIGTERM the process here, *before* execution starts."""
    plan = hazards.current()
    if plan is not None:
        plan.boundary("pool.unit")
    return execute_spec(spec)


def _execute_indexed(item: Tuple[int, object]) -> Tuple[int, object]:
    """Pool worker entry point."""
    index, spec = item
    return index, _run_spec(spec)


class PoolTransport(Transport):
    """Fan units out over a process pool, hardened against worker loss.

    ``jobs`` defaults to the host's CPU count.  Batches of one unit
    (or ``jobs=1``) run inline: a pool would only add fork overhead.

    Crash handling: a killed or crashed worker (``BrokenProcessPool``)
    costs bounded retries of the unfinished units on fresh pools, with
    seeded-jitter backoff between passes so a respawning fleet doesn't
    stampede.  A unit still unfinished after :data:`POISON_AFTER`
    broken passes is *quarantined* -- it gets a loud placeholder
    result (``error_kind == "quarantined"``) instead of being handed
    to the serial fallback, where a poison spec would take the driver
    down with it.  The rest degrades gracefully to in-process serial
    execution.  Neither path is silent: both are logged and recorded
    on :attr:`events` / :attr:`degraded` for callers (the CLI turns
    them into non-zero exits).
    """

    name = "pool"

    #: Pool passes before degrading to serial (initial try + 1 retry).
    max_pool_attempts = 2

    def __init__(self, jobs: Optional[int] = None,
                 start_method: Optional[str] = None,
                 max_pool_attempts: Optional[int] = None):
        super().__init__()
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self.start_method = start_method
        if max_pool_attempts is not None:
            if max_pool_attempts < 1:
                raise ValueError("max_pool_attempts must be >= 1")
            self.max_pool_attempts = max_pool_attempts

    def describe(self) -> str:
        return f"pool(jobs={self.jobs})"

    def _dispatch(self, units: List[WorkUnit], on_result: OnResult) -> None:
        tel = self.telemetry
        if min(self.jobs, len(units)) <= 1:
            self._run_inline(units, on_result)
            return
        done = [False] * len(units)
        pending = list(range(len(units)))
        #: Per unit index, the pool passes that lost it: poison suspects.
        suspects: Dict[int, int] = {}
        for attempt in range(self.max_pool_attempts):
            if not pending:
                break
            if attempt > 0:
                # Seeded-jitter backoff before respawning the pool, so
                # a crash loop doesn't hot-spin fork/exec.
                time.sleep(hazards.backoff_s("pool-pass", attempt,
                                             BACKOFF_BASE))
            pending = self._pool_pass(units, done, pending, attempt,
                                      on_result)
            for i in pending:
                suspects[i] = suspects.get(i, 0) + 1
        for i in [i for i in pending if suspects[i] >= POISON_AFTER]:
            pending.remove(i)
            self._deliver(units[i], _quarantined(
                tel, units[i].key, units[i].spec, suspects[i]), on_result)
        if pending:
            self.degraded = True
            tel.emit("pool.degraded", n_pending=len(pending),
                     n_units=len(units))
            tel.count("pool.degraded")
            self._note(f"degrading to serial execution for "
                       f"{len(pending)} of {len(units)} unit(s)")
            self._run_inline([units[i] for i in pending], on_result)

    def _pool_pass(self, units: List[WorkUnit], done: List[bool],
                   pending: List[int], attempt: int,
                   on_result: OnResult) -> List[int]:
        """One pool attempt over ``pending``; returns what's still
        unfinished (non-empty only after a worker crash)."""
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool
        ctx = mp.get_context(self.start_method)
        tel = self.telemetry
        broken = False
        submitted = time.perf_counter()
        try:
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(pending)),
                    mp_context=ctx) as pool:
                futures = {
                    pool.submit(_execute_indexed, (i, units[i].spec)): i
                    for i in pending}
                for i in pending:
                    # Pool workers are uninstrumented; claimed-at-
                    # submit plus the terminal at arrival brackets each
                    # unit's pool residence on the driver's track.
                    tel.emit("unit.claimed", unit=units[i].key,
                             spec=units[i].spec, attempt=attempt + 1)
                    if attempt > 0:
                        tel.emit("unit.retried", unit=units[i].key,
                                 spec=units[i].spec, attempt=attempt + 1)
                        tel.count("unit.retries")
                for fut in as_completed(futures):
                    try:
                        index, run = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    done[index] = True
                    timing = getattr(run, "timing", None) or {}
                    wall = timing.get("total_s")
                    if wall is not None:
                        tel.observe("unit.exec_s", wall)
                    tel.observe("unit.queue_wait_s",
                                max(0.0, time.perf_counter() - submitted
                                    - (wall or 0.0)))
                    _emit_terminal(tel, units[index].key,
                                   units[index].spec, run, wall)
                    on_result(units[index], run)
        except BrokenProcessPool:
            broken = True
        remaining = [i for i in pending if not done[i]]
        if remaining:
            what = ("retrying once on a fresh pool"
                    if attempt + 1 < self.max_pool_attempts
                    else "falling back to serial execution")
            why = ("pool worker crashed" if broken
                   else "pool lost results")
            self._note(f"{why}: {len(remaining)} of {len(units)} unit(s) "
                       f"unfinished after attempt {attempt + 1}; {what}")
        return remaining


# -- shared spool directory --------------------------------------------------

class _UnitFailure:
    """A spec-raised exception, published so the driver re-raises it.

    Spool workers must not die on a failing unit (they would retry it
    forever across the fleet); they publish the failure as the unit's
    result and move on, and the driver raises it at harvest -- the
    same "spec errors propagate" contract the other transports keep.
    The process that caught the exception gets the same object back
    from :meth:`unwrap`, traceback and all; only a copy is pickled.
    """

    def __init__(self, exc: BaseException):
        self._exc = exc
        try:
            self._pickled = pickle.dumps(exc)
        except Exception:
            self._pickled = None
        self._repr = f"{type(exc).__name__}: {exc}"

    def __getstate__(self):
        return {"_pickled": self._pickled, "_repr": self._repr}

    def unwrap(self) -> BaseException:
        if "_exc" in self.__dict__:
            return self._exc
        if self._pickled is not None:
            try:
                return pickle.loads(self._pickled)
            except Exception:
                pass
        return RuntimeError(f"spool worker failure: {self._repr}")


def _listed(directory, suffix: str) -> Set[str]:
    """Keys of the ``<key><suffix>`` files in ``directory``, if any."""
    try:
        with os.scandir(directory) as entries:
            return {e.name[:-len(suffix)] for e in entries
                    if e.name.endswith(suffix)}
    except OSError:
        return set()


class _Spool:
    """The on-disk protocol shared by driver and workers.

    ``units/<key>.spec``    pickled RunSpec (the job description);
    ``claims/<key>.claim``  lease: JSON ``{pid, time, worker}``,
                            created with O_CREAT|O_EXCL so exactly one
                            process wins a unit;
    ``results/<key>.run``   pickled BenchRun (or :class:`_UnitFailure`),
                            atomically published;
    ``attempts/<key>.n``    one byte appended per claim that reached
                            execution -- the poison-unit ledger (file
                            size = attempts survived so far);
    ``corrupt/``            quarantined files that failed integrity
                            verification (kept as evidence).

    All payload files are integrity-framed; loads verify and treat a
    corrupt file as a quarantined miss.  What is published is asked of
    the directory (:meth:`published_keys`), not of each pending unit; a
    listing keeps ``<key>.run`` names, so a ``*.tmp`` shows once renamed.

    What happens to a unit between winning its lease and giving it up
    is :meth:`settle`; what a process does when every unit is leased
    elsewhere is :meth:`idle`.  Driver and worker call both.
    """

    def __init__(self, root, telemetry=NULL_TELEMETRY):
        self.root = Path(root)
        self.units = self.root / "units"
        self.claims = self.root / "claims"
        self.results = self.root / "results"
        self.corrupt = self.root / "corrupt"
        self.attempts = self.root / "attempts"
        #: Session integrity problems are reported through (attached
        #: by the transport / worker that owns this spool handle).
        self.telemetry = telemetry

    def ensure(self) -> None:
        for d in (self.units, self.claims, self.results):
            d.mkdir(parents=True, exist_ok=True)

    # -- units ---------------------------------------------------------------

    def enqueue(self, key: str, spec) -> bool:
        """Publish a job file unless it (or its result) already
        exists; True if this call created it.  May raise ``OSError``
        (disk full) -- callers treat that as a non-fatal durability
        loss, since the driver can still execute the unit inline."""
        path = self.unit_path(key)
        if self.has_result(key) or os.path.isfile(path):
            return False
        atomic_pickle(spec, path, what="unit")
        return True

    def unit_path(self, key: str) -> str:
        return f"{self.units}{os.sep}{key}.spec"

    def pending_keys(self) -> List[str]:
        """Enqueued units without a published result, sorted for a
        deterministic claim scan order."""
        return sorted(_listed(self.units, ".spec") - self.published_keys())

    def load_spec(self, key: str):
        return load_verified(self.unit_path(key),
                             quarantine_to=self.corrupt,
                             telemetry=self.telemetry, what="unit",
                             unit=key)

    # -- claims (leases) -----------------------------------------------------

    def claim_path(self, key: str) -> Path:
        return self.claims / f"{key}.claim"

    def try_claim(self, key: str, worker: Optional[str] = None) -> bool:
        """Atomically lease a unit (O_CREAT|O_EXCL claim file).

        ``worker`` names the claiming telemetry session so lease
        reaping can consult the owner's heartbeat before stealing.
        """
        try:
            fd = os.open(self.claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except OSError:                     # FileExistsError: lost the race
            return False
        with os.fdopen(fd, "w") as fh:
            json.dump({"pid": os.getpid(), "time": time.time(),
                       "worker": worker}, fh)
        return True

    def release(self, key: str) -> None:
        try:
            self.claim_path(key).unlink()
        except OSError:
            pass

    def claim_owner(self, key: str) -> Optional[str]:
        """The telemetry worker id recorded in a claim, if any."""
        try:
            body = json.loads(self.claim_path(key).read_text())
        except (OSError, ValueError):
            return None
        return body.get("worker") if isinstance(body, dict) else None

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since the unit was claimed (None = unclaimed).

        A hazard site: an armed plan may skew this reading (the
        reaper's clock drifts), which must only ever cause a harmless
        duplicate execution, never a lost or wrong result.
        """
        try:
            age = max(0.0, time.time()
                      - self.claim_path(key).stat().st_mtime)
        except OSError:
            return None
        plan = hazards.current()
        if plan is not None:
            age = plan.skew_claim_age(age)
        return age

    def reap_stale(self, keys, lease_s: float,
                   heartbeats=None) -> List[str]:
        """Drop stalled claims so their units can be re-won.

        Stalled is the shared heartbeat-aware predicate
        (:func:`~repro.obs.telemetry.claim_is_stalled`): a claim past
        the lease whose owner still heartbeats is a live straggler and
        keeps its lease; one whose owner is silent (or anonymous) is
        reaped.  The dead worker's half-run is simply abandoned; if it
        was merely slow and publishes later, the atomic result replace
        is idempotent (deterministic content).
        """
        reaped = []
        for key in keys:
            age = self.claim_age(key)
            if age is None:
                continue
            hb_age = heartbeat_age(heartbeats, self.claim_owner(key))
            if claim_is_stalled(age, hb_age, lease_s):
                self.release(key)
                reaped.append(key)
        return reaped

    # -- attempts (poison-unit ledger) ---------------------------------------

    def attempt_path(self, key: str) -> Path:
        return self.attempts / f"{key}.n"

    def record_attempt(self, key: str) -> int:
        """Record that an execution attempt is starting (one appended
        byte; crash-safe across SIGKILL); returns total attempts.  The
        ledger gets a claim's mode: whoever may claim the unit on a
        shared spool must be able to count its own dead executions."""
        try:
            self.attempts.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.attempt_path(key),
                         os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o666)
            try:
                os.write(fd, b".")
            finally:
                os.close(fd)
        except OSError:
            pass
        return self.attempt_count(key)

    def attempt_count(self, key: str) -> int:
        """Execution attempts recorded for this unit (ledger size)."""
        try:
            return self.attempt_path(key).stat().st_size
        except OSError:
            return 0

    def clear_attempts(self, key: str) -> None:
        """Forget the ledger after a successful publish -- only
        *consecutive* dead attempts count toward quarantine."""
        try:
            self.attempt_path(key).unlink()
        except OSError:
            pass

    # -- results -------------------------------------------------------------

    def result_path(self, key: str) -> str:
        return f"{self.results}{os.sep}{key}.run"

    def has_result(self, key: str) -> bool:
        return os.path.isfile(self.result_path(key))

    def published_keys(self) -> Set[str]:
        """Keys with a published result (one listing of ``results/``)."""
        return _listed(self.results, ".run")

    def publish(self, key: str, payload) -> None:
        atomic_pickle(payload, self.result_path(key), what="result")

    def load_result(self, key: str):
        return load_verified(self.result_path(key),
                             quarantine_to=self.corrupt,
                             telemetry=self.telemetry, what="result",
                             unit=key)

    # -- hygiene -------------------------------------------------------------

    def gc_tmp(self, older_than_s: float = 0.0) -> List[Path]:
        """Collect ``*.tmp`` litter from writers killed between temp
        write and rename, across every payload directory."""
        removed: List[Path] = []
        for d in (self.units, self.claims, self.results, self.attempts):
            removed.extend(_gc_tmp_dir(d, older_than_s))
        return removed


    # -- a leased unit, start to finish ---------------------------------------

    def settle(self, key: str, spec, execute) -> Tuple[object, bool]:
        """Settle a unit whose lease the caller holds -- the one path
        from claim to release.  Returns ``(payload, published)``.

        A ledger at :data:`POISON_AFTER` yields the quarantine
        placeholder, unexecuted.  Otherwise: one ledger byte,
        ``unit.claimed``, the queue wait (spec file age), ``execute()``
        under :func:`_telemetered`; what it raises is the payload, as a
        :class:`_UnitFailure`.  A publish that fails (ENOSPC/EIO) is
        counted and returned, never raised: what a lost spool copy
        means is the caller's call.  Only a real result that reached
        the disk clears the ledger (*consecutive* dead executions are
        what counts); the lease is released whatever happened.
        """
        tel = self.telemetry
        attempts = self.attempt_count(key)
        if attempts >= POISON_AFTER:
            payload = _quarantined(tel, key, spec, attempts)
        else:
            self.record_attempt(key)
            tel.emit("unit.claimed", unit=key, spec=spec)
            try:
                wait = time.time() - os.stat(self.unit_path(key)).st_mtime
                tel.observe("unit.queue_wait_s", max(0.0, wait))
            except OSError:
                pass
            try:
                payload = _telemetered(tel, key, spec, execute)
            except Exception as e:          # noqa: BLE001 - republished
                payload = _UnitFailure(e)
        try:
            self.publish(key, payload)
            published = True
        except OSError as e:
            published = False
            tel.count("publish.failed")
            _LOG.warning("publish failed for unit %s (%s); lease released "
                         "without a spool copy", key[:12], e)
        if (published and attempts < POISON_AFTER
                and not isinstance(payload, _UnitFailure)):
            self.clear_attempts(key)
        self.release(key)
        return payload, published

    def idle(self, keys, lease_s: float) -> List[str]:
        """Every unit in ``keys`` is leased elsewhere: reap the stalled
        leases (owners' heartbeats are in this spool's telemetry
        area), a ``lease.reaped`` event and count for each, or --
        nothing to reap -- collect tmp litter.  Returns the reaped."""
        reaped = self.reap_stale(
            keys, lease_s, heartbeats=telemetry_area(self.root) / "heartbeats")
        for key in reaped:
            self.telemetry.emit("lease.reaped", unit=key, lease_s=lease_s)
            self.telemetry.count("lease.reaped")
        if not reaped:
            self.gc_tmp(older_than_s=lease_s)
        return reaped


class DirQueueTransport(Transport):
    """Lease units through a shared spool directory (see module
    docstring).  The driver enqueues every unit, then alternates
    between harvesting results published by attached workers and
    claiming+executing units itself, so progress never depends on
    external workers existing.

    ``lease_s`` bounds how long a crashed worker can pin a unit; set
    it above the longest expected single-unit wall time.  Reaping is
    heartbeat-aware: a merely-slow worker that still heartbeats keeps
    its lease past ``lease_s``; one with a stale (or no) heartbeat is
    reaped, and the reaped unit is retried after a seeded-jitter
    exponential backoff rather than instantly (a crash-looping unit
    must not hot-spin the fleet).  A unit whose attempts ledger shows
    :data:`POISON_AFTER` dead executions is quarantined with a
    placeholder result.
    """

    name = "spool"

    def __init__(self, root, lease_s: float = 60.0, poll_s: float = 0.05):
        super().__init__()
        self.spool = _Spool(root)
        self.lease_s = lease_s
        self.poll_s = poll_s

    def describe(self) -> str:
        return f"spool({self.spool.root})"

    def _dispatch(self, units: List[WorkUnit], on_result: OnResult) -> None:
        spool, tel = self.spool, self.telemetry
        spool.ensure()
        spool.telemetry = tel
        litter = spool.gc_tmp(older_than_s=self.lease_s)
        if litter:
            self._note(f"collected {len(litter)} leftover tmp file(s) "
                       f"from a dead writer")
        pending = {u.key: u for u in units}
        n_total = len(pending)
        #: Reaped units: how often, and the earliest next claim.
        reaps: Dict[str, int] = {}
        not_before: Dict[str, float] = {}
        for u in units:
            try:
                spool.enqueue(u.key, u.spec)
            except OSError as e:
                tel.count("publish.failed")
                self._note(f"enqueue failed for unit {u.key[:12]} ({e}); "
                           f"driver will execute it inline")
        while pending:
            tel.heartbeat(state="driving", done=n_total - len(pending))
            # Harvest what attached workers published since last look.
            harvested = False
            published = spool.published_keys()
            for key in [k for k in pending if k in published]:
                payload = spool.load_result(key)
                if payload is None:
                    continue
                harvested = True
                unit = pending.pop(key)
                if isinstance(payload, _UnitFailure):
                    raise payload.unwrap()
                tel.count("unit.harvested")
                self._deliver(unit, payload, on_result)
            if not pending or harvested:
                continue
            # Work inline: lease the first unit that nobody holds and
            # that is not backing off after a reap.
            plan, now = hazards.current(), time.monotonic()
            for key, unit in pending.items():
                if now < not_before.get(key, 0.0):
                    continue
                if plan is not None:
                    plan.maybe_stale_claim(spool, key)
                if (spool.claim_age(key) is None
                        and spool.try_claim(key, worker=tel.worker)):
                    break
            else:
                # None (all leased out or backing off): reap the
                # stalled and back their units off, or wait briefly.
                reaped = spool.idle(pending, self.lease_s)
                for key in reaped:
                    n = reaps[key] = reaps.get(key, 0) + 1
                    delay = hazards.backoff_s(key, n, BACKOFF_BASE)
                    not_before[key] = time.monotonic() + delay
                    self._note(f"reaped stalled lease on unit "
                               f"{key[:12]} (> {self.lease_s:g}s); retry "
                               f"backoff {delay:.3f}s")
                if not reaped:
                    time.sleep(self.poll_s)
                continue
            # Settle it and deliver from memory: a failed publish costs
            # attached workers the spool copy, never the driver a result.
            del pending[key]
            payload, published = spool.settle(
                key, unit.spec, lambda: execute_spec(unit.spec))
            if not published:
                self._note(f"publish failed for unit {key[:12]}; result "
                           f"kept in memory, spool copy skipped")
            if isinstance(payload, _UnitFailure):
                # Published so attached workers stop re-trying the
                # unit; surfaced exactly like the other transports.
                raise payload.unwrap()
            self._deliver(unit, payload, on_result)
        tel.heartbeat(state="idle", done=n_total, force=True)


_WORKER_LOG = logging.getLogger("repro.worker")


def run_worker(root, poll_s: float = 0.1, lease_s: float = 60.0,
               max_units: Optional[int] = None, drain: bool = True,
               out=None) -> int:
    """Worker loop for ``repro worker DIR``: lease, execute, publish.

    Attaches to the spool at ``root`` and keeps winning claimable
    units until the spool is drained (``drain=True``, the default --
    the process exits 0 when no executable unit remains) or
    ``max_units`` have been executed.  A unit whose spec no longer
    hashes to its enqueued key (the worker runs different code or
    hot-path tiers than the driver) is *skipped*, never executed: a
    result the driver's key scheme can't trust must not be published.

    Robustness contract:

    * **SIGTERM drains**: the handler only flips a flag (no I/O, no
      telemetry from signal context) that the loop checks at every
      unit boundary, so the in-flight unit finishes, publishes, and
      releases its claim before the loop exits (``worker.stopped``
      carries ``reason="sigterm"``); only SIGKILL abandons work, and
      that is exactly what lease reaping recovers.
    * Lease reaping is heartbeat-aware (shared
      :func:`~repro.obs.telemetry.claim_is_stalled` predicate) and a
      publish that fails (disk full) releases the claim so another
      process retries -- the worker never wedges on a bad disk.
    * A unit whose attempts ledger shows :data:`POISON_AFTER` dead
      executions is quarantined (placeholder result published) rather
      than executed again.
    * Failing specs are published as failure records for the driver to
      re-raise; the worker itself keeps going.

    Returns the number of units this worker executed.

    Reporting is structured: per-unit console lines go through the
    ``repro.worker`` logger (mirrored to ``out`` when given, for the
    CLI and tests), and the full lifecycle -- attach, claims, skips,
    per-unit start/terminal, heartbeats, detach -- is recorded in the
    spool's shared ``telemetry/`` area, where ``repro status DIR``
    and the event-log validator read it.
    """
    log = _WORKER_LOG
    handler = None
    old_propagate = log.propagate
    if out is not None:
        # Mirror console lines to the caller's stream (the CLI's
        # stdout) without double-printing through root handlers.
        handler = logging.StreamHandler(out)
        handler.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(handler)
        log.propagate = False
    if log.level == logging.NOTSET and log.getEffectiveLevel() > logging.INFO:
        # Default to per-unit lines unless verbosity was configured
        # explicitly (repro worker --quiet sets this logger ERROR).
        log.setLevel(logging.INFO)

    tel = Telemetry(root=telemetry_area(root), role="worker")
    spool = _Spool(root, telemetry=tel)
    spool.ensure()
    plan = hazards.current(telemetry=tel)
    litter = spool.gc_tmp(older_than_s=lease_s)
    if litter:
        log.info("worker: collected %d leftover tmp file(s)", len(litter))
    tel.emit("worker.started", spool=str(spool.root))
    tel.heartbeat(state="idle", done=0, force=True)
    t_attach = time.perf_counter()
    executed = 0
    skipped = set()
    stop = []                               # SIGTERM appends: drain, exit
    try:
        old_term = signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    except ValueError:                      # not the main thread: no handler
        old_term = None
    try:
        while (max_units is None or executed < max_units) and not stop:
            if plan is not None:
                plan.boundary("worker.scan")
            pending = [k for k in spool.pending_keys() if k not in skipped]
            if not pending:
                if drain:
                    break
                tel.heartbeat(state="idle", done=executed)
                time.sleep(poll_s)
                continue
            progressed = False
            for key in pending:
                if (max_units is not None and executed >= max_units) or stop:
                    break
                if (spool.claim_age(key) is not None
                        or not spool.try_claim(key, worker=tel.worker)):
                    continue
                spec = spool.load_spec(key)
                if spec is None or unit_key(spec) != key:
                    spool.release(key)
                    skipped.add(key)
                    tel.emit("unit.skipped", unit=key,
                             reason="stale or foreign key")
                    log.warning("worker: skipping unit %s (stale or "
                                "foreign key -- code/tier mismatch?)",
                                key[:12])
                    continue

                def execute():
                    tel.heartbeat(state="running", unit=key, done=executed,
                                  force=True)
                    if plan is not None:
                        plan.boundary("worker.claimed")
                    return _run_spec(spec)

                t0 = time.perf_counter()
                payload, published = spool.settle(key, spec, execute)
                progressed = progressed or published
                if not published:
                    # Disk full / I/O error: whoever claims the unit
                    # next re-executes it and records its own attempt.
                    log.warning("worker: publish failed for unit %s; "
                                "claim released for retry", key[:12])
                elif getattr(payload, "error_kind", None) == "quarantined":
                    log.warning("worker: QUARANTINED %s (%s)", key[:12],
                                payload.error)
                else:
                    executed += 1
                    tel.heartbeat(state="idle", done=executed)
                    status = ("FAILED" if isinstance(payload, _UnitFailure)
                              else f"{payload.cycles:,.0f} cycles")
                    log.info("worker: %s -> %s [%.2fs] (%s)", spec, status,
                             time.perf_counter() - t0, key[:12])
            if not progressed and not stop:
                # Nothing published this scan (all leased elsewhere,
                # or the disk refuses writes): reap stalled claims, or
                # wait for publishes and lease expiry.
                reaped = spool.idle(pending, lease_s)
                for key in reaped:
                    log.warning("worker: reaped stalled lease on unit "
                                "%s (> %gs)", key[:12], lease_s)
                if not reaped:
                    tel.heartbeat(state="waiting", done=executed)
                    time.sleep(poll_s)
        attached_s = time.perf_counter() - t_attach
        if attached_s > 0:
            tel.gauge("worker.units_per_s", executed / attached_s)
        tel.emit("worker.stopped", executed=executed,
                 skipped=len(skipped), attached_s=round(attached_s, 6),
                 reason="sigterm" if stop else "done")
        if stop:
            log.info("worker: SIGTERM received -- drained in-flight "
                     "unit, %d unit(s) executed, exiting cleanly",
                     executed)
        elif skipped:
            log.info("worker: done, %d unit(s) executed, %d skipped "
                     "(key mismatch)", executed, len(skipped))
        else:
            log.info("worker: done, %d unit(s) executed", executed)
    finally:
        if old_term is not None:
            signal.signal(signal.SIGTERM, old_term)
        tel.close()
        if handler is not None:
            log.removeHandler(handler)
            log.propagate = old_propagate
    return executed
