"""Transports: how a batch of work units is dispatched (stage two).

A :class:`Transport` takes the distinct :class:`~repro.harness.jobs.
WorkUnit` shards of a sweep and executes them, reporting each finished
``(unit, BenchRun)`` back to the driver via a callback *in the driver
process*, in whatever order units complete.  Ordering is explicitly
not a transport concern -- the :class:`~repro.harness.jobs.SweepPlan`
merge restores submission order -- which is precisely what makes the
dispatch mechanism pluggable:

* :class:`SerialTransport` -- units in order, in process;
* :class:`PoolTransport` -- the spool below, made private to one
  dispatch and worked by the driver plus ``jobs - 1`` forked
  :func:`run_worker` children: one failure model for every parallel
  run (a dead child's lease is released at once and the unit runs
  again; a unit that keeps killing its executors is quarantined);
* :class:`DirQueueTransport` -- units leased through a **spool
  directory**: job files under ``units/``, exclusive-create claim
  files under ``claims/``, atomically-published results under
  ``results/``.  The driver works it inline, so a sweep completes with
  no other process attached; a pool's forked children are the only
  other processes that work a spool.  A claim older than the lease is
  reaped (:meth:`_Spool.stall`) and the unit runs again.
  Determinism makes duplicated execution harmless (same key, same
  bytes; the last atomic publish wins).

Crash-consistency (the harness-hazard hardening, proven by
``repro chaos --harness``):

* every publish goes through :func:`repro.harness.integrity.
  atomic_pickle` (sha256 frame, same-directory temp + ``os.replace``)
  and every load verifies -- a corrupt spec or result is quarantined
  into ``corrupt/`` and treated as a miss, never parsed;
* the driver delivers its own results to ``on_result`` directly from
  memory, so a failing publish (ENOSPC/EIO) degrades durability, not
  correctness -- the sweep still completes and merges;
* a writer SIGKILLed between temp write and rename leaves ``*.tmp``
  litter that no reader matches; a pool's private spool goes with it;
* a unit whose execution *process* dies :data:`POISON_AFTER` times
  (tracked in an ``attempts/`` ledger) is quarantined with a
  placeholder result instead of wedging the sweep;
* what happens to a leased unit is written once
  (:meth:`_Spool.settle`): the driver and :func:`run_worker` differ
  only in how they come by a lease and what they do with the outcome.

On disk a spool is a work queue (karambaci's queue-prefix/worker-prefix
separation and stalled-thread reaping are the exemplar): claim =
lease, result = completion record, and the ``results/`` directory
doubles as a crash journal -- re-running a driver over a half-finished
spool harvests completed units without re-executing them.
"""

from __future__ import annotations

import logging
import os
import pickle
import shutil
import tempfile
import time
from contextlib import suppress
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.telemetry import NULL_TELEMETRY
from ..runtime import SimDeadlockError
from . import hazards
from .integrity import atomic_pickle, load_verified
from .jobs import WorkUnit, execute_spec, quarantined_run

__all__ = ["Transport", "SerialTransport", "PoolTransport",
           "DirQueueTransport", "run_worker", "LEASE_S"]

_LOG = logging.getLogger("repro.harness.transport")

#: Driver callback: one finished unit, invoked in the driver process.
OnResult = Callable[[WorkUnit, object], None]

#: Dead executions (spool ledger bytes) after which a unit is
#: quarantined as poison rather than tried again.
POISON_AFTER = 3

#: Seconds a claim may stand before it can be reaped, by the driver and
#: by a pool's children alike.  Set it above the longest unit (see
#: :meth:`_Spool.stall`).
LEASE_S = 60.0


def _telemetered(tel, key: str, spec, fn):
    """Execute one unit under telemetry: ``unit.started`` -> run ``fn``
    -> :func:`_emit_terminal` on what it returned or raised.
    Exceptions propagate after the terminal event is written."""
    tel.emit("unit.started", unit=key, spec=spec)
    t0 = time.perf_counter()
    try:
        run = fn()
    except BaseException as e:
        _emit_terminal(tel, key, spec, e, time.perf_counter() - t0)
        raise
    _emit_terminal(tel, key, spec, run, time.perf_counter() - t0)
    return run


def _emit_terminal(tel, key: str, spec, run, wall_s) -> None:
    """The one writer of a unit's terminal event and its execution
    time.  ``run`` is the BenchRun an execution returned -- inline, or a
    pool child's harvested result, timed by the child's
    ``run.timing['total_s']`` -- or the exception it raised.  A failure,
    captured (``BenchRun.error`` set) or raised, is ``unit.failed``,
    after a typed ``watchdog.deadlock`` for a hang: the event log
    explains every outcome, not only raised ones."""
    fields = {}
    if wall_s is not None:
        fields["wall_s"] = round(wall_s, 6)
    if isinstance(run, BaseException):
        kind = "hang" if isinstance(run, SimDeadlockError) else "crash"
        error = f"{type(run).__name__}: {run}"
        summary = run.summary if kind == "hang" else None
    else:
        error = getattr(run, "error", None)
        kind = getattr(run, "error_kind", None)
        summary = str(error)[:300]
    if error is not None:
        if kind == "hang":
            tel.emit("watchdog.deadlock", unit=key, spec=spec,
                     summary=summary)
        tel.emit("unit.failed", unit=key, spec=spec,
                 error=str(error)[:300], error_kind=kind, **fields)
    else:
        cycles = getattr(run, "cycles", None)
        if isinstance(cycles, (int, float)) and cycles == cycles:
            fields["cycles"] = cycles
        tel.emit("unit.finished", unit=key, spec=spec, **fields)


def _quarantined(tel, key: str, spec, attempts: int):
    """A poison unit's loud placeholder result, announced on ``tel``
    (a ``unit.quarantined`` event) -- driver and worker alike."""
    tel.emit("unit.quarantined", unit=key, spec=spec, attempts=attempts)
    return quarantined_run(spec, attempts)


class Transport:
    """How distinct work units execute (see module docstring).

    Subclasses implement :meth:`_dispatch`, which :meth:`run` wraps,
    calling ``on_result(unit, run)`` once per unit as results become
    available (any order).  A spec that *raises* (verification failure
    without ``capture_errors``, watchdog expiry) propagates out of
    :meth:`run` on every transport; only executor-process loss is
    recovered -- the unit runs again -- and a unit whose process dies
    persistently is quarantined (``error_kind == "quarantined"``),
    never retried forever.
    """

    name = "transport"

    def __init__(self):
        #: Human-readable record of reaps, deaths, quarantines (last run()).
        self.events: List[str] = []
        #: Telemetry session the driver records through (the pipeline
        #: attaches a live one; default is the zero-cost null session).
        self.telemetry = NULL_TELEMETRY

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
        self.events = []
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
        for unit in units:
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


# -- spool directory ---------------------------------------------------------

class _UnitFailure:
    """A spec-raised exception, published so the driver re-raises it.

    Spool workers must not die on a failing unit (they would retry it
    forever); they publish the failure as the unit's
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
    ``claims/<key>.claim``  lease: the holder's pid (its age is the
                            file's mtime), created with O_CREAT|O_EXCL
                            so exactly one process wins a unit;
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
    elsewhere is :meth:`reap_stale`.  Driver and worker call both.  Whether a
    claim is stalled is :meth:`stall`, and taking it back :meth:`reap`.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.units = self.root / "units"
        self.claims = self.root / "claims"
        self.results = self.root / "results"
        self.corrupt = self.root / "corrupt"
        self.attempts = self.root / "attempts"
        #: Session leases and integrity problems are recorded through
        #: (the driver's transport attaches its own; a pool's child
        #: keeps the null session).
        self.telemetry = NULL_TELEMETRY

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

    def try_claim(self, key: str) -> bool:
        """Atomically lease a unit (O_CREAT|O_EXCL claim file)."""
        try:
            fd = os.open(self.claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        except OSError:                     # FileExistsError: lost the race
            return False
        try:
            os.write(fd, b"%d" % os.getpid())
        finally:
            os.close(fd)
        return True

    def lease(self, key: str) -> bool:
        """Lease a unit that is still unsettled -- the one way driver
        and worker come by a lease.  Unclaimed, won by exclusive
        create, and still without a published result once the claim is
        held: a settler publishes before it releases, so a unit settled
        after the caller listed it is let go here, never run twice."""
        if self.claim_age(key) is not None or not self.try_claim(key):
            return False
        if self.has_result(key):
            self.release(key)
            return False
        return True

    def release(self, key: str) -> None:
        try:
            self.claim_path(key).unlink()
        except OSError:
            pass

    def claim_owner(self, key: str) -> Optional[int]:
        """The pid of the process holding the claim on ``key``, if any."""
        try:
            return int(self.claim_path(key).read_text())
        except (OSError, ValueError):
            return None

    @staticmethod
    def file_age(path) -> Optional[float]:
        """Seconds since ``path`` was last written (None = missing)."""
        try:
            return max(0.0, time.time() - os.stat(path).st_mtime)
        except OSError:
            return None

    def claim_age(self, key: str) -> Optional[float]:
        """Seconds since the unit was claimed (None = unclaimed).

        A hazard site: an armed plan may skew this reading (the
        reaper's clock drifts), which must only ever cause a harmless
        duplicate execution, never a lost or wrong result.
        """
        age = self.file_age(self.claim_path(key))
        if age is None:
            return None
        plan = hazards.current()
        if plan is not None:
            age = plan.skew_claim_age(age)
        return age

    @staticmethod
    def stall(age: Optional[float], lease_s: float) -> bool:
        """The one rule for a stalled claim, what the reaper takes: a
        claim ``age`` seconds old has outlived ``lease_s``.  Whoever
        holds it is not asked, so the holder of a unit that outlasts
        the lease loses it and the unit runs again elsewhere -- the
        same key, the same bytes."""
        return age is not None and age > lease_s

    def reap(self, key: str, lease_s: float) -> None:
        """Take a lease back -- the one way a claim is reaped: release
        it and record one ``lease.reaped`` event.  Whatever the
        holder was running is abandoned; if it publishes later, the
        atomic replace writes the same bytes."""
        self.release(key)
        self.telemetry.emit("lease.reaped", unit=key, lease_s=lease_s)

    def reap_stale(self, keys, lease_s: float) -> List[str]:
        """Reap the stalled claims among ``keys`` (:meth:`stall` on one
        :meth:`claim_age` reading each); returns the reaped."""
        reaped = []
        for key in keys:
            if self.stall(self.claim_age(key), lease_s):
                self.reap(key, lease_s)
                reaped.append(key)
        return reaped

    # -- attempts (poison-unit ledger) ---------------------------------------

    def attempt_path(self, key: str) -> Path:
        return self.attempts / f"{key}.n"

    def record_attempt(self, key: str) -> int:
        """Record that an execution attempt is starting (one appended
        byte; crash-safe across SIGKILL); returns total attempts.  The
        ledger gets a claim's mode: whoever may claim the unit must be
        able to count its own dead executions.  ``attempts/`` is made
        when the open finds it missing, not before every byte."""
        path = self.attempt_path(key)
        flags = os.O_CREAT | os.O_APPEND | os.O_WRONLY
        try:
            try:
                fd = os.open(path, flags, 0o666)
            except FileNotFoundError:
                self.attempts.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, flags, 0o666)
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
        """Forget the ledger after an execution that returned -- only
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

    # -- a leased unit, start to finish ---------------------------------------

    def settle(self, key: str, spec, execute) -> Tuple[object, bool]:
        """Settle a unit whose lease the caller holds -- the one path
        from claim to release.  Returns ``(payload, published)``.

        A ledger at :data:`POISON_AFTER` yields the quarantine
        placeholder, unexecuted.  Otherwise: one ledger byte,
        ``unit.claimed``, ``execute()`` under :func:`_telemetered`;
        what it raises is the payload, as a :class:`_UnitFailure`.  A
        publish that fails (ENOSPC/EIO) is logged and returned, never
        raised: what a lost spool copy means is the caller's call.
        An execution that returned clears the ledger, a real result and
        a :class:`_UnitFailure` alike, whether or not its publish
        landed: only a death leaves its byte (*consecutive* dead
        executions are what counts).  The lease is released whatever
        happened.
        """
        tel = self.telemetry
        attempts = self.attempt_count(key)
        if attempts >= POISON_AFTER:
            payload = _quarantined(tel, key, spec, attempts)
        else:
            self.record_attempt(key)
            tel.emit("unit.claimed", unit=key, spec=spec)
            try:
                payload = _telemetered(tel, key, spec, execute)
            except Exception as e:          # noqa: BLE001 - republished
                payload = _UnitFailure(e)
        try:
            self.publish(key, payload)
            published = True
        except OSError as e:
            published = False
            _LOG.warning("publish failed for unit %s (%s); lease released "
                         "without a spool copy", key[:12], e)
        if attempts < POISON_AFTER:
            self.clear_attempts(key)
        self.release(key)
        return payload, published


class DirQueueTransport(Transport):
    """Lease units through a spool directory (see module docstring).
    The driver enqueues every unit, then alternates between harvesting
    results other processes published and claiming+executing units
    itself, so progress never depends on another process existing.

    A claim older than :attr:`lease_s` is reaped (:meth:`_Spool.stall`)
    and its unit runs again (same key, same bytes).  A unit whose
    attempts ledger shows :data:`POISON_AFTER` dead executions is
    quarantined with a placeholder result, so a crash-looping unit
    stops after that many reaps.
    """

    name = "spool"
    #: How long a dead executor can pin a unit (:data:`LEASE_S`).
    lease_s = LEASE_S
    #: Seconds between scans while every pending unit is leased out.
    poll_s = 0.05

    def __init__(self, root):
        super().__init__()
        self.spool = _Spool(root)

    def describe(self) -> str:
        return f"spool({self.spool.root})"

    def _dispatch(self, units: List[WorkUnit], on_result: OnResult) -> None:
        spool = self.spool
        spool.ensure()
        spool.telemetry = self.telemetry
        pending = {u.key: u for u in units}
        for u in units:
            try:
                spool.enqueue(u.key, u.spec)
            except OSError as e:
                self._note(f"enqueue failed for unit {u.key[:12]} ({e}); "
                           f"driver will execute it inline")
        while pending:
            # Harvest what other processes published since last look.
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
                self._harvest(unit, payload, on_result)
            if not pending or harvested:
                continue
            # Work inline: lease the first unit that nobody holds.
            plan = hazards.current()
            for key, unit in pending.items():
                if plan is not None:
                    plan.maybe_stale_claim(spool, key)
                if spool.lease(key):
                    break
            else:
                # All leased out: reap the stalled, or wait briefly.
                reaped = self._idle(pending)
                for key in reaped:
                    self._note(f"reaped stalled lease on unit "
                               f"{key[:12]} (> {self.lease_s:g}s)")
                if not reaped:
                    time.sleep(self.poll_s)
                continue
            # Settle it and deliver from memory: a failed publish costs
            # the other processes the spool copy, never the driver a
            # result.
            del pending[key]
            payload, published = spool.settle(
                key, unit.spec, lambda: execute_spec(unit.spec))
            if not published:
                self._note(f"publish failed for unit {key[:12]}; result "
                           f"kept in memory, spool copy skipped")
            if isinstance(payload, _UnitFailure):
                # Published so no other process tries the unit again;
                # surfaced exactly like the other transports.
                raise payload.unwrap()
            self._deliver(unit, payload, on_result)

    #: Deliver a result another process published.
    _harvest = Transport._deliver

    def _idle(self, pending) -> List[str]:
        """The driver's idle step, every pending unit leased out:
        :meth:`_Spool.reap_stale`.  Returns the reaped."""
        return self.spool.reap_stale(pending, self.lease_s)


class PoolTransport(DirQueueTransport):
    """The spool, private to one dispatch and worked by the driver plus
    ``jobs - 1`` forked :func:`run_worker` children (``jobs`` defaults
    to the CPU count; a single unit or ``jobs=1`` runs inline).  It
    fails the way the spool does: a dead child's lease is released at
    once (:meth:`_idle`) and its unit runs again, the ledger
    quarantines a unit that keeps killing its executors, a spec error
    propagates, and no child outlives the dispatch."""

    name = "pool"
    #: A private local spool is cheap to poll, and the sweep's tail
    #: waits up to one interval for the last child's result.
    poll_s = 0.01

    def __init__(self, jobs: Optional[int] = None):
        Transport.__init__(self)        # the spool is made per dispatch
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self._children: Dict[int, object] = {}

    def describe(self) -> str:
        return f"pool(jobs={self.jobs})"

    def _dispatch(self, units: List[WorkUnit], on_result: OnResult) -> None:
        n = min(self.jobs, len(units))
        if n <= 1:
            self._run_inline(units, on_result)
            return
        import multiprocessing as mp
        # Forked, always: a child inherits the driver's compile cache
        # and code, and a chaos child arms from the plan it inherits.
        ctx = mp.get_context("fork")
        root = tempfile.mkdtemp(prefix="repro-pool-")
        self.spool, self._children = _Spool(root), {}
        try:
            # Enqueued before the children start (a child that finds
            # nothing pending exits); the driver's enqueue notes errors.
            self.spool.ensure()
            for u in units:
                with suppress(OSError):
                    self.spool.enqueue(u.key, u.spec)
            for _ in range(n - 1):
                child = ctx.Process(target=run_worker, args=(root,),
                                    daemon=True)
                child.start()
                self._children[child.pid] = child
            DirQueueTransport._dispatch(self, units, on_result)
        finally:
            # The driver holds every result or is raising: nothing a
            # killed child leaves behind outlives the private spool.
            for child in self._children.values():
                child.kill()
                child.join()
            shutil.rmtree(root, ignore_errors=True)

    def _harvest(self, unit: WorkUnit, run, on_result: OnResult) -> None:
        """A child records nothing: record the unit on the driver's
        track, timed by the child."""
        tel = self.telemetry
        tel.emit("unit.claimed", unit=unit.key, spec=unit.spec)
        _emit_terminal(tel, unit.key, unit.spec, run,
                       run.timing.get("total_s"))
        super()._harvest(unit, run, on_result)

    def _idle(self, pending) -> List[str]:
        """Every claim on a private spool is the driver's or a child's:
        release those of children that exited non-zero, a
        ``lease.reaped`` each (no lease to wait out), then the spool's
        own idle step."""
        dead = {pid for pid, child in self._children.items()
                if child.exitcode not in (None, 0)}
        for key in pending if dead else ():
            pid = self.spool.claim_owner(key)
            if pid in dead:
                self.spool.reap(key, self.lease_s)
                self._note(f"worker {pid} died holding unit {key[:12]}")
        return super()._idle(pending)


_WORKER_LOG = logging.getLogger("repro.worker")


def run_worker(root) -> int:
    """A :class:`PoolTransport` child's loop: lease, execute, publish.

    Works the spool at ``root`` until no pending unit remains, then
    returns the number it executed.  The child is forked from the
    driver and runs its code, so every enqueued key is one it would
    compute itself; a spec that fails verification is skipped (it was
    quarantined on the way).

    Robustness contract:

    * the child is expendable: killed (by a hazard, by the driver at
      the end of the dispatch) it abandons its unit, and the driver
      releases the lease (:meth:`PoolTransport._idle`);
    * another process's stalled lease (:meth:`_Spool.stall`) is
      reaped;
    * a unit whose publish fails (disk full) is skipped and left to
      the driver, which settles it and delivers it from memory: on a
      disk that refuses every publish the worker returns after one
      execution a unit;
    * a unit whose attempts ledger shows :data:`POISON_AFTER` dead
      executions is quarantined (placeholder result published) rather
      than executed again;
    * failing specs are published as failure records for the driver to
      re-raise; the worker itself keeps going.

    The worker keeps no event log: what it settles reaches the sweep's
    record through the driver, which records each harvested unit timed
    by the worker (:meth:`PoolTransport._harvest`).  Skipped units and
    reaped leases are warnings on the ``repro.worker`` logger.
    """
    log = _WORKER_LOG
    spool = _Spool(root)
    spool.ensure()
    plan = hazards.current()
    executed = 0
    skipped = set()
    while True:
        if plan is not None:
            plan.boundary("worker.scan")
        pending = [k for k in spool.pending_keys() if k not in skipped]
        if not pending:
            return executed
        progressed = False
        for key in pending:
            if not spool.lease(key):
                continue
            spec = spool.load_spec(key)
            if spec is None:
                spool.release(key)
                skipped.add(key)
                log.warning("worker: skipping unit %s (spec failed "
                            "verification)", key[:12])
                continue

            def execute():
                if plan is not None:
                    plan.boundary("worker.claimed")
                return execute_spec(spec)

            payload, published = spool.settle(key, spec, execute)
            progressed = True
            if not published:
                skipped.add(key)
                log.warning("worker: skipping unit %s (its result failed "
                            "to publish)", key[:12])
            elif getattr(payload, "error_kind", None) != "quarantined":
                executed += 1
        if not progressed:
            # Nothing settled this scan (all leased elsewhere): reap
            # stalled claims, or wait for publishes and lease expiry.
            reaped = spool.reap_stale(pending, LEASE_S)
            for key in reaped:
                log.warning("worker: reaped stalled lease on unit "
                            "%s (> %gs)", key[:12], LEASE_S)
            if not reaped:
                time.sleep(PoolTransport.poll_s)
