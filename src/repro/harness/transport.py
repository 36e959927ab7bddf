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
  ``poison_threshold`` times is **quarantined** (a loud placeholder
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
* a unit whose execution *process* dies ``quarantine_after`` times
  (tracked in an ``attempts/`` ledger) is quarantined with a
  placeholder result instead of wedging the fleet;
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


class Transport:
    """How distinct work units execute (see module docstring).

    Subclasses implement :meth:`run`, calling ``on_result(unit, run)``
    once per unit as results become available (any order).  A spec
    that *raises* (verification failure without ``capture_errors``,
    watchdog expiry) propagates out of :meth:`run` on every transport;
    only worker-process loss is retried/degraded -- and a unit whose
    process dies persistently is quarantined (see
    :attr:`quarantined`), never retried forever.
    """

    name = "transport"

    def __init__(self):
        #: Human-readable record of retries/degradation (last run()).
        self.events: List[str] = []
        #: True when any unit of the last run() fell back to serial.
        self.degraded = False
        #: Unit keys quarantined as poison during the last run().
        self.quarantined: List[str] = []
        #: Telemetry session the driver records through (the pipeline
        #: attaches a live one; default is the zero-cost null session).
        self.telemetry = NULL_TELEMETRY

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
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

    def _quarantine(self, unit: WorkUnit, attempts: int,
                    on_result: OnResult) -> object:
        """Settle a poison unit with a loud placeholder result."""
        run = quarantined_run(unit.spec, attempts)
        tel = self.telemetry
        tel.emit("unit.quarantined", unit=unit.key, spec=unit.spec,
                 attempts=attempts)
        tel.count("unit.quarantined")
        self.quarantined.append(unit.key)
        self._note(f"QUARANTINED poison unit {unit.key[:12]} ({unit.spec}):"
                   f" {attempts} execution attempt(s) died without a "
                   f"result")
        on_result(unit, run)
        return run


class SerialTransport(Transport):
    """Execute units one after another in the driver process."""

    name = "serial"

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
        self.events = []
        self.degraded = False
        self.quarantined = []
        self._run_inline(units, on_result)


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
    stampede.  A unit still unfinished after ``poison_threshold``
    broken passes is *quarantined* -- it gets a loud placeholder
    result (``error_kind == "quarantined"``) instead of being handed
    to the serial fallback, where a poison spec would take the driver
    down with it.  The rest degrades gracefully to in-process serial
    execution.  Neither path is silent: both are logged and recorded
    on :attr:`events` / :attr:`degraded` / :attr:`quarantined` for
    callers (the CLI turns them into non-zero exits).
    """

    name = "pool"

    #: Pool passes before degrading to serial (initial try + 1 retry).
    max_pool_attempts = 2

    def __init__(self, jobs: Optional[int] = None,
                 start_method: Optional[str] = None,
                 max_pool_attempts: Optional[int] = None,
                 poison_threshold: int = 3,
                 backoff_base: float = 0.05):
        super().__init__()
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or os.cpu_count() or 1
        self.start_method = start_method
        if max_pool_attempts is not None:
            if max_pool_attempts < 1:
                raise ValueError("max_pool_attempts must be >= 1")
            self.max_pool_attempts = max_pool_attempts
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.poison_threshold = poison_threshold
        self.backoff_base = backoff_base
        #: Per-unit-index count of pool passes that lost the unit.
        self._suspects: Dict[int, int] = {}

    def describe(self) -> str:
        return f"pool(jobs={self.jobs})"

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
        units = list(units)
        self.events = []
        self.degraded = False
        self.quarantined = []
        self._suspects = {}
        tel = self.telemetry
        if min(self.jobs, len(units)) <= 1:
            self._run_inline(units, on_result)
            return
        done = [False] * len(units)
        pending = list(range(len(units)))
        for attempt in range(self.max_pool_attempts):
            if not pending:
                break
            if attempt > 0:
                # Seeded-jitter backoff before respawning the pool, so
                # a crash loop doesn't hot-spin fork/exec.
                time.sleep(hazards.backoff_s("pool-pass", attempt,
                                             self.backoff_base))
            pending = self._pool_pass(units, done, pending, attempt,
                                      on_result)
        if pending:
            poison = [i for i in pending
                      if self._suspects.get(i, 0) >= self.poison_threshold]
            if poison:
                for i in poison:
                    self._quarantine(units[i], self._suspects[i], on_result)
                pending = [i for i in pending if i not in set(poison)]
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
            for i in remaining:
                # Every unit a broken pass lost is a poison suspect;
                # crossing poison_threshold quarantines it in run().
                self._suspects[i] = self._suspects.get(i, 0) + 1
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
    """

    def __init__(self, exc: BaseException):
        try:
            self._pickled = pickle.dumps(exc)
        except Exception:
            self._pickled = None
        self._repr = f"{type(exc).__name__}: {exc}"

    def unwrap(self) -> BaseException:
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
        except FileExistsError:
            return False
        except OSError:
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
        byte; crash-safe across SIGKILL); returns total attempts."""
        try:
            self.attempts.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.attempt_path(key),
                         os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
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
    ``quarantine_after`` dead executions is quarantined with a
    placeholder result.
    """

    name = "spool"

    def __init__(self, root, lease_s: float = 60.0, poll_s: float = 0.05,
                 quarantine_after: int = 3, backoff_base: float = 0.05):
        super().__init__()
        self.spool = _Spool(root)
        self.lease_s = lease_s
        self.poll_s = poll_s
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.quarantine_after = quarantine_after
        self.backoff_base = backoff_base
        self._not_before: Dict[str, float] = {}
        self._reaps: Dict[str, int] = {}

    def describe(self) -> str:
        return f"spool({self.spool.root})"

    def _heartbeats_dir(self) -> Path:
        """Where every session attached to this spool heartbeats."""
        return telemetry_area(self.spool.root) / "heartbeats"

    def run(self, units: Sequence[WorkUnit], on_result: OnResult) -> None:
        self.events = []
        self.degraded = False
        self.quarantined = []
        self._not_before = {}
        self._reaps = {}
        self.spool.ensure()
        tel = self.telemetry
        self.spool.telemetry = tel
        litter = self.spool.gc_tmp(older_than_s=self.lease_s)
        if litter:
            self._note(f"collected {len(litter)} leftover tmp file(s) "
                       f"from a dead writer")
        pending = {u.key: u for u in units}
        n_total = len(pending)
        for u in units:
            try:
                self.spool.enqueue(u.key, u.spec)
            except OSError as e:
                tel.count("publish.failed")
                self._note(f"enqueue failed for unit {u.key[:12]} ({e}); "
                           f"driver will execute it inline")
        while pending:
            tel.heartbeat(state="driving",
                          done=n_total - len(pending))
            # Harvest everything attached workers published since the
            # last look (the driver's own inline results are delivered
            # directly, so a failed publish cannot lose them).
            harvested = False
            published = self.spool.published_keys()
            for key in [k for k in pending if k in published]:
                payload = self.spool.load_result(key)
                if payload is None:
                    continue
                harvested = True
                unit = pending.pop(key)
                if isinstance(payload, _UnitFailure):
                    raise payload.unwrap()
                tel.count("unit.harvested")
                on_result(unit, payload)
            if not pending or harvested:
                continue
            # Work inline: lease the first claimable unit and run it.
            if self._work_one(pending, on_result):
                continue
            # Everything is leased out (or backing off): reap the
            # stalled, collect litter, wait briefly.
            reaped = self.spool.reap_stale(pending, self.lease_s,
                                           heartbeats=self._heartbeats_dir())
            for key in reaped:
                tel.emit("lease.reaped", unit=key,
                         lease_s=self.lease_s)
                tel.count("lease.reaped")
                n = self._reaps[key] = self._reaps.get(key, 0) + 1
                delay = hazards.backoff_s(key, n, self.backoff_base)
                self._not_before[key] = time.monotonic() + delay
                self._note(f"reaped stalled lease on unit "
                           f"{key[:12]} (> {self.lease_s:g}s); retry "
                           f"backoff {delay:.3f}s")
            if not reaped:
                self.spool.gc_tmp(older_than_s=self.lease_s)
                time.sleep(self.poll_s)
        tel.heartbeat(state="idle", done=n_total, force=True)

    def _work_one(self, pending, on_result: OnResult) -> bool:
        """Claim + execute one unit inline, delivering the result
        directly to the driver (publish is best-effort durability for
        attached workers); False when every pending unit is currently
        leased by someone else or backing off."""
        tel = self.telemetry
        plan = hazards.current()
        now = time.monotonic()
        for key, unit in list(pending.items()):
            if now < self._not_before.get(key, 0.0):
                continue
            if plan is not None:
                plan.maybe_stale_claim(self.spool, key)
            if self.spool.claim_age(key) is not None:
                continue
            if not self.spool.try_claim(key, worker=tel.worker):
                continue
            attempts = self.spool.attempt_count(key)
            if attempts >= self.quarantine_after:
                run = self._quarantine(unit, attempts, on_result)
                self._publish_safe(key, run)
                self.spool.release(key)
                pending.pop(key)
                return True
            self.spool.record_attempt(key)
            tel.emit("unit.claimed", unit=key, spec=unit.spec)
            try:
                wait = (time.time()
                        - os.stat(self.spool.unit_path(key)).st_mtime)
                tel.observe("unit.queue_wait_s", max(0.0, wait))
            except OSError:
                pass
            try:
                payload = _telemetered(tel, key, unit.spec,
                                       lambda: execute_spec(unit.spec))
            except Exception as e:          # noqa: BLE001 - republished
                # Publish so attached workers stop re-trying the unit,
                # then surface it exactly like the other transports.
                self._publish_safe(key, _UnitFailure(e))
                self.spool.release(key)
                raise
            self.spool.clear_attempts(key)
            self._publish_safe(key, payload)
            self.spool.release(key)
            pending.pop(key)
            on_result(unit, payload)
            return True
        return False

    def _publish_safe(self, key: str, payload) -> bool:
        """Best-effort spool publish: an ENOSPC/EIO here costs
        durability for attached workers (they may re-execute the
        unit), never the driver's in-memory result."""
        try:
            self.spool.publish(key, payload)
            return True
        except OSError as e:
            self.telemetry.count("publish.failed")
            self._note(f"publish failed for unit {key[:12]} ({e}); "
                       f"result kept in memory, spool copy skipped")
            return False


_WORKER_LOG = logging.getLogger("repro.worker")


class _GracefulDrain:
    """SIGTERM -> drain: finish the in-flight unit, publish, release
    the claim, then exit cleanly.

    The handler only flips a flag -- no I/O, no telemetry from signal
    context -- and the worker loop checks it at every unit boundary.
    """

    def __init__(self):
        self.requested = False
        self._old = None
        self._installed = False

    def _handle(self, signum, frame):      # pragma: no cover - signal ctx
        self.requested = True

    def install(self) -> "_GracefulDrain":
        try:
            self._old = signal.signal(signal.SIGTERM, self._handle)
            self._installed = True
        except ValueError:
            # Not the main thread (embedded/test use): run without a
            # handler; SIGTERM keeps its default disposition.
            self._installed = False
        return self

    def restore(self) -> None:
        if self._installed:
            try:
                signal.signal(signal.SIGTERM, self._old)
            except (ValueError, TypeError):
                pass
            self._installed = False


def run_worker(root, poll_s: float = 0.1, lease_s: float = 60.0,
               max_units: Optional[int] = None, drain: bool = True,
               out=None, quarantine_after: int = 3) -> int:
    """Worker loop for ``repro worker DIR``: lease, execute, publish.

    Attaches to the spool at ``root`` and keeps winning claimable
    units until the spool is drained (``drain=True``, the default --
    the process exits 0 when no executable unit remains) or
    ``max_units`` have been executed.  A unit whose spec no longer
    hashes to its enqueued key (the worker runs different code or
    hot-path tiers than the driver) is *skipped*, never executed: a
    result the driver's key scheme can't trust must not be published.

    Robustness contract:

    * **SIGTERM drains**: the in-flight unit finishes, publishes, and
      releases its claim before the loop exits (``worker.stopped``
      carries ``reason="sigterm"``); only SIGKILL abandons work, and
      that is exactly what lease reaping recovers.
    * Lease reaping is heartbeat-aware (shared
      :func:`~repro.obs.telemetry.claim_is_stalled` predicate) and a
      publish that fails (disk full) releases the claim so another
      process retries -- the worker never wedges on a bad disk.
    * A unit whose attempts ledger shows ``quarantine_after`` dead
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
    heartbeats = telemetry_area(root) / "heartbeats"
    stop = _GracefulDrain().install()
    plan = hazards.current(telemetry=tel)
    litter = spool.gc_tmp(older_than_s=lease_s)
    if litter:
        log.info("worker: collected %d leftover tmp file(s)", len(litter))
    tel.emit("worker.started", spool=str(spool.root))
    tel.heartbeat(state="idle", done=0, force=True)
    t_attach = time.perf_counter()
    executed = 0
    skipped = set()
    try:
        while ((max_units is None or executed < max_units)
               and not stop.requested):
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
                if max_units is not None and executed >= max_units:
                    break
                if stop.requested:
                    break
                if spool.claim_age(key) is not None:
                    continue
                if not spool.try_claim(key, worker=tel.worker):
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
                attempts = spool.attempt_count(key)
                if attempts >= quarantine_after:
                    run = quarantined_run(spec, attempts)
                    tel.emit("unit.quarantined", unit=key, spec=spec,
                             attempts=attempts)
                    tel.count("unit.quarantined")
                    published = True
                    try:
                        spool.publish(key, run)
                    except OSError:
                        published = False
                    spool.release(key)
                    progressed = published
                    log.warning("worker: QUARANTINED poison unit %s "
                                "(%d dead execution attempts)",
                                key[:12], attempts)
                    continue
                spool.record_attempt(key)
                tel.emit("unit.claimed", unit=key, spec=spec)
                try:
                    wait = (time.time()
                            - os.stat(spool.unit_path(key)).st_mtime)
                    tel.observe("unit.queue_wait_s", max(0.0, wait))
                except OSError:
                    pass
                tel.heartbeat(state="running", unit=key, done=executed,
                              force=True)
                if plan is not None:
                    plan.boundary("worker.claimed")
                t0 = time.perf_counter()
                try:
                    payload = _telemetered(tel, key, spec,
                                           lambda: _run_spec(spec))
                except Exception as e:      # noqa: BLE001 - republished
                    payload = _UnitFailure(e)
                try:
                    spool.publish(key, payload)
                except OSError as e:
                    # Disk full / I/O error: release so another
                    # process (or this one, later) re-executes; the
                    # attempts ledger keeps its entry -- a publish
                    # failure is not a dead execution, but the re-run
                    # will record its own attempt.
                    spool.release(key)
                    tel.count("publish.failed")
                    log.warning("worker: publish failed for unit %s "
                                "(%s); claim released for retry",
                                key[:12], e)
                    progressed = True
                    continue
                if not isinstance(payload, _UnitFailure):
                    spool.clear_attempts(key)
                spool.release(key)
                executed += 1
                progressed = True
                tel.heartbeat(state="idle", done=executed)
                status = ("FAILED" if isinstance(payload, _UnitFailure)
                          else f"{payload.cycles:,.0f} cycles")
                log.info("worker: %s -> %s [%.2fs] (%s)", spec, status,
                         time.perf_counter() - t0, key[:12])
            if not progressed and not stop.requested:
                # Everything pending is leased elsewhere: reap stalled
                # claims (heartbeat-aware), then wait for publishes or
                # lease expiry.
                reaped = spool.reap_stale(pending, lease_s,
                                          heartbeats=heartbeats)
                for key in reaped:
                    tel.emit("lease.reaped", unit=key, lease_s=lease_s)
                    log.warning("worker: reaped stalled lease on unit "
                                "%s (> %gs)", key[:12], lease_s)
                if not reaped:
                    spool.gc_tmp(older_than_s=lease_s)
                    tel.heartbeat(state="waiting", done=executed)
                    time.sleep(poll_s)
        attached_s = time.perf_counter() - t_attach
        if attached_s > 0:
            tel.gauge("worker.units_per_s", executed / attached_s)
        reason = "sigterm" if stop.requested else "done"
        tel.emit("worker.stopped", executed=executed,
                 skipped=len(skipped), attached_s=round(attached_s, 6),
                 reason=reason)
        if stop.requested:
            log.info("worker: SIGTERM received -- drained in-flight "
                     "unit, %d unit(s) executed, exiting cleanly",
                     executed)
        elif skipped:
            log.info("worker: done, %d unit(s) executed, %d skipped "
                     "(key mismatch)", executed, len(skipped))
        else:
            log.info("worker: done, %d unit(s) executed", executed)
    finally:
        stop.restore()
        tel.close()
        if handler is not None:
            log.removeHandler(handler)
            log.propagate = old_propagate
    return executed
