"""Telemetry sessions: the one object harness code records through.

A :class:`Telemetry` session belongs to one process playing one role
in a sweep -- the driver, or a spool worker -- and bundles the three
recording surfaces:

* **events** (:meth:`Telemetry.emit`) -- typed, versioned lifecycle
  records, kept in memory (:attr:`records`) and, when the session has
  a ``telemetry/`` area on disk, appended to this process's JSONL
  slice of the shared event log;
* **metrics** (:meth:`observe` / :meth:`count` / :meth:`gauge`) -- the
  wall-clock :class:`~repro.obs.telemetry.metrics.MetricsRegistry`
  folded into ``ExecutionPipeline.rt_stats`` and the sweep summary;
* **heartbeats** (:meth:`heartbeat`) -- small atomically-replaced
  status files under ``<area>/heartbeats/<worker>.json`` whose mtime
  is the worker's last-seen instant; ``repro status DIR`` renders the
  fleet from them.

The disabled path is :data:`NULL_TELEMETRY`, a shared do-nothing
session: every call is one attribute lookup plus an empty method, the
same zero-cost discipline as ``NullSink`` (guarded to <= 2% in
``benchmarks/bench_overhead_guards.py``).  Telemetry never touches the
simulation -- all recording happens between units in harness
processes -- so golden cycles and the merge contract are bit-identical
with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Union

from .events import EVENT_TYPES, SCHEMA_VERSION, EventLog
from .metrics import MetricsRegistry

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "worker_id"]

#: Seconds between heartbeat writes (unforced beats are throttled).
HEARTBEAT_S = 1.0


def worker_id() -> str:
    """A fleet-unique session id: ``<host>-<pid>-<nonce>``.

    The nonce keeps two sessions of one process (a sweep and its
    resume, a driver and an in-process worker in tests) from sharing
    an event file, which would break per-worker ``seq`` monotonicity.
    """
    host = socket.gethostname().split(".")[0]
    return f"{host}-{os.getpid()}-{os.urandom(3).hex()}"


class NullTelemetry:
    """Telemetry off: drop everything, as close to free as possible."""

    enabled = False
    worker = "null"
    role = "off"
    dir: Optional[Path] = None
    records: tuple = ()
    metrics: Optional[MetricsRegistry] = None

    def emit(self, event: str, unit: Optional[str] = None,
             spec=None, **fields) -> Optional[dict]:
        return None

    def observe(self, name: str, value: float) -> None:
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def heartbeat(self, state: str = "idle", unit: Optional[str] = None,
                  done: Optional[int] = None, force: bool = False) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled session (the default everywhere).
NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """A live telemetry session (see module docstring).

    ``root`` is the shared telemetry area (``<spool>/telemetry`` for
    spool sweeps, any directory otherwise); ``None`` keeps events
    in memory only -- enough for metrics and ``rt_stats`` folding, with
    nothing written to disk.
    """

    enabled = True

    def __init__(self, root: Union[str, Path, None] = None,
                 worker: Optional[str] = None, role: str = "driver"):
        self.dir = Path(root) if root is not None else None
        self.worker = worker or worker_id()
        self.role = role
        self.records: List[dict] = []
        self.metrics = MetricsRegistry()
        self._log = (EventLog(self.dir, self.worker)
                     if self.dir is not None else None)
        self._seq = 0
        self._started = time.time()
        self._last_beat = 0.0
        self._done = 0

    # -- events --------------------------------------------------------------

    def emit(self, event: str, unit: Optional[str] = None,
             spec=None, **fields) -> Optional[dict]:
        """Record one typed event (see ``events.EVENT_TYPES``)."""
        if event not in EVENT_TYPES:
            raise ValueError(f"unknown telemetry event {event!r}")
        self._seq += 1
        rec = {"v": SCHEMA_VERSION, "seq": self._seq, "ts": time.time(),
               "worker": self.worker, "event": event}
        if unit is not None:
            rec["unit"] = unit
        if spec is not None:
            rec["spec"] = str(spec)
        rec.update(fields)
        self.records.append(rec)
        if self._log is not None:
            self._log.append(rec)
        return rec

    # -- metrics -------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def count(self, name: str, n: float = 1) -> None:
        self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    # -- heartbeats ----------------------------------------------------------

    @property
    def heartbeat_path(self) -> Optional[Path]:
        if self.dir is None:
            return None
        return self.dir / "heartbeats" / f"{self.worker}.json"

    def heartbeat(self, state: str = "idle", unit: Optional[str] = None,
                  done: Optional[int] = None, force: bool = False) -> None:
        """Refresh this session's liveness file (atomic replace).

        Throttled to one write per :data:`HEARTBEAT_S` unless ``force``;
        the file's mtime is the last-seen signal ``repro status``
        reads, its body the progress snapshot.
        """
        if self.dir is None:
            return
        now = time.time()
        if done is not None:
            self._done = done
        if not force and now - self._last_beat < HEARTBEAT_S:
            return
        self._last_beat = now
        payload = {"v": SCHEMA_VERSION, "worker": self.worker,
                   "pid": os.getpid(), "role": self.role,
                   "started": self._started, "ts": now, "state": state,
                   "unit": unit, "done": self._done}
        path = self.heartbeat_path
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except OSError:
            # An unwritable heartbeat must never fail the sweep.
            pass

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Final heartbeat + event-log close (safe to call twice)."""
        self.heartbeat(state="stopped", force=True)
        if self._log is not None:
            self._log.close()
