"""Telemetry sessions: the one object harness code records through.

A :class:`Telemetry` session belongs to one process of a sweep -- the
driver, or the hazard plan a pool's child arms under ``repro chaos
--harness`` -- and its records are the sweep's one harness record:
typed, versioned lifecycle events (:meth:`Telemetry.emit`), kept in
memory (:attr:`records`) and, when the session has a ``telemetry/``
area on disk, appended to this process's JSONL slice of the event
log.  How long a unit ran, or how many leases were reaped, is read
from those records.

The disabled path is :data:`NULL_TELEMETRY`, a shared do-nothing
session: every call is one attribute lookup plus an empty method, the
same zero-cost discipline as ``NullSink`` (guarded to <= 2% in
``benchmarks/bench_overhead_guards.py``).  Telemetry never touches the
simulation -- all recording happens between units in harness
processes -- so golden cycles and the merge contract are bit-identical
with telemetry on or off.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import List, Optional, Union

from .events import EVENT_TYPES, SCHEMA_VERSION, EventLog

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "worker_id"]


def worker_id() -> str:
    """A session id unique across hosts and processes:
    ``<host>-<pid>-<nonce>``.

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
    dir: Optional[Path] = None
    records: tuple = ()

    def emit(self, event: str, unit: Optional[str] = None,
             spec=None, **fields) -> Optional[dict]:
        return None

    def close(self) -> None:
        pass


#: The shared disabled session (the default everywhere).
NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """A live telemetry session (see module docstring).

    ``root`` is the telemetry area, a directory each session of a
    sweep appends its own event file to; ``None`` keeps events
    in memory only -- enough for the sweep summary, with nothing
    written to disk.
    """

    enabled = True

    def __init__(self, root: Union[str, Path, None] = None,
                 worker: Optional[str] = None):
        self.dir = Path(root) if root is not None else None
        self.worker = worker or worker_id()
        self.records: List[dict] = []
        self._log = (EventLog(self.dir, self.worker)
                     if self.dir is not None else None)
        self._seq = 0

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

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the event log (safe to call twice)."""
        if self._log is not None:
            self._log.close()
