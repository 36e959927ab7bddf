"""The structured event log: versioned JSONL records of the unit
lifecycle, appended by the driver of a sweep (and, under ``repro chaos
--harness``, by the hazard plan a pool's child arms).

One record per line, schema version :data:`SCHEMA_VERSION`.  Every
record carries ``{v, seq, ts, worker, event}`` plus event-specific
fields (``unit`` -- the content key, ``spec`` -- the human-readable
spec string, ``wall_s``, ``error`` / ``error_kind``, ...).  ``ts`` is
wall-clock epoch seconds: this log explains the *harness* timeline
(who executed what, when, how long), never the simulated one -- that
is :mod:`repro.obs.trace`'s job.

Concurrency model: each writing process appends to its **own** file,
``events-<worker>.jsonl`` inside a ``telemetry/`` area, one
``os.write`` per record on an ``O_APPEND`` descriptor.  No locks, no
interleaving hazards; a SIGKILL can at worst truncate a process's
final line, which readers tolerate.  :func:`read_events` merges every per-worker file into one
``(ts, worker, seq)``-ordered stream.

:func:`validate_events` is the schema-plus-lifecycle checker CI runs
(``python -m repro.obs.telemetry DIR``): besides per-record shape it
demands that every unit a worker *started* reaches a terminal event
(``unit.finished`` / ``unit.failed``), and that every abandoned
execution (a SIGKILLed worker's half-run) is explained by a
``lease.reaped`` record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

__all__ = ["SCHEMA_VERSION", "EVENT_TYPES", "TERMINAL_EVENTS", "EventLog",
           "event_files", "read_events", "validate_events"]

#: Bump on any incompatible record-shape change; readers reject other
#: versions rather than misparse them.
SCHEMA_VERSION = 1

#: Every event type a telemetry session may emit.  The ``unit.*`` set
#: is the work-unit lifecycle; ``sweep.*`` / ``stage.*`` bracket the
#: driver's pipeline stages; the rest are health facts (reaped leases,
#: watchdog deadlock reports, injected hazards, corrupt files).
EVENT_TYPES = frozenset({
    "sweep.started", "sweep.finished",
    "stage.started", "stage.finished",
    "unit.planned", "unit.deduped",
    "memo.hit", "memo.miss",
    "unit.resumed",
    "unit.claimed", "unit.started",
    "unit.finished", "unit.failed",
    "unit.quarantined",
    "lease.reaped",
    "watchdog.deadlock",
    "hazard.injected", "integrity.corrupt",
})

#: Events that settle a unit's fate for the sweep.  A quarantined
#: poison unit is settled too: its placeholder result reaches the
#: merge, nothing will execute it again this sweep.
TERMINAL_EVENTS = frozenset({"unit.finished", "unit.failed",
                             "unit.quarantined"})


class EventLog:
    """Appender for one process's slice of a shared event log.

    The file is opened lazily (``O_CREAT | O_APPEND``) on first emit
    and each record is written with a single ``os.write`` -- atomic
    with respect to other appenders and crash-safe up to the last
    complete line.
    """

    def __init__(self, root: Union[str, Path], worker: str):
        self.root = Path(root)
        self.worker = worker
        self._fd: Optional[int] = None

    @property
    def path(self) -> Path:
        return self.root / f"events-{self.worker}.jsonl"

    def append(self, record: dict) -> None:
        if self._fd is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path,
                               os.O_CREAT | os.O_APPEND | os.O_WRONLY,
                               0o644)
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True, default=str) + "\n"
        os.write(self._fd, line.encode())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# -- reading -----------------------------------------------------------------

def event_files(root: Union[str, Path]) -> List[Path]:
    """Per-worker event files under a telemetry area, sorted by name."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(root.glob("events-*.jsonl"))


def read_events(source: Union[str, Path],
                problems: Optional[List[str]] = None) -> List[dict]:
    """Merge a telemetry area (or one ``.jsonl`` file) into a single
    ``(ts, worker, seq)``-ordered record list.

    Undecodable lines -- a SIGKILLed writer's torn final line -- are
    skipped, with a note appended to ``problems`` when given; a
    half-written log must never be worse than an incomplete one.
    """
    records: List[dict] = []
    for path in event_files(source):
        try:
            text = path.read_text()
        except OSError as exc:
            if problems is not None:
                problems.append(f"{path.name}: unreadable: {exc}")
            continue
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                if problems is not None:
                    problems.append(f"{path.name}:{i + 1}: torn or "
                                    f"non-JSON line (skipped)")
                continue
            if isinstance(rec, dict):
                records.append(rec)
            elif problems is not None:
                problems.append(f"{path.name}:{i + 1}: not a record object")
    records.sort(key=lambda r: (r.get("ts", 0.0), str(r.get("worker", "")),
                                r.get("seq", 0)))
    return records


# -- validation --------------------------------------------------------------

def validate_events(records: Iterable[dict]) -> List[str]:
    """Schema + lifecycle check; returns problems ([] = valid).

    Shape: every record carries ``v == SCHEMA_VERSION``, a known
    ``event``, numeric ``ts``, a ``worker`` string, and a per-worker
    strictly-increasing ``seq``.

    Lifecycle: a unit that any worker ``unit.started`` must reach a
    terminal event (``unit.finished`` / ``unit.failed``), and abandoned
    executions beyond the terminals (started N times, finished M < N)
    must be covered by ``lease.reaped`` records --
    i.e. a SIGKILLed worker's half-run is only acceptable when the
    harness *noticed* and re-dispatched.
    """
    problems: List[str] = []
    last_seq: Dict[str, int] = {}
    starts: Dict[str, int] = {}
    terminals: Dict[str, int] = {}
    explained: Dict[str, int] = {}
    claimed_only: Dict[str, int] = {}

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            problems.append(f"record {i}: not an object")
            continue
        if rec.get("v") != SCHEMA_VERSION:
            problems.append(f"record {i}: schema version {rec.get('v')!r} "
                            f"!= {SCHEMA_VERSION}")
            continue
        event = rec.get("event")
        if event not in EVENT_TYPES:
            problems.append(f"record {i}: unknown event {event!r}")
            continue
        if not isinstance(rec.get("ts"), (int, float)):
            problems.append(f"record {i}: missing/non-numeric ts")
        worker = rec.get("worker")
        if not isinstance(worker, str) or not worker:
            problems.append(f"record {i}: missing worker id")
            worker = "?"
        seq = rec.get("seq")
        if not isinstance(seq, int):
            problems.append(f"record {i}: missing/non-integer seq")
        else:
            if seq <= last_seq.get(worker, 0) and worker in last_seq:
                problems.append(f"record {i}: seq {seq} not increasing "
                                f"for worker {worker}")
            last_seq[worker] = seq

        unit = rec.get("unit")
        if event.startswith(("unit.", "memo.", "lease.")) and not unit:
            problems.append(f"record {i}: {event} without a unit key")
            continue
        if event == "unit.started":
            starts[unit] = starts.get(unit, 0) + 1
        elif event == "unit.claimed":
            claimed_only[unit] = claimed_only.get(unit, 0) + 1
        elif event in TERMINAL_EVENTS:
            terminals[unit] = terminals.get(unit, 0) + 1
        elif event == "lease.reaped":
            explained[unit] = explained.get(unit, 0) + 1

    for unit in sorted(set(starts) | set(claimed_only)):
        n_started = starts.get(unit, 0)
        n_done = terminals.get(unit, 0)
        if n_done == 0:
            problems.append(f"unit {unit[:12]}: claimed/started but never "
                            f"reached a terminal event")
        elif n_started - n_done > explained.get(unit, 0):
            problems.append(
                f"unit {unit[:12]}: {n_started} execution(s) but only "
                f"{n_done} terminal(s) and "
                f"{explained.get(unit, 0)} lease.reaped "
                f"record(s) to explain the rest")
    return problems
