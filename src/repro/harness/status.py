"""Fleet status: a live spool sweep, read through the spool's protocol.

``repro status DIR`` calls :func:`collect_status` on a spool root and
prints :func:`render_status`.  Nothing is asked of the fleet (no RPC: a
wedged fleet still reports), and every reading goes through
:class:`~repro.harness.transport._Spool`, the one owner of the layout:

* pending and published units give queued / claimed / done counts;
* a claimed unit is a straggler under :meth:`_Spool.stall` at
  :data:`~repro.harness.transport.LEASE_S` -- the rule and the
  threshold the lease reaper applies, so the claim flagged here is the
  claim the reaper would take;
* the sessions' heartbeats give each one's last-seen, role and
  progress;
* the event log gives failure kinds and the mean unit wall time the ETA
  extrapolates.

Claim ages are read unskewed: status is no hazard site, so it never
arms a hazard plan or uses up an opportunity.  A fleet is **stalled**
when work remains and nothing moves -- a straggler, or pending units
with no live worker and no fresh claim -- and ``repro status`` exits 1
on it so scripts can alarm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..obs.telemetry import TERMINAL_EVENTS, read_events
from .transport import LEASE_S, _Spool

__all__ = ["WorkerStatus", "FleetStatus", "collect_status",
           "render_status"]


@dataclass
class WorkerStatus:
    """One telemetry session's liveness, from its heartbeat file."""

    worker: str
    role: str = "?"
    pid: Optional[int] = None
    state: str = "?"
    unit: Optional[str] = None
    done: int = 0
    age_s: float = 0.0          #: seconds since the last heartbeat
    alive: bool = False         #: age_s <= stall threshold


@dataclass
class FleetStatus:
    """Snapshot of a spool sweep (see :func:`collect_status`)."""

    root: str
    units_total: int = 0
    units_done: int = 0
    units_failed: int = 0
    units_claimed: int = 0
    units_queued: int = 0       #: pending and unclaimed
    units_quarantined: int = 0  #: poison units settled by quarantine
    corrupt_entries: int = 0    #: files that failed integrity checks
    workers: List[WorkerStatus] = field(default_factory=list)
    stragglers: List[dict] = field(default_factory=list)
    eta_s: Optional[float] = None
    mean_unit_s: Optional[float] = None
    stalled: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def units_pending(self) -> int:
        return self.units_claimed + self.units_queued

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "units": {"total": self.units_total, "done": self.units_done,
                      "failed": self.units_failed,
                      "claimed": self.units_claimed,
                      "queued": self.units_queued,
                      "quarantined": self.units_quarantined},
            "corrupt_entries": self.corrupt_entries,
            "workers": [vars(w) for w in self.workers],
            "stragglers": self.stragglers,
            "eta_s": self.eta_s,
            "mean_unit_s": self.mean_unit_s,
            "stalled": self.stalled,
            "notes": self.notes,
        }


def _read_heartbeats(spool: _Spool, stall_s: float) -> List[WorkerStatus]:
    beats: List[WorkerStatus] = []
    for path in sorted(spool.heartbeats.glob("*.json")):
        try:
            body = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        age = spool.file_age(path)
        if age is None or not isinstance(body, dict):
            continue
        state = str(body.get("state", "?"))
        beats.append(WorkerStatus(
            worker=str(body.get("worker", path.stem)),
            role=str(body.get("role", "?")),
            pid=body.get("pid"),
            state=state,
            unit=body.get("unit"),
            done=int(body.get("done") or 0),
            age_s=round(age, 3),
            alive=(state != "stopped" and age <= stall_s),
        ))
    return beats


def collect_status(spool_root: Union[str, Path],
                   stall_s: float = LEASE_S) -> FleetStatus:
    """Assemble a :class:`FleetStatus` for the spool at ``spool_root``.

    Raises :class:`FileNotFoundError` when the directory does not look
    like a spool (no ``units/`` and no ``telemetry/`` area).
    """
    spool = _Spool(spool_root)
    if not spool.units.is_dir() and not spool.area.is_dir():
        raise FileNotFoundError(
            f"{spool.root}: not a spool directory (no units/ or telemetry/)")

    status = FleetStatus(root=str(spool.root))
    # Results only ever appear, so a unit pending in the later listing
    # was not published in the earlier one: the two never overlap.
    status.units_done = len(spool.published_keys())
    pending = spool.pending_keys()
    status.units_total = status.units_done + len(pending)
    for key in pending:
        age = spool.file_age(spool.claim_path(key))
        if age is None:
            status.units_queued += 1
            continue
        status.units_claimed += 1
        evidence = spool.stall(key, age, stall_s)
        if evidence is not None:
            status.stragglers.append(evidence)

    status.workers = _read_heartbeats(spool, stall_s)

    # Event log: failure kinds + the mean wall time ETA extrapolates.
    wall: List[float] = []
    failed = set()
    quarantined = set()
    corrupt = 0
    if spool.area.is_dir():
        for rec in read_events(spool.area):
            ev = rec.get("event")
            if ev in TERMINAL_EVENTS and isinstance(
                    rec.get("wall_s"), (int, float)):
                wall.append(float(rec["wall_s"]))
            if ev == "unit.failed" and rec.get("unit"):
                failed.add(rec["unit"])
            elif ev == "unit.quarantined" and rec.get("unit"):
                quarantined.add(rec["unit"])
            elif ev == "integrity.corrupt":
                corrupt += 1
    status.units_failed = len(failed)
    status.units_quarantined = len(quarantined)
    status.corrupt_entries = corrupt
    if wall:
        status.mean_unit_s = round(sum(wall) / len(wall), 3)

    live = [w for w in status.workers if w.alive]
    pending = status.units_pending
    if pending and status.mean_unit_s is not None:
        status.eta_s = round(
            pending * status.mean_unit_s / max(1, len(live)), 3)

    fresh_claims = status.units_claimed - len(status.stragglers)
    if pending:
        if status.stragglers:
            status.stalled = True
            status.notes.append(
                f"{len(status.stragglers)} claim(s) older than "
                f"{stall_s:g}s")
        if not live and not fresh_claims:
            status.stalled = True
            status.notes.append("pending units but no live worker and "
                                "no fresh claim")
    return status


def render_status(status: FleetStatus) -> str:
    """Human-readable multi-line fleet report."""
    lines = [f"spool {status.root}"]
    done = status.units_done
    total = status.units_total
    pct = (100.0 * done / total) if total else 0.0
    summary = (f"  units: {done}/{total} done ({pct:.0f}%), "
               f"{status.units_claimed} claimed, "
               f"{status.units_queued} queued")
    if status.units_failed:
        summary += f", {status.units_failed} failed"
    if status.units_quarantined:
        summary += f", {status.units_quarantined} QUARANTINED"
    lines.append(summary)
    if status.corrupt_entries:
        lines.append(f"  integrity: {status.corrupt_entries} corrupt "
                     f"file(s) quarantined")
    if status.mean_unit_s is not None:
        lines.append(f"  mean unit wall time: {status.mean_unit_s:.3f}s")
    if status.eta_s is not None:
        lines.append(f"  eta: ~{status.eta_s:.1f}s "
                     f"({status.units_pending} pending)")
    if status.workers:
        lines.append("  workers:")
        for w in status.workers:
            mark = "+" if w.alive else "-"
            what = f" unit {w.unit[:12]}" if w.unit else ""
            lines.append(
                f"    {mark} {w.worker} [{w.role}] {w.state}{what}, "
                f"{w.done} done, last seen {w.age_s:.1f}s ago")
    else:
        lines.append("  workers: none seen (no heartbeats)")
    for s in status.stragglers:
        lines.append(f"  straggler: unit {s['unit'][:12]} claimed "
                     f"{s['claim_age_s']:.1f}s ago")
    if status.stalled:
        lines.append("  STALLED: " + "; ".join(status.notes))
    elif status.units_pending == 0 and total:
        lines.append("  complete")
    return "\n".join(lines)
