"""Seeded deterministic *harness* hazard injection.

:mod:`repro.faults` (PR 4) corrupts the simulated machine;
this module corrupts the machinery *around* it -- the checkpoint
stores, the spool, a pool's forked children -- to prove the execution
pipeline's crash-consistency story the same way the fault injector
proves the paper's recovery story.  Same discipline throughout:

* every schedule is drawn from ``random.Random(seed)`` -- never from
  wall-clock or process state -- and injections fire by **opportunity
  index** (the k-th time a hazard site of that kind is reached), so a
  scenario replays identically on any host;
* zero-cost when disarmed: hot paths call :func:`current`, which is a
  cached module-attribute test (guarded to <= 2% by the disarmed-
  overhead benchmark);
* every applied injection is recorded as a ``hazard.injected``
  telemetry event, so the chaos harness can demand that each observed
  anomaly is explained by the log.

========================  =====================================  =========
kind                      injection point                        class
========================  =====================================  =========
``pickle_corrupt``        published bytes get a flipped byte     ``corrupt``
``pickle_truncate``       published bytes are cut short          ``corrupt``
``publish_enospc``        publish raises ENOSPC                  ``disk``
``publish_eio``           publish raises EIO                     ``disk``
``kill_worker``           worker SIGKILLs itself at a boundary   ``kill``
========================  =====================================  =========

Kill hazards only fire in a pool's forked children, never in the
driver.  A child arms itself from the plan it inherits at fork (see
:func:`current`): same campaign, its own opportunity counters, its own
telemetry session in the driver plan's directory.  A child is never
respawned, so it dies at most once.
"""

from __future__ import annotations

import errno
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..faults import Schedule, ScheduleConfig
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["HAZARD_KINDS", "HAZARD_CLASSES", "HAZARD_CLASS_KINDS",
           "HazardConfig", "HazardPlan", "arm", "disarm", "armed",
           "current"]

#: Every injectable hazard kind, in the fixed order schedules are drawn.
HAZARD_KINDS: Tuple[str, ...] = (
    "pickle_corrupt", "pickle_truncate", "publish_enospc", "publish_eio",
    "kill_worker")

#: Hazard classes (CLI / scenario-matrix granularity) -> member kinds.
HAZARD_CLASS_KINDS: Dict[str, Tuple[str, ...]] = {
    "corrupt": ("pickle_corrupt", "pickle_truncate"),
    "disk": ("publish_enospc", "publish_eio"),
    "kill": ("kill_worker",),
}

HAZARD_CLASSES: Tuple[str, ...] = tuple(sorted(HAZARD_CLASS_KINDS))

#: Opportunity-index window each kind is drawn from, sized to the site
#: density of the harness chaos matrix's two-unit pool sweep: its cold
#: leg appends four times (a journal record and a memo entry a unit),
#: and its one child passes two boundaries a unit.
_WINDOWS: Dict[str, Tuple[int, int]] = {
    "pickle_corrupt": (0, 4),
    "pickle_truncate": (0, 4),
    "publish_enospc": (0, 4),
    "publish_eio": (0, 4),
    # Two of the three first boundaries are drawn, so a kill-armed child
    # dies on its first unit, before running it or before answering.
    "kill_worker": (0, 3),
}


def _draw_payload(kind: str, rng: random.Random):
    """One scheduled injection's payload, drawn from the plan RNG."""
    if kind == "pickle_corrupt":
        # (position fraction within the payload, xor mask != 0)
        return (rng.random(), rng.randrange(1, 256))
    if kind == "pickle_truncate":
        return rng.uniform(0.05, 0.9)       # fraction of bytes kept
    return True     # publish_enospc / publish_eio / kill_worker: boolean


@dataclass(frozen=True)
class HazardConfig(ScheduleConfig):
    """Hashable, picklable description of one hazard campaign.

    The heavier :class:`HazardPlan` is rebuilt from this in every
    process (driver, forked child), so each derives an identical
    schedule from the seed alone.
    """

    classes: Tuple[str, ...] = HAZARD_CLASSES

    NOUN = "hazard"
    KINDS = HAZARD_KINDS
    CLASS_KINDS = HAZARD_CLASS_KINDS


class HazardPlan(Schedule):
    """A materialized hazard schedule plus its injection record.

    Sites call the ``on_publish`` / ``boundary`` helpers; each consumes
    opportunity indices deterministically and, when an injection is
    actually applied, records it on :attr:`injected` and as a
    ``hazard.injected`` telemetry event.  ``worker_side`` gates the
    kill kind: only a pool's forked child may be killed.
    """

    def __init__(self, config: HazardConfig, telemetry=NULL_TELEMETRY,
                 worker_side: bool = False):
        super().__init__(config, _WINDOWS, _draw_payload)
        self.telemetry = telemetry
        self.worker_side = worker_side
        #: Applied injections (dicts: kind, site, index, ...).
        self.injected: List[dict] = []

    def fire(self, kind: str) -> Optional[object]:
        """Advance this kind's opportunity counter; the scheduled
        payload exactly at drawn indices, None elsewhere.  Firing does
        *not* record -- sites record via :meth:`_record` only when the
        injection is actually applied (an empty payload is left
        alone)."""
        return self._consume(kind)

    def _record(self, kind: str, site: str, **detail) -> None:
        rec = {"kind": kind, "site": site,
               "index": self._seen[kind] - 1, **detail}
        self.injected.append(rec)
        self.telemetry.emit("hazard.injected", **rec)

    # -- site helpers --------------------------------------------------------

    def on_publish(self, what: str, path, data: bytes) -> bytes:
        """Hazard hook inside :func:`~.integrity.publish_frame` and a
        store's append: may corrupt/truncate the framed bytes or raise
        ENOSPC/EIO."""
        hit = self.fire("publish_enospc")
        if hit:
            self._record("publish_enospc", f"publish.{what}",
                         file=Path(path).name)
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        hit = self.fire("publish_eio")
        if hit:
            self._record("publish_eio", f"publish.{what}",
                         file=Path(path).name)
            raise OSError(errno.EIO, "i/o error (injected)")
        hit = self.fire("pickle_corrupt")
        if hit and len(data) > 0:
            frac, mask = hit
            pos = min(len(data) - 1, int(frac * len(data)))
            data = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
            self._record("pickle_corrupt", f"publish.{what}",
                         file=Path(path).name, pos=pos)
        hit = self.fire("pickle_truncate")
        if hit and len(data) > 0:
            keep = max(1, int(len(data) * hit))
            data = data[:keep]
            self._record("pickle_truncate", f"publish.{what}",
                         file=Path(path).name, kept=keep)
        return data

    def boundary(self, site: str) -> None:
        """Worker unit boundary: may SIGKILL this process, worker-side
        only."""
        if self.worker_side and self.fire("kill_worker"):
            self._record("kill_worker", site, pid=os.getpid())
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(5.0)                 # pragma: no cover - we die

    def summary(self) -> Dict[str, int]:
        """Applied injections per kind (this process only)."""
        out: Dict[str, int] = {}
        for rec in self.injected:
            out[rec["kind"]] = out.get(rec["kind"], 0) + 1
        return out


# -- arming ------------------------------------------------------------------
#
# `current()` is the one lookup every hazard site performs.  It is
# per-process: a forked child inherits the driver's module state but
# must not reuse the driver's plan (its opportunity counters, its
# worker_side flag), so the cache is keyed by pid and a child arms a
# fresh worker-side plan from the inherited one -- or runs disarmed
# when the driver was.

ACTIVE: Optional[HazardPlan] = None
_ACTIVE_PID: Optional[int] = None


def arm(config: HazardConfig, telemetry=NULL_TELEMETRY) -> HazardPlan:
    """Arm a hazard plan for this process (the driver side)."""
    global ACTIVE, _ACTIVE_PID
    plan = HazardPlan(config, telemetry=telemetry)
    ACTIVE = plan
    _ACTIVE_PID = os.getpid()
    return plan


def disarm() -> None:
    """Disarm this process (sites go back to zero-cost)."""
    global ACTIVE, _ACTIVE_PID
    ACTIVE = None
    _ACTIVE_PID = os.getpid()


@contextmanager
def armed(config: HazardConfig, telemetry=NULL_TELEMETRY):
    plan = arm(config, telemetry=telemetry)
    try:
        yield plan
    finally:
        disarm()


def current() -> Optional[HazardPlan]:
    """This process's armed plan, or None.

    The first call in a forked child arms it from the plan it
    inherited (:func:`_arm_forked`) and caches the verdict by pid;
    after that this is one comparison plus an attribute read.
    """
    if _ACTIVE_PID == os.getpid():
        return ACTIVE
    return _arm_forked()


def _arm_forked() -> Optional[HazardPlan]:
    """A worker-side plan for a forked child: the inherited plan's
    campaign with counters at zero, recording its injections in a new
    session on the inherited plan's telemetry directory (if any)."""
    global ACTIVE, _ACTIVE_PID
    inherited, ACTIVE = ACTIVE, None
    if inherited is not None:
        root = inherited.telemetry.dir
        ACTIVE = HazardPlan(
            inherited.config, worker_side=True,
            telemetry=NULL_TELEMETRY if root is None else Telemetry(root))
    _ACTIVE_PID = os.getpid()
    return ACTIVE
