"""Seeded deterministic *harness* hazard injection.

:mod:`repro.faults` (PR 4) corrupts the simulated machine;
this module corrupts the machinery *around* it -- the spool, the
checkpoint stores, a pool's forked workers -- to prove the execution
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
``stale_claim``           a back-dated foreign claim appears     ``lease``
``clock_skew``            a claim-age reading is inflated        ``lease``
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
    "stale_claim", "clock_skew", "kill_worker")

#: Hazard classes (CLI / scenario-matrix granularity) -> member kinds.
HAZARD_CLASS_KINDS: Dict[str, Tuple[str, ...]] = {
    "corrupt": ("pickle_corrupt", "pickle_truncate"),
    "disk": ("publish_enospc", "publish_eio"),
    "lease": ("stale_claim", "clock_skew"),
    "kill": ("kill_worker",),
}

HAZARD_CLASSES: Tuple[str, ...] = tuple(sorted(HAZARD_CLASS_KINDS))

#: Opportunity-index window each kind is drawn from, sized to the site
#: density of a test-scale sweep (publishes per unit are few; claim
#: scans are frequent; worker unit boundaries number in the dozens).
_WINDOWS: Dict[str, Tuple[int, int]] = {
    "pickle_corrupt": (0, 16),
    "pickle_truncate": (0, 16),
    "publish_enospc": (0, 16),
    "publish_eio": (0, 16),
    "stale_claim": (0, 8),
    "clock_skew": (1, 30),
    # Kill boundaries are scarce in a short sweep (a worker sees one a
    # scan and one a unit), so the window is tight: a kill-armed process
    # dies within its first few boundaries or not at all.
    "kill_worker": (0, 3),
}


def _draw_payload(kind: str, rng: random.Random):
    """One scheduled injection's payload, drawn from the plan RNG."""
    if kind == "pickle_corrupt":
        # (position fraction within the payload, xor mask != 0)
        return (rng.random(), rng.randrange(1, 256))
    if kind == "pickle_truncate":
        return rng.uniform(0.05, 0.9)       # fraction of bytes kept
    if kind == "stale_claim":
        return rng.uniform(120.0, 900.0)    # seconds to back-date by
    if kind == "clock_skew":
        return rng.uniform(30.0, 600.0)     # seconds added to one reading
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

    Sites call the ``on_publish`` / ``skew_claim_age`` /
    ``maybe_stale_claim`` / ``boundary`` helpers; each consumes
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
        injection is actually applied (a stale claim cannot land on a
        unit already claimed)."""
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

    def skew_claim_age(self, age_s: float) -> float:
        """Inflate one claim-age reading (the reaper's clock drifts)."""
        skew = self.fire("clock_skew")
        if skew is None:
            return age_s
        self._record("clock_skew", "spool.claim_age", skew_s=round(skew, 3))
        return age_s + float(skew)

    def maybe_stale_claim(self, spool, key: str) -> None:
        """Plant a back-dated claim on an unclaimed unit, as a worker
        that died holding it would leave, forcing the lease-reaping
        path to run.  Only a unit this process wins the claim on is an
        opportunity: one a pool's child leased first would swallow a
        scheduled injection, and whether it did is a race."""
        if not spool.try_claim(key):
            return
        age = self.fire("stale_claim")
        if age is None:
            spool.release(key)
            return
        then = time.time() - float(age)
        try:
            os.utime(spool.claim_path(key), times=(then, then))
        except OSError:
            pass
        self._record("stale_claim", "spool.claim", unit=key,
                     backdated_s=round(float(age), 3))

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
