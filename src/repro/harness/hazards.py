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
``term_worker``           worker SIGTERMs itself at a boundary   ``kill``
========================  =====================================  =========

Kill hazards only fire in processes armed as *worker-side* (a pool's
forked children, armed through the ``REPRO_HAZARDS`` environment
variable), never in the driver, and are budgeted through on-disk
``O_EXCL`` kill tokens in a shared state directory: workers that
respawn with fresh opportunity counters would otherwise kill
themselves forever.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..faults import Schedule, ScheduleConfig
from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["HAZARD_KINDS", "HAZARD_CLASSES", "HAZARD_CLASS_KINDS",
           "HazardConfig", "HazardPlan", "arm", "disarm", "armed",
           "current", "export_env", "clear_env", "ENV_VAR"]

#: Every injectable hazard kind, in the fixed order schedules are drawn.
HAZARD_KINDS: Tuple[str, ...] = (
    "pickle_corrupt", "pickle_truncate", "publish_enospc", "publish_eio",
    "stale_claim", "clock_skew", "kill_worker", "term_worker")

#: Hazard classes (CLI / scenario-matrix granularity) -> member kinds.
HAZARD_CLASS_KINDS: Dict[str, Tuple[str, ...]] = {
    "corrupt": ("pickle_corrupt", "pickle_truncate"),
    "disk": ("publish_enospc", "publish_eio"),
    "lease": ("stale_claim", "clock_skew"),
    "kill": ("kill_worker", "term_worker"),
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
    "term_worker": (0, 3),
}

#: Environment variable carrying an armed campaign into a pool's forked
#: workers.
ENV_VAR = "REPRO_HAZARDS"


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
    return True     # publish_enospc / publish_eio / kill_* are boolean


@dataclass(frozen=True)
class HazardConfig(ScheduleConfig):
    """Hashable, picklable description of one hazard campaign.

    The heavier :class:`HazardPlan` is rebuilt from this in every
    process (driver, worker), so each derives an identical schedule
    from the seed alone.
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
    kill kinds: only processes that *are* expendable workers may be
    killed.
    """

    def __init__(self, config: HazardConfig, state_dir=None,
                 telemetry=NULL_TELEMETRY, worker_side: bool = False):
        super().__init__(config, _WINDOWS, _draw_payload)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.telemetry = telemetry
        self.worker_side = worker_side
        #: Applied injections (dicts: kind, site, index, ...).
        self.injected: List[dict] = []

    def fire(self, kind: str) -> Optional[object]:
        """Advance this kind's opportunity counter; the scheduled
        payload exactly at drawn indices, None elsewhere.  Firing does
        *not* record -- sites record via :meth:`_record` only when the
        injection is actually applied (a kill may be token-starved)."""
        return self._consume(kind)

    def _record(self, kind: str, site: str, **detail) -> None:
        rec = {"kind": kind, "site": site,
               "index": self._seen[kind] - 1, **detail}
        self.injected.append(rec)
        self.telemetry.emit("hazard.injected", **rec)

    # -- site helpers --------------------------------------------------------

    def on_publish(self, what: str, path, data: bytes) -> bytes:
        """Hazard hook inside :func:`~.integrity.atomic_pickle`: may
        corrupt/truncate the framed bytes or raise ENOSPC/EIO."""
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
        path to run."""
        age = self.fire("stale_claim")
        if age is None:
            return
        if not spool.try_claim(key):
            return
        then = time.time() - float(age)
        try:
            os.utime(spool.claim_path(key), times=(then, then))
        except OSError:
            pass
        self._record("stale_claim", "spool.claim", unit=key,
                     backdated_s=round(float(age), 3))

    def boundary(self, site: str) -> None:
        """Worker unit boundary: may SIGKILL/SIGTERM this process.

        Only fires worker-side and only while kill tokens remain in
        the shared state directory -- respawned workers re-derive the
        same schedule with reset counters, so without an on-disk
        budget a kill-armed sweep would never finish.
        """
        if not self.worker_side:
            return
        for kind, sig in (("kill_worker", signal.SIGKILL),
                          ("term_worker", signal.SIGTERM)):
            if self.fire(kind) and self._claim_kill_token(kind):
                self._record(kind, site, pid=os.getpid())
                os.kill(os.getpid(), sig)
                if sig == signal.SIGKILL:   # pragma: no cover - we die
                    time.sleep(5.0)

    def _claim_kill_token(self, kind: str) -> bool:
        if self.state_dir is None:
            return False
        tokens = self.state_dir / "kills"
        try:
            tokens.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        for i in range(self.config.rate):
            try:
                fd = os.open(tokens / f"{kind}-{i}.token",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                continue
            os.close(fd)
            return True
        return False

    def summary(self) -> Dict[str, int]:
        """Applied injections per kind (this process only)."""
        out: Dict[str, int] = {}
        for rec in self.injected:
            out[rec["kind"]] = out.get(rec["kind"], 0) + 1
        return out


# -- arming ------------------------------------------------------------------
#
# `current()` is the one lookup every hazard site performs.  It is
# per-process: a fork/spawn child inherits the parent's module state
# but must not reuse the parent's plan (its opportunity counters, its
# worker_side flag), so the cache is keyed by pid and children re-arm
# from the environment variable -- or run disarmed when it is unset.

ACTIVE: Optional[HazardPlan] = None
_ACTIVE_PID: Optional[int] = None


def arm(config: HazardConfig, state_dir=None, telemetry=NULL_TELEMETRY,
        worker_side: bool = False) -> HazardPlan:
    """Arm a hazard plan for this process (the driver side)."""
    global ACTIVE, _ACTIVE_PID
    plan = HazardPlan(config, state_dir=state_dir, telemetry=telemetry,
                      worker_side=worker_side)
    ACTIVE = plan
    _ACTIVE_PID = os.getpid()
    return plan


def disarm() -> None:
    """Disarm this process (sites go back to zero-cost)."""
    global ACTIVE, _ACTIVE_PID
    ACTIVE = None
    _ACTIVE_PID = os.getpid()


@contextmanager
def armed(config: HazardConfig, state_dir=None, telemetry=NULL_TELEMETRY,
          worker_side: bool = False):
    plan = arm(config, state_dir=state_dir, telemetry=telemetry,
               worker_side=worker_side)
    try:
        yield plan
    finally:
        disarm()


def current() -> Optional[HazardPlan]:
    """This process's armed plan, or None.

    First call in any process (including a fresh fork/spawn child that
    inherited stale module state) resolves ``REPRO_HAZARDS`` once and
    caches the verdict by pid; after that this is one comparison plus
    an attribute read.
    """
    if _ACTIVE_PID == os.getpid():
        return ACTIVE
    return _rearm_from_env()


def _rearm_from_env() -> Optional[HazardPlan]:
    """A worker-side plan from ``REPRO_HAZARDS``, recording its
    injections under the campaign's ``"tel"`` directory (if any)."""
    global ACTIVE, _ACTIVE_PID
    plan = None
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            body = json.loads(raw)
            config = HazardConfig(int(body["seed"]),
                                  classes=tuple(body["classes"]),
                                  rate=int(body["rate"]))
            tel = NULL_TELEMETRY
            if body.get("tel"):
                from ..obs.telemetry import Telemetry
                tel = Telemetry(root=body["tel"])
            plan = HazardPlan(config, state_dir=body.get("state") or None,
                              telemetry=tel, worker_side=True)
        except Exception:                   # noqa: BLE001 - stay disarmed
            plan = None
    ACTIVE = plan
    _ACTIVE_PID = os.getpid()
    return plan


def export_env(config: HazardConfig, state_dir=None,
               telemetry_root=None) -> None:
    """Publish a campaign to ``REPRO_HAZARDS`` so a pool's forked
    workers arm themselves worker-side, recording under
    ``telemetry_root``; kill hazards require ``state_dir`` for the
    shared token budget."""
    os.environ[ENV_VAR] = json.dumps({
        "seed": config.seed, "classes": list(config.classes),
        "rate": config.rate,
        "state": str(state_dir) if state_dir is not None else None,
        "tel": str(telemetry_root) if telemetry_root is not None else None})


def clear_env() -> None:
    os.environ.pop(ENV_VAR, None)
