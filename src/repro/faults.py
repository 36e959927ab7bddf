"""Seeded deterministic fault injection (``repro.faults``).

The paper's central correctness claim is that A-stream corruption can
never change program output: "recovery is invoked if divergence is
detected" at barriers (§2.2, §3.3), so a wrong, wild, or dead A-stream
only costs cycles.  This module adversarially exercises that claim by
injecting faults at every level the mechanisms span:

========================  =====================================  =========
kind                      injection point                        class
========================  =====================================  =========
``a_corrupt``             A-stream VM register/value corruption  ``vm``
``a_vmfault``             spurious A-stream VM fault (parks)     ``vm``
``a_kill``                forced mid-region A-stream kill        ``kill``
``token_loss``            R-inserted slipstream token dropped    ``channel``
``mailbox_stale``         published mailbox entry's tag staled   ``channel``
``net_jitter``            bounded extra delay at CMP NIs         ``net``
========================  =====================================  =========

Determinism contract (following the gem5 reproducibility methodology):
every schedule is drawn from ``random.Random(seed)`` -- never from
wall-clock or process state -- and injections are triggered by
*opportunity index* (the k-th time an injection site of that kind is
reached), not by absolute cycle.  Because the simulation itself is
deterministic, the same ``(program, config, seed)`` yields identical
injection instants, recovery counts, and final cycles on any host, any
worker count, any run.

Zero-cost when disarmed: producers hold a ``faults`` attribute that is
``None`` unless a plan is armed, and every hook is a single attribute
test -- the golden-cycle tables are bit-identical with injection off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Tuple

from .obs.probe import NULL_PROBE, Probe

__all__ = ["FAULT_KINDS", "FAULT_CLASSES", "CLASS_KINDS", "FaultConfig",
           "FaultPlan", "MAX_NET_JITTER"]


# -- the seeded opportunity-indexed schedule ---------------------------------
#
# Shared with :mod:`repro.harness.hazards`, which injects into the
# harness the way this module injects into the simulated machine: one
# draw, one opportunity counter, two sets of kind/window/payload tables.

@dataclass(frozen=True)
class ScheduleConfig:
    """Hashable, picklable description of one injection campaign: the
    seed, the armed classes and the injections scheduled per kind.
    Subclasses supply the kind tables (and the ``classes`` default)."""

    seed: int
    classes: Tuple[str, ...]
    rate: int = 2                           # scheduled injections per kind

    #: What error messages call one of these ("fault", "hazard").
    NOUN: ClassVar[str]
    #: Every injectable kind, in the fixed order schedules are drawn.
    KINDS: ClassVar[Tuple[str, ...]]
    #: Classes (CLI / matrix granularity) -> member kinds.
    CLASS_KINDS: ClassVar[Dict[str, Tuple[str, ...]]]

    def __post_init__(self):
        bad = [c for c in self.classes if c not in self.CLASS_KINDS]
        if bad:
            raise ValueError(
                f"unknown {self.NOUN} class(es) {bad}; known: "
                f"{tuple(sorted(self.CLASS_KINDS))}")
        if self.rate < 1:
            raise ValueError(f"rate must be >= 1, got {self.rate}")
        # Canonicalize so equal campaigns hash equal regardless of the
        # order the caller listed classes in.
        object.__setattr__(self, "classes",
                           tuple(sorted(set(self.classes))))

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Armed kinds, in schedule-draw order."""
        armed = {k for c in self.classes for k in self.CLASS_KINDS[c]}
        return tuple(k for k in self.KINDS if k in armed)


class Schedule:
    """A campaign's materialized schedule and its opportunity counters.

    ``schedule[kind]`` maps the drawn opportunity indices (``rate``
    distinct ones from the kind's ``windows`` entry) to payloads from
    ``draw_payload(kind, rng)``; ``_seen[kind]`` counts the
    opportunities consumed so far.  Tests pin a scenario by overwriting
    both attributes.
    """

    def __init__(self, config: ScheduleConfig,
                 windows: Dict[str, Tuple[int, int]],
                 draw_payload: Callable[[str, random.Random], object]):
        self.config = config
        rng = random.Random(config.seed)
        self.schedule: Dict[str, Dict[int, object]] = {}
        for kind in config.kinds:           # fixed order: deterministic
            lo, hi = windows[kind]
            n = min(config.rate, hi - lo)   # distinct indices: colliding
            idxs = rng.sample(range(lo, hi), n)   # draws would silently
            self.schedule[kind] = {         # lower the injection count
                i: draw_payload(kind, rng) for i in idxs}
        self._seen: Dict[str, int] = {k: 0 for k in self.schedule}

    def _consume(self, kind: str):
        """One opportunity of ``kind`` (the k-th since the plan was
        built): the payload scheduled for it, ``None`` if none was drawn
        or the kind is not armed."""
        sched = self.schedule.get(kind)
        if sched is None:
            return None
        idx = self._seen[kind]
        self._seen[kind] = idx + 1
        return sched.get(idx)


#: Every injectable fault kind, in the fixed order schedules are drawn.
FAULT_KINDS: Tuple[str, ...] = ("a_corrupt", "a_vmfault", "a_kill",
                                "token_loss", "mailbox_stale", "net_jitter")

#: Fault classes (CLI / chaos-matrix granularity) -> member kinds.
CLASS_KINDS: Dict[str, Tuple[str, ...]] = {
    "vm": ("a_corrupt", "a_vmfault"),
    "kill": ("a_kill",),
    "channel": ("token_loss", "mailbox_stale"),
    "net": ("net_jitter",),
}

FAULT_CLASSES: Tuple[str, ...] = tuple(sorted(CLASS_KINDS))

#: Opportunity-index window each kind is drawn from.  Windows are sized
#: to the event density of their injection site at test scale: A-stream
#: shell events are plentiful (thousands per run), token inserts and
#: mailbox publishes number in the dozens, NI serves in the thousands.
_WINDOWS: Dict[str, Tuple[int, int]] = {
    "a_corrupt": (10, 1200),
    "a_vmfault": (10, 1500),
    "a_kill": (40, 2500),
    "token_loss": (1, 20),
    "mailbox_stale": (0, 24),
    "net_jitter": (50, 4000),
}

#: Exclusive upper bound on one ``net_jitter`` payload.
MAX_NET_JITTER = 400.0

#: Values ``a_corrupt`` overwrites a scalar slot with: zeros, sign
#: flips, wrap-around magnitudes, infinities -- the classic soft-error
#: menagerie.
_CORRUPT_VALUES = (0, -1, 1, 2 ** 31, -(2 ** 31), 10 ** 9, 7,
                   0.0, -1.5, 3.125e300, float("inf"), 123456789)


def _draw_payload(kind: str, rng: random.Random):
    """One scheduled injection's payload, drawn from the plan RNG."""
    if kind == "a_corrupt":
        return (rng.randrange(10_000), rng.choice(_CORRUPT_VALUES))
    if kind == "mailbox_stale":
        return rng.randrange(1, 4)          # seq-tag delta
    if kind == "net_jitter":
        return float(rng.randrange(25, 400))   # bounded: < MAX_NET_JITTER
    return True                             # a_vmfault / a_kill / token_loss


@dataclass(frozen=True)
class FaultConfig(ScheduleConfig):
    """Hashable, picklable description of one fault campaign.

    This is what travels inside a :class:`~repro.harness.jobs.RunSpec`
    (frozen specs must stay hashable); the heavier :class:`FaultPlan`
    is rebuilt from it inside each worker, so serial and pooled runs
    derive identical schedules.
    """

    classes: Tuple[str, ...] = FAULT_CLASSES

    NOUN = "fault"
    KINDS = FAULT_KINDS
    CLASS_KINDS = CLASS_KINDS


class FaultPlan(Schedule):
    """A materialized injection schedule plus its firing record.

    Built once per :class:`~repro.runtime.machine.Machine` from a
    :class:`FaultConfig`.  Producers call :meth:`fire` at each
    injection opportunity; it returns the scheduled payload exactly at
    the drawn opportunity indices and ``None`` everywhere else.
    """

    def __init__(self, config: FaultConfig):
        super().__init__(config, _WINDOWS, _draw_payload)
        self.fired: List[dict] = []
        self.engine = None
        self.probe: Probe = NULL_PROBE

    def bind(self, engine, probe: Probe) -> None:
        """Attach the run's engine (cycle stamps) and fault probe."""
        self.engine = engine
        self.probe = probe

    def fire(self, kind: str, track: str):
        """One injection opportunity of ``kind`` on ``track``.

        Returns the scheduled payload if this opportunity (the k-th of
        its kind) was drawn, else ``None``.  Fired injections are
        recorded (kind, opportunity index, cycle, track) and counted on
        the fault probe so traces show injection instants.
        """
        payload = self._consume(kind)
        if payload is None:
            return None
        idx = self._seen[kind] - 1
        now = self.engine.now if self.engine is not None else 0.0
        self.fired.append({"kind": kind, "index": idx, "cycle": now,
                           "track": track})
        self.probe.fault(kind, now, {"index": idx, "track": track})
        return payload

    def report(self) -> dict:
        """Plain-data (picklable) summary for :class:`RunResult`."""
        return {
            "seed": self.config.seed,
            "classes": list(self.config.classes),
            "rate": self.config.rate,
            "scheduled": {k: sorted(v) for k, v in self.schedule.items()},
            "fired": [dict(f) for f in self.fired],
        }
