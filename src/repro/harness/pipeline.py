"""The execution pipeline driver: jobs -> transport -> checkpoint -> merge.

:class:`ExecutionPipeline` is the one object consumers hand a spec
matrix to.  Per sweep it:

1. shards the specs into content-keyed units
   (:class:`~repro.harness.jobs.SweepPlan`), deduplicating identical
   specs;
2. **resumes**: units already in the checkpoint journal load instantly
   (``unit.resumed``) -- this is how a killed sweep continues instead
   of restarting;
3. **memoizes**: remaining units are looked up in the run-result memo
   store (``memo.hit``/``memo.miss``) -- a repeated sweep is served
   without simulating;
4. dispatches only the rest through the configured
   :class:`~repro.harness.transport.Transport`, journaling and
   memoizing each result the moment it reaches the driver;
5. merges everything back in submission order
   (:meth:`~repro.harness.jobs.SweepPlan.merge`).

Determinism contract, per stage: unit keys are pure functions of spec
+ code + tiers (jobs); transports may reorder completion but never
results (merge is submission-ordered); journal/memo entries are only
ever consulted under exactly the key that produced them -- so golden
cycles and chaos-matrix outcomes are bit-identical through every
transport and through any kill-and-resume.

Effectiveness counters are recorded through the standard
:class:`~repro.obs.probe.Probe` API on a ``pipeline`` track and
surface in :attr:`rt_stats` (mirroring ``RunResult.rt_stats``) and on
the CLI sweep summary line; with a live telemetry session the summary
also reads the execution-time percentiles off the event log.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.aggregate import Counter
from ..obs.probe import Probe
from ..obs.telemetry import NULL_TELEMETRY, TERMINAL_EVENTS
from .checkpoint import CheckpointJournal, MemoStore
from .jobs import RunSpec, SweepPlan
from .runner import BenchRun
from .transport import PoolTransport, Transport

__all__ = ["ExecutionPipeline"]


class ExecutionPipeline:
    """Checkpointed, memoized, transport-pluggable sweep execution.

    ``transport`` defaults to a
    :class:`~repro.harness.transport.PoolTransport` of every core; pass
    a :class:`~repro.harness.transport.SerialTransport` or a
    :class:`~repro.harness.transport.DirQueueTransport` to change how
    units are dispatched without changing a single result bit.
    ``journal`` (a :class:`CheckpointJournal`) makes the sweep
    resumable; ``memo`` (a :class:`MemoStore`) serves repeated unit
    keys from the store.  Both are optional and orthogonal.
    """

    def __init__(self, transport: Optional[Transport] = None,
                 journal: Optional[CheckpointJournal] = None,
                 memo: Optional[MemoStore] = None,
                 telemetry=None):
        self.transport = transport or PoolTransport()
        self.journal = journal
        self.memo = memo
        self.counters = Counter()
        #: Effectiveness counters (memo.hit/memo.miss/unit.resumed/
        #: unit.executed/unit.deduped), recorded via the Probe API.
        self.probe = Probe("pipeline", counters=self.counters)
        #: Wall-clock telemetry session (the event log); default
        #: is the zero-cost null session.  The
        #: same session is attached to every stage so one record
        #: stream covers the whole sweep.
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Unit keys quarantined as poison in the last run (from the
        #: transport or resumed from a journaled quarantine placeholder).
        self.quarantined_units: List[str] = []
        self.transport.telemetry = self.telemetry
        if self.journal is not None:
            self.journal.telemetry = self.telemetry
        if self.memo is not None:
            self.memo.telemetry = self.telemetry

    # -- execution -----------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[BenchRun]:
        """Execute all specs; results in submission order."""
        return self.run_plan(SweepPlan(specs))

    def map(self, specs: Sequence[RunSpec]) -> Dict[Tuple, BenchRun]:
        """Execute all specs; results keyed by ``spec.key``."""
        specs = list(specs)
        return {s.key: r for s, r in zip(specs, self.run(specs))}

    def run_plan(self, plan: SweepPlan) -> List[BenchRun]:
        """Run one sharded sweep through resume -> memo -> transport,
        journaling/memoizing as results land, and merge."""
        results: Dict[str, BenchRun] = {}
        tel = self.telemetry
        t_sweep = time.perf_counter()
        units = plan.distinct()
        tel.emit("sweep.started", n_units=len(plan.units),
                 n_distinct=len(units),
                 transport=self.transport.describe())
        self.probe.count("unit.planned", len(plan.units))
        for unit in units:
            tel.emit("unit.planned", unit=unit.key, spec=unit.spec,
                     index=unit.index)
        if len(units) < len(plan.units):
            n_dup = len(plan.units) - len(units)
            self.probe.count("unit.deduped", n_dup)
            distinct_keys = {u.key for u in units}
            seen = set()
            for u in plan.units:
                if u.key in seen or u.key not in distinct_keys:
                    tel.emit("unit.deduped", unit=u.key, index=u.index)
                seen.add(u.key)

        if self.journal is not None:
            t0 = self._stage_start("resume")
            resumed = self.journal.load([u.key for u in units])
            if resumed:
                self.probe.count("unit.resumed", len(resumed))
                for key in resumed:
                    tel.emit("unit.resumed", unit=key)
            results.update(resumed)
            self._stage_finish("resume", t0, n_resumed=len(resumed))

        if self.memo is not None:
            t0 = self._stage_start("memo")
            hits = 0
            for unit in units:
                if unit.key in results:
                    continue
                got = self.memo.get_framed(unit.key)
                if got is not None:
                    hits += 1
                    results[unit.key], framed = got
                    self.probe.count("memo.hit")
                    tel.emit("memo.hit", unit=unit.key, spec=unit.spec)
                    # A memo hit is durable progress this sweep can
                    # resume from too: journal the frame just verified
                    # (no second pickle, no second digest).
                    if self.journal is not None:
                        self.journal.put_framed(unit.key, framed)
                else:
                    self.probe.count("memo.miss")
                    tel.emit("memo.miss", unit=unit.key, spec=unit.spec)
            self._stage_finish("memo", t0, n_hits=hits)

        todo = [u for u in units if u.key not in results]

        def on_result(unit, run: BenchRun) -> None:
            results[unit.key] = run
            self.probe.count("unit.executed")
            if self.journal is not None:
                self.journal.record(unit.key, run)
            if self.memo is not None:
                self.memo.put(unit.key, run)

        if todo:
            t0 = self._stage_start("dispatch")
            self.transport.run(todo, on_result)
            self._stage_finish("dispatch", t0, n_units=len(todo))
        merged = plan.merge(results)
        # Poison units settle the merge with loud placeholders; keep
        # their keys (from any source -- this dispatch, a journaled
        # quarantine resumed above) so summaries and the CLI exit code
        # can report them.
        qkeys = sorted(
            u.key for u in plan.distinct()
            if getattr(results[u.key], "error_kind", None) == "quarantined")
        self.quarantined_units = qkeys
        if qkeys:
            self.probe.count("unit.quarantined", len(qkeys))
        tel.emit("sweep.finished",
                 wall_s=round(time.perf_counter() - t_sweep, 6),
                 n_executed=int(self.counters.get("unit.executed")))
        return merged

    def _stage_start(self, stage: str) -> float:
        self.telemetry.emit("stage.started", stage=stage)
        return time.perf_counter()

    def _stage_finish(self, stage: str, t0: float, **fields) -> None:
        dt = time.perf_counter() - t0
        self.telemetry.emit("stage.finished", stage=stage,
                            wall_s=round(dt, 6), **fields)

    # -- observability -------------------------------------------------------

    @property
    def rt_stats(self) -> Dict[str, Dict[str, float]]:
        """Pipeline counters in ``RunResult.rt_stats`` shape."""
        counts = self.counters.as_dict()
        return {"pipeline": counts} if counts else {}

    def summary(self) -> str:
        """One-line sweep summary (the CLI prints this)."""
        c = self.counters.get
        parts = [f"{c('unit.planned')} unit(s) via "
                 f"{self.transport.describe()}"]
        if c("unit.deduped"):
            parts.append(f"{c('unit.deduped')} deduped")
        if c("unit.resumed"):
            parts.append(f"{c('unit.resumed')} resumed from checkpoint")
        if self.memo is not None:
            parts.append(f"memo {c('memo.hit')} hit(s) / "
                         f"{c('memo.miss')} miss(es)")
        parts.append(f"{c('unit.executed')} executed")
        if self.quarantined_units:
            parts.append(f"{len(self.quarantined_units)} QUARANTINED "
                         f"(poison)")
        walls = sorted(r["wall_s"] for r in self.telemetry.records
                       if r["event"] in TERMINAL_EVENTS and "wall_s" in r)
        if walls:
            p50, p90, p99 = (walls[math.ceil(p * len(walls) / 100) - 1]
                             for p in (50, 90, 99))
            parts.append(f"exec p50 {p50:.2f}s / p90 {p90:.2f}s / "
                         f"p99 {p99:.2f}s")
        return "pipeline: " + ", ".join(parts)

    # -- transport health (CLI exit-code plumbing) ---------------------------

    @property
    def quarantined(self) -> bool:
        """Did the last sweep complete with poison units quarantined?"""
        return bool(self.quarantined_units)

    @property
    def events(self) -> List[str]:
        """Transport notes: reaps, dead workers, quarantines (last run)."""
        return self.transport.events
