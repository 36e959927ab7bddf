"""Cycle-exact source-line profiling (``ProfileSink``).

Attributes **simulated** cycles -- exactly, not sampled -- to
(function, SlipC source line, time category, memory level) tuples, per
track.  Three information streams meet here:

* the VM's dispatch loop, fetching through a tallying view of the
  instruction stream, records every instruction's static cost (and the
  rt/print surcharge) under its (function, line) key into
  ``TrackProfile.pending`` -- see :meth:`repro.interp.interpreter.VM.run`;
* the shell's synchronous memory fast paths report their per-access
  busy charge and L2-stall portion through :meth:`TrackProfile.fast`,
  keyed to the access site;
* the probe's span push/pop/switch/close calls drive the track's one
  settle clock -- :class:`TrackProfile` *is* the track's
  :class:`~repro.obs.aggregate.TimeBreakdown` -- so every elapsed
  simulated interval lands in exactly one (line, category, level)
  bucket and the per-line totals sum to the track's breakdown.

At a depth-0 settle (the interval was "busy" time) the pending VM
tally and fast-path charges are drained first -- each capped by the
actually-elapsed interval, so a recovery interrupt that lands mid
debt-flush can never attribute cycles that never became simulated time
-- and whatever remains (runtime-call surcharges, L1-probe hits,
suppressed-store charges) is attributed to the VM's current source
position.  Inside a span, the interval is attributed to the position
captured when the span was entered; for "memory" spans the memory
system's resolution level (l1/l2/local/remote/remote3, via
:meth:`~repro.obs.probe.Probe.mem_level`) splits the bucket further.

Like every ``repro.obs`` facility, profiling only records: it never
touches the engine, so simulated cycles are bit-identical with the
profiler on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .aggregate import TimeBreakdown
from .probe import Probe
from .sink import AggregateSink

__all__ = ["TrackProfile", "ProfileSink", "LineKey", "line_totals",
           "collapsed_stacks", "write_collapsed", "profile_total",
           "MEM_LEVELS"]

#: Memory-level buckets in display order: CMP-local hits, local home
#: memory, clean remote (2-hop), dirty remote (3-hop), merged/other.
MEM_LEVELS = ("l1", "l2", "local", "remote", "remote3", "merged")

#: A profile data key: (function name, source line, category, level).
LineKey = Tuple[str, int, str, str]

_NOPOS = ("", 0)


class TrackProfile(TimeBreakdown):
    """A track's :class:`~repro.obs.aggregate.TimeBreakdown` that also
    attributes every interval it settles to a source line.

    The base keeps the one settle clock -- category stack, closed and
    time-went-backwards checks, category totals.  What is the
    profile's own: ``_at``, the (function, line) each open span was
    entered at (parallel to the category stack); ``data``, (func,
    line, category, level) -> simulated cycles; ``pending``, the
    (func, line) -> busy-cycles dict the VM tallies into (shared by
    identity with ``vm.profile``); ``pending_fast``, fast-path L2
    stalls awaiting the next depth-0 settle.
    """

    __slots__ = ("track", "vm", "data", "pending", "pending_fast", "_at",
                 "_mem_level", "_lastpos")

    def __init__(self, track: str, start: float = 0.0):
        super().__init__(start)
        self.track = track
        self.vm = None
        self.data: Dict[LineKey, float] = {}
        self.pending: Dict[Tuple[str, int], float] = {}
        self.pending_fast: Dict[Tuple[Tuple[str, int], str], float] = {}
        self._at: List[Tuple[str, int]] = []
        self._mem_level: Optional[str] = None
        self._lastpos: Tuple[str, int] = _NOPOS

    # -- wiring ----------------------------------------------------------

    def bind_vm(self, vm) -> None:
        """Adopt a VM: share the pending tally into it (``vm.profile``)
        and read source positions from it at span boundaries.

        Setting ``vm.profile`` also takes precedence over the
        generated-code tier: ``VM.run()`` checks it before the
        compiled-function table, so a profiled VM always interprets,
        tallying per line as it fetches (the generated code folds
        per-line charges into block accumulators and cannot attribute
        them).  Cycle totals are identical either way -- asserted by
        ``tests/test_interp_compile.py``."""
        vm.profile = self.pending
        self.vm = vm

    def _pos(self) -> Tuple[str, int]:
        """Current (function, line) of the bound VM (sticky: the last
        known position is reused when no frame is live)."""
        vm = self.vm
        if vm is not None:
            at = vm.position()
            if at is not None:
                code, pc = at
                lines = getattr(code, "lines", None)
                line = lines[pc] if lines and pc < len(lines) else 0
                self._lastpos = (code.name, line)
        return self._lastpos

    # -- the span clock, plus entry positions ------------------------------

    def push(self, category: str, now: float) -> None:
        super().push(category, now)
        self._at.append(self._pos())

    def pop(self, now: float) -> str:
        cat = super().pop(now)
        self._at.pop()
        if cat == "memory":
            self._mem_level = None
        return cat

    def switch(self, category: str, now: float) -> None:
        replaced = self.current
        super().switch(category, now)
        if replaced == "memory":
            self._mem_level = None
        if self._at:
            self._at[-1] = self._pos()
        else:
            self._at.append(self._pos())

    def close(self, now: float) -> None:
        super().close(now)
        self._at.clear()

    def mem_level(self, level: str) -> None:
        """Tag the open "memory" span with its resolution level."""
        self._mem_level = level

    def fast(self, busy: float, stall: float, level: str) -> None:
        """Record a synchronous fast-path access at the current site:
        ``busy`` cycles of access charge and ``stall`` cycles of
        ``level``-hit latency (reattributed busy -> memory, mirroring
        the shell's ``fast_mem_cycles`` transfer)."""
        pos = self._pos()
        pend = self.pending
        pend[pos] = pend.get(pos, 0.0) + busy
        if stall:
            key = (pos, level)
            pf = self.pending_fast
            pf[key] = pf.get(key, 0.0) + stall

    # -- per-line attribution of each settled interval ---------------------

    def _add(self, pos: Tuple[str, int], cat: str, level: str,
             dt: float) -> None:
        key = (pos[0], pos[1], cat, level)
        self.data[key] = self.data.get(key, 0.0) + dt

    def _settle(self, now: float) -> None:
        dt = now - self._last
        super()._settle(now)
        if self._stack:
            if dt:
                cat = self._stack[-1]
                level = (self._mem_level or "merged") \
                    if cat == "memory" else ""
                self._add(self._at[-1], cat, level, dt)
            return
        # Depth 0: the interval is busy time.  Drain the fast-path
        # stalls and the VM tally -- each capped by what actually
        # elapsed; an un-elapsed remainder (recovery interrupt mid
        # debt-flush) stays pending for the next settle -- then credit
        # the residual (rt surcharges, direct yields) to the current
        # source position.
        avail = dt
        if self.pending_fast:
            done = []
            for key, c in self.pending_fast.items():
                take = c if c <= avail else avail
                if take:
                    (pos, level) = key
                    self._add(pos, "memory", level, take)
                    avail -= take
                if take == c:
                    done.append(key)
                else:
                    self.pending_fast[key] = c - take
            for key in done:
                del self.pending_fast[key]
        if self.pending:
            done = []
            for pos, c in self.pending.items():
                take = c if c <= avail else avail
                if take:
                    self._add(pos, "busy", "", take)
                    avail -= take
                if take == c:
                    done.append(pos)
                else:
                    self.pending[pos] = c - take
            for pos in done:
                del self.pending[pos]
        if avail:
            self._add(self._pos(), "busy", "", avail)


class ProfileSink(AggregateSink):
    """The ``"profile"`` sink spec: an :class:`AggregateSink` whose
    per-track breakdowns are :class:`TrackProfile` s.

    A profiled run loses no aggregate output, and each line profile is
    settled by the very clock that totals the track's breakdown.
    """

    def _make_probe(self, track: str, start: float) -> Probe:
        tp = self.breakdowns[track] = TrackProfile(track, start)
        return Probe(track, bd=tp, counters=self.counter(track),
                     classes=self.classes, prof=tp)

    def profile_data(self) -> Dict[str, Dict[LineKey, float]]:
        """Plain-data snapshot (picklable, deterministically ordered):
        track -> {(func, line, category, level): cycles}, empty tracks
        omitted."""
        return {track: dict(tp.data)
                for track, tp in self.breakdowns.items() if tp.data}


# ----------------------------------------------------------- shaping

def _stream_of(track: str) -> str:
    """"R"/"A" for shell tracks (name convention ``R3@n1c2``, possibly
    behind a ``bench:cfg:`` prefix in merged profiles), else ""."""
    name = track.rsplit(":", 1)[-1]
    return name[0] if name[:1] in ("R", "A") else ""


def profile_total(profile: Dict[str, Dict[LineKey, float]],
                  category: Optional[str] = None) -> float:
    """Total profiled cycles across tracks (optionally one category)."""
    return sum(c for per_track in profile.values()
               for (_, _, cat, _), c in per_track.items()
               if category is None or cat == category)


def line_totals(profile: Dict[str, Dict[LineKey, float]]
                ) -> Dict[Tuple[str, int], Dict]:
    """Collapse a per-track profile to per-(func, line) rows.

    Each row dict has ``total``, ``busy``, per-category totals under
    ``cats``, memory-level totals under ``levels``, and per-stream
    (R vs A) totals under ``streams``.
    """
    rows: Dict[Tuple[str, int], Dict] = {}
    for track, per_track in profile.items():
        stream = _stream_of(track)
        for (func, line, cat, level), cycles in per_track.items():
            row = rows.get((func, line))
            if row is None:
                row = rows[(func, line)] = {
                    "total": 0.0, "busy": 0.0, "cats": {}, "levels": {},
                    "streams": {"R": 0.0, "A": 0.0}}
            row["total"] += cycles
            if cat == "busy":
                row["busy"] += cycles
            row["cats"][cat] = row["cats"].get(cat, 0.0) + cycles
            if cat == "memory" and level:
                row["levels"][level] = \
                    row["levels"].get(level, 0.0) + cycles
            if stream:
                row["streams"][stream] += cycles
    return rows


def collapsed_stacks(profile: Dict[str, Dict[LineKey, float]],
                     label: str = "run") -> List[str]:
    """Brendan-Gregg collapsed-stack lines: ``label;func;line N COUNT``
    (integer counts, one frame stack per source line), sorted so the
    output is deterministic regardless of dict insertion history."""
    per_line: Dict[Tuple[str, int], float] = {}
    for per_track in profile.values():
        for (func, line, _cat, _level), cycles in per_track.items():
            key = (func, line)
            per_line[key] = per_line.get(key, 0.0) + cycles
    out = []
    for (func, line), cycles in per_line.items():
        count = int(round(cycles))
        if count > 0:
            out.append(f"{label};{func or '<runtime>'};line {line} {count}")
    return sorted(out)


def write_collapsed(path, stacks: List[str]) -> None:
    """Write collapsed-stack lines to ``path`` (flamegraph.pl input)."""
    with open(path, "w") as fh:
        fh.write("\n".join(stacks) + ("\n" if stacks else ""))
