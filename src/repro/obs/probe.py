"""The Probe: the one object producers record observability through.

A probe is bound to a *track* (one simulated processor, one CMP's
memory side, one pair channel, ...) and exposes the full recording
surface -- counters, exclusive time-category spans, instant events,
classification records.  Which of those are actually retained is
decided by the :class:`~repro.obs.sink.Sink` that minted the probe: it
fills (or leaves ``None``) the probe's collector slots, so a disabled
facility costs one attribute test per call and no allocation.  Spans
have one collector, the track's time breakdown (``bd``); a line
profile is that breakdown's subclass, never a second clock beside it.

Probes must never touch the simulation engine: every method is pure
recording, which is what keeps simulated cycle counts bit-identical
whether observability is off, aggregating, tracing or profiling.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .aggregate import ClassStats, Counter, TimeBreakdown

__all__ = ["Probe", "NULL_PROBE"]


class Probe:
    """Per-track recording front end (see module docstring).

    ``bd`` / ``counters`` / ``classes`` are the aggregate collectors
    (``None`` when the sink drops that facility); ``bd`` is the one
    span collector.  ``emitter`` is the timeline sink hook (``None``
    unless a trace is being recorded).  ``prof`` is ``bd`` itself when
    that is a :class:`~repro.obs.profile.TrackProfile` (the
    ``"profile"`` sink spec), else ``None``: the handle VMs are bound
    through and the memory fast paths test.  ``spans`` is the live
    stack of open spans, innermost last (``bd``'s own list, to read
    only; empty for good when span collection is off): a producer that
    asks "is a span open?" once per memory access tests it directly.
    """

    __slots__ = ("track", "bd", "counters", "classes", "emitter", "prof",
                 "spans")

    def __init__(self, track: str,
                 bd: Optional[TimeBreakdown] = None,
                 counters: Optional[Counter] = None,
                 classes: Optional[ClassStats] = None,
                 emitter=None, prof=None):
        self.track = track
        self.bd = bd
        self.counters = counters
        self.classes = classes
        self.emitter = emitter
        self.prof = prof
        self.spans = bd._stack if bd is not None else ()

    # -- counters ------------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        """Increment a named counter on this track."""
        if self.counters is not None:
            self.counters.add(key, n)

    # -- exclusive time-category spans ---------------------------------------

    def push(self, category: str, now: float) -> None:
        """Enter a time category (exclusive-span semantics)."""
        if self.bd is not None:
            self.bd.push(category, now)
        if self.emitter is not None:
            self.emitter.emit_begin(self.track, category, now)

    def pop(self, now: float) -> Optional[str]:
        """Leave the current category; returns its name (None when
        span collection is off).  Popping with no open span while span
        collection is on is always a producer bug -- it would silently
        desynchronize span accounting -- so it raises."""
        if self.bd is None:
            return None
        if not self.spans:
            raise ValueError(
                f"pop with no open span on track {self.track!r}")
        name = self.bd.pop(now)
        if self.emitter is not None:
            self.emitter.emit_end(self.track, name, now)
        return name

    def switch(self, category: str, now: float) -> None:
        """Replace the top category (settling time first).  Like
        :meth:`pop`, switching with no open span while span collection
        is on raises -- there is nothing to replace."""
        if self.bd is None:
            return
        if not self.spans:
            raise ValueError(
                f"switch with no open span on track {self.track!r}")
        replaced = self.bd.current
        self.bd.switch(category, now)
        if self.emitter is not None:
            self.emitter.emit_end(self.track, replaced, now)
            self.emitter.emit_begin(self.track, category, now)

    def close(self, now: float) -> None:
        """Finalize span accounting at end of simulation."""
        if self.bd is not None:
            open_cats = self.bd.stack
            self.bd.close(now)
            if self.emitter is not None:
                self.emitter.emit_close(self.track, open_cats, now)

    def transfer(self, src: str, dst: str, amount: float) -> None:
        """Post-hoc reattribution of span time (aggregate totals only;
        an already-recorded timeline is not rewritten)."""
        if self.bd is not None:
            self.bd.reattribute(src, dst, amount)

    # -- profiling -----------------------------------------------------------

    def mem_level(self, level: str) -> None:
        """Tag the open "memory" span with the level the request was
        resolved at (l1/l2/local/remote/remote3/merged)."""
        if self.prof is not None:
            self.prof.mem_level(level)

    @property
    def depth(self) -> int:
        """Span-stack depth (0 when span collection is off)."""
        return len(self.spans)

    @property
    def current(self) -> str:
        """Innermost active category ('busy' when off or at depth 0)."""
        return self.bd.current if self.bd is not None else "busy"

    @property
    def closed(self) -> bool:
        """Span accounting finalized?  (True when collection is off,
        so collectors can skip their close-if-open step.)"""
        return self.bd.closed if self.bd is not None else True

    def get(self, category: str) -> float:
        """Aggregated time in one category (0.0 when off)."""
        return self.bd.get(category) if self.bd is not None else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Aggregated category -> time snapshot (empty when off)."""
        return self.bd.as_dict() if self.bd is not None else {}

    # -- instants ------------------------------------------------------------

    def instant(self, name: str, now: float, args: Optional[dict] = None) -> None:
        """Record a point event on the simulated timeline (trace-only;
        dropped by aggregate/null sinks)."""
        if self.emitter is not None:
            self.emitter.emit_instant(self.track, name, now, args)

    # -- fault injection -----------------------------------------------------

    def fault(self, kind: str, now: float,
              args: Optional[dict] = None) -> None:
        """Record one injected fault (chaos runs): a ``fault.<kind>``
        counter plus a timeline instant, so traces show exactly when
        each injection landed."""
        if self.counters is not None:
            self.counters.add(f"fault.{kind}")
        if self.emitter is not None:
            self.emitter.emit_instant(self.track, f"fault.{kind}", now,
                                      args)

    # -- classification ------------------------------------------------------

    def classify(self, fetcher: str, kind: str, outcome: str,
                 now: float = 0.0) -> None:
        """Record one Figure-3/5 fill classification."""
        if self.classes is not None:
            self.classes.record(fetcher, kind, outcome)
        if self.emitter is not None:
            self.emitter.emit_instant(
                self.track, f"classify.{fetcher}-{kind}-{outcome}", now, None)

    def __repr__(self) -> str:
        on = [s for s in ("bd", "counters", "classes", "emitter", "prof")
              if getattr(self, s) is not None]
        return f"Probe({self.track!r}, on={on})"


#: Shared do-nothing probe: the default for producers constructed
#: outside a run context (no collectors, no emitter).
NULL_PROBE = Probe("null")
