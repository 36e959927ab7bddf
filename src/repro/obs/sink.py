"""Sinks: per-run policy for where probe recordings go.

A machine owns exactly one sink for its whole run and mints one
:class:`~repro.obs.probe.Probe` per track from it.  The sink decides
which facilities are live by what it places in the probe's slots:

* :class:`AggregateSink` -- totals only; reproduces the historical
  ``Counter`` / ``TimeBreakdown`` / ``ClassStats`` outputs exactly.
  This is the default, because every figure in the paper is built from
  these aggregates.
* :class:`NullSink` -- observability off; every probe is the shared
  do-nothing :data:`~repro.obs.probe.NULL_PROBE`.
* :class:`~repro.obs.trace.TraceSink` -- an :class:`AggregateSink`
  that additionally records a Chrome trace-event timeline;
* :class:`~repro.obs.profile.ProfileSink` -- an :class:`AggregateSink`
  whose per-track breakdowns also attribute every cycle to a source
  line.

A richer view is one more :class:`AggregateSink` subclass: sinks do
not compose.

Sinks are cheap, single-process objects; results that must cross a
process boundary (``PoolTransport``) travel as plain data inside
``RunResult``, never as the sink itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from .aggregate import ClassStats, Counter, TimeBreakdown
from .probe import NULL_PROBE, Probe

__all__ = ["Sink", "NullSink", "AggregateSink", "make_sink"]


class Sink:
    """Base sink: mints probes and owns the run-wide collectors.

    Subclasses override :meth:`_make_probe` (and optionally
    :meth:`_on_new_track`) -- the caching in :meth:`probe` and the
    public query surface are shared.
    """

    def __init__(self):
        self.classes = ClassStats()
        self.counters: Dict[str, Counter] = {}
        self.breakdowns: Dict[str, TimeBreakdown] = {}
        self._probes: Dict[str, Probe] = {}

    def probe(self, track: str, start: float = 0.0) -> Probe:
        """The probe for ``track`` (created on first request; the
        ``start`` of later requests for the same track is ignored)."""
        p = self._probes.get(track)
        if p is None:
            p = self._probes[track] = self._make_probe(track, start)
            self._on_new_track(track, start)
        return p

    def counter(self, track: str) -> Counter:
        """The counter bag backing ``track`` (shared with its probe,
        so reads through it see everything ``probe.count`` recorded)."""
        c = self.counters.get(track)
        if c is None:
            c = self.counters[track] = Counter()
        return c

    def trace_events(self) -> Optional[List[dict]]:
        """Finalized timeline events, or None for non-tracing sinks."""
        return None

    def profile_data(self) -> Optional[Dict[str, dict]]:
        """Per-track line-profile data, or None for non-profiling
        sinks (see :class:`~repro.obs.profile.ProfileSink`)."""
        return None

    # -- subclass hooks ------------------------------------------------------

    def _make_probe(self, track: str, start: float) -> Probe:
        raise NotImplementedError

    def _on_new_track(self, track: str, start: float) -> None:
        pass


class NullSink(Sink):
    """Observability off: drop everything, as close to free as a call
    into a probe can be.

    Every track shares :data:`NULL_PROBE`, whose collector slots are
    all ``None`` -- each record call is one attribute test.  Queries
    (``counter(track)``, ``classes``) still answer, with zeros.
    """

    def _make_probe(self, track: str, start: float) -> Probe:
        return NULL_PROBE


class AggregateSink(Sink):
    """Totals-only sink: the historical statistics behaviour.

    Each track gets its own :class:`TimeBreakdown` (started at the
    track's first-probe time) and :class:`Counter`; classification
    records from every track pool into one run-wide
    :class:`ClassStats`, exactly as the old per-machine collector did.
    """

    def _make_probe(self, track: str, start: float) -> Probe:
        bd = self.breakdowns[track] = TimeBreakdown(start=start)
        return Probe(track, bd=bd, counters=self.counter(track),
                     classes=self.classes, emitter=self._emitter())

    def _emitter(self):
        return None


def make_sink(spec: Union[None, str, Sink] = None) -> Sink:
    """Resolve a sink selection: None / "aggregate" (default), "null",
    "trace", "profile", or an already-built :class:`Sink`."""
    if isinstance(spec, Sink):
        return spec
    if spec is None or spec == "aggregate":
        return AggregateSink()
    if spec == "null":
        return NullSink()
    if spec == "trace":
        from .trace import TraceSink  # deferred: trace builds on this module
        return TraceSink()
    if spec == "profile":
        from .profile import ProfileSink  # deferred, like trace
        return ProfileSink()
    raise ValueError(f"unknown sink spec {spec!r} (expected 'aggregate', "
                     "'null', 'trace', 'profile', or a Sink)")
