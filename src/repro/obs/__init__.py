"""Observability layer: probes, sinks, and timeline export.

All metric, timing, and classification collection in the simulator goes
through this package.  Producers (the engine, the memory system, the
thread shells, the slipstream channel) hold a :class:`Probe` per track
and record three kinds of facts:

* **counters**   -- named integer tallies (``probe.count``);
* **spans**      -- exclusive time-category intervals with stack
  semantics (``probe.push`` / ``pop`` / ``switch`` / ``close``), the
  paper's Figure 2/4 execution-time accounting;
* **instants**   -- point events on the simulated timeline
  (``probe.instant``): coherence transactions, token insert/consume,
  A-stream skips, divergence and recovery;

plus shared-data **classification** records (``probe.classify``), the
paper's Figure 3/5 Timely/Late/Only taxonomy.

Where the facts go is decided once per run by the :class:`Sink`:

* :class:`AggregateSink` (default) totals everything -- it reproduces
  the historical ``Counter`` / ``TimeBreakdown`` / ``ClassStats``
  outputs exactly;
* :class:`NullSink` drops everything (observability off, near-zero
  cost);
* :class:`TraceSink` aggregates *and* records a Chrome trace-event
  timeline (one track per simulated processor) viewable in Perfetto or
  ``chrome://tracing``;
* :class:`ProfileSink` (the ``"profile"`` spec) aggregates *and*
  attributes every simulated cycle to a (function, source line,
  category, memory level) bucket: each track's breakdown is a
  :class:`TrackProfile`, so one settle clock feeds both.

Invariant: probes only ever *record*; no sink interacts with the event
engine, so simulated cycle counts are bit-identical whichever sink is
installed (pinned by ``tests/test_obs_determinism.py``).

The :mod:`repro.obs.telemetry` subpackage applies the same discipline
to the *harness* around runs -- wall-clock event logs, metrics and
heartbeats for the execution pipeline -- with
:data:`~repro.obs.telemetry.NULL_TELEMETRY` playing NullSink's
zero-cost-off role.
"""

from .aggregate import (CATEGORIES, ClassStats, Counter, FETCHERS, KINDS,
                        OUTCOMES, TimeBreakdown, line_outcome)
from .probe import NULL_PROBE, Probe
from .profile import (MEM_LEVELS, ProfileSink, TrackProfile,
                      collapsed_stacks, line_totals, profile_total,
                      write_collapsed)
from .sink import AggregateSink, NullSink, Sink, make_sink
from .telemetry import (NULL_TELEMETRY, MetricsRegistry, NullTelemetry,
                        Telemetry, harness_trace_events, read_events,
                        validate_events)
from .trace import (TraceSink, merge_traces, trace_json, validate_trace,
                    write_trace)

__all__ = [
    "CATEGORIES", "ClassStats", "Counter", "FETCHERS", "KINDS",
    "OUTCOMES", "TimeBreakdown", "line_outcome",
    "NULL_PROBE", "Probe",
    "AggregateSink", "NullSink", "Sink", "make_sink",
    "TraceSink", "merge_traces", "trace_json", "validate_trace",
    "write_trace",
    "MEM_LEVELS", "ProfileSink", "TrackProfile", "collapsed_stacks",
    "line_totals", "profile_total", "write_collapsed",
    "NULL_TELEMETRY", "MetricsRegistry", "NullTelemetry", "Telemetry",
    "harness_trace_events", "read_events", "validate_events",
]
