"""Harness-level (wall-clock) telemetry for the execution pipeline.

Where :mod:`repro.obs` proper observes *simulated* time inside a run,
this package observes the *harness* around runs: which worker executed
which unit when, and how long queue wait / execution / memo lookups
took.  Three surfaces, one session object (:class:`Telemetry`):

* **event log** -- versioned JSONL lifecycle records, one file per
  writer in a shared ``telemetry/`` area (:mod:`.events`);
* **metrics** -- counters/gauges/histograms with exact p50/p90/p99,
  folded into ``ExecutionPipeline.rt_stats`` (:mod:`.metrics`);
* **wall-clock Chrome trace** -- one track per worker, exported from
  an event log (live or finished) by the checker below with
  ``--trace OUT.json`` (:mod:`.harness_trace`).

Disabled is the default and costs one no-op call per record site
(:data:`NULL_TELEMETRY`); enabling never perturbs the simulation, so
cycle counts are bit-identical either way.

Validate an event log (schema + every-started-unit-reaches-a-terminal
lifecycle) from the command line::

    python -m repro.obs.telemetry DIR [--trace OUT.json]
"""

from .events import (EVENT_TYPES, SCHEMA_VERSION, TERMINAL_EVENTS, EventLog,
                     event_files, read_events, validate_events)
from .harness_trace import harness_trace_events
from .metrics import Histogram, MetricsRegistry
from .session import NULL_TELEMETRY, NullTelemetry, Telemetry, worker_id

__all__ = [
    "SCHEMA_VERSION", "EVENT_TYPES", "TERMINAL_EVENTS",
    "EventLog", "event_files", "read_events", "validate_events",
    "Histogram", "MetricsRegistry",
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "worker_id",
    "harness_trace_events",
]
