"""Harness-level (wall-clock) telemetry for the execution pipeline.

Where :mod:`repro.obs` proper observes *simulated* time inside a run,
this package observes the *harness* around runs: which stage and
which unit ran when, how long each took, and what went wrong (reaped
leases, quarantined units, corrupt files, injected hazards).  One
record, written through one session object (:class:`Telemetry`):

* **event log** -- versioned JSONL lifecycle records, one file per
  writing process in a ``telemetry/`` area (:mod:`.events`); the
  sweep summary's ``exec p50/p90/p99`` is read from its terminal
  events;
* **wall-clock Chrome trace** -- the same log drawn one track per
  writer, exported (live or finished) by the checker below with
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
from .session import NULL_TELEMETRY, NullTelemetry, Telemetry, worker_id

__all__ = [
    "SCHEMA_VERSION", "EVENT_TYPES", "TERMINAL_EVENTS",
    "EventLog", "event_files", "read_events", "validate_events",
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "worker_id",
    "harness_trace_events",
]
