"""Wall-clock Chrome-trace exporter for the harness timeline.

:func:`harness_trace_events` turns a merged telemetry record stream
(:func:`~repro.obs.telemetry.events.read_events`) into the same Chrome
trace-event JSON :mod:`repro.obs.trace` emits for simulated time --
so one toolchain (Perfetto, ``python -m repro.obs.trace``) views both
timelines.  The two exporters answer different questions and use
different clocks: ``obs/trace.py`` maps one *simulated cycle* to one
microsecond; this one maps one *wall-clock* microsecond to one
microsecond, showing where the sweep's real time went -- stages,
stragglers, reaped leases, injected hazards.

Layout: a single ``harness`` process (pid 1) with one thread row per
telemetry session (the driver's, and a chaos child's hazard plan).
``sweep.*`` / ``stage.*`` / ``unit.started``..terminal pairs become
nested B/E spans; everything else (claims, memo hits, reaped leases,
watchdog reports) becomes an instant.  A SIGKILLed writer leaves spans open --
the exporter closes them at the last timestamp seen, exactly like
``TraceSink.trace_events``, so the output always passes
:func:`repro.obs.trace.validate_trace`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["harness_trace_events"]

#: Event pairs that open/close a span on their worker's track.
_OPENERS = {"sweep.started": "sweep", "stage.started": None,
            "unit.started": None}
_CLOSERS = {"sweep.finished": "sweep", "stage.finished": None,
            "unit.finished": None, "unit.failed": None}


def _span_name(rec: dict) -> str:
    """Display name for the span a record opens or closes."""
    event = rec["event"]
    if event.startswith("sweep."):
        return "sweep"
    if event.startswith("stage."):
        return f"stage:{rec.get('stage', '?')}"
    return str(rec.get("spec") or (rec.get("unit") or "unit")[:12])


def harness_trace_events(records: Iterable[dict]) -> List[dict]:
    """Render telemetry records as Chrome trace events (see module
    docstring).  ``records`` must be time-ordered, as
    :func:`read_events` returns them; unknown/malformed records are
    skipped rather than failing the export."""
    records = [r for r in records
               if isinstance(r, dict) and isinstance(r.get("event"), str)
               and isinstance(r.get("ts"), (int, float))]
    out: List[dict] = [{"ph": "M", "name": "process_name", "pid": 1,
                        "args": {"name": "harness"}}]
    if not records:
        return out

    t0 = min(r["ts"] for r in records)
    tids: Dict[str, int] = {}
    last_ts: Dict[int, float] = {}
    open_spans: Dict[int, List[Tuple[str, str]]] = {}

    def tid_for(rec: dict) -> int:
        worker = str(rec.get("worker", "?"))
        tid = tids.get(worker)
        if tid is None:
            tid = tids[worker] = len(tids) + 1
            out.append({"ph": "M", "name": "thread_name", "pid": 1,
                        "tid": tid, "args": {"name": worker}})
            open_spans[tid] = []
        return tid

    def stamp(tid: int, ts: float) -> float:
        """Microseconds since sweep start, clamped monotonic per track
        (merged multi-writer clocks can jitter by a few us)."""
        us = round(max((ts - t0) * 1e6, last_ts.get(tid, 0.0)), 3)
        last_ts[tid] = us
        return us

    def args_of(rec: dict) -> dict:
        return {k: v for k, v in rec.items()
                if k not in ("v", "seq", "ts", "worker", "event")}

    for rec in records:
        event = rec["event"]
        tid = tid_for(rec)
        ts = stamp(tid, rec["ts"])
        if event in _OPENERS:
            name = _span_name(rec)
            ev = {"ph": "B", "name": name, "cat": "harness",
                  "pid": 1, "tid": tid, "ts": ts}
            extra = args_of(rec)
            if extra:
                ev["args"] = extra
            out.append(ev)
            open_spans[tid].append((event.split(".")[0], name))
        elif event in _CLOSERS:
            kind = event.split(".")[0]
            # sweep/stage/unit spans nest; unwind to the matching
            # opener if it is on this track's stack, else (a pool
            # terminal with no instrumented started, a worker whose
            # started landed in a lost torn line) fall back to an
            # instant so the trace stays valid.
            stack = open_spans[tid]
            if any(k == kind for k, _ in stack):
                while stack:
                    k, name = stack.pop()
                    out.append({"ph": "E", "name": name, "cat": "harness",
                                "pid": 1, "tid": tid, "ts": ts})
                    if k == kind:
                        break
            else:
                ev = {"ph": "i", "name": event, "cat": "harness",
                      "s": "t", "pid": 1, "tid": tid, "ts": ts}
                extra = args_of(rec)
                if extra:
                    ev["args"] = extra
                out.append(ev)
        else:
            ev = {"ph": "i", "name": event, "cat": "harness", "s": "t",
                  "pid": 1, "tid": tid, "ts": ts}
            extra = args_of(rec)
            if extra:
                ev["args"] = extra
            out.append(ev)

    # Close whatever a SIGKILLed writer left open, at the last
    # timestamp on that track -- every B must have an E.
    for tid, stack in open_spans.items():
        while stack:
            _, name = stack.pop()
            out.append({"ph": "E", "name": name, "cat": "harness",
                        "pid": 1, "tid": tid,
                        "ts": last_ts.get(tid, 0.0)})
    return out
