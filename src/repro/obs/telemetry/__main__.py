"""Event-log checker CLI (the telemetry analogue of
``python -m repro.obs.trace``)::

    python -m repro.obs.telemetry TELEMETRY_DIR_OR_FILE [--trace OUT.json]

Reads every ``events-*.jsonl`` slice, runs the schema + lifecycle
validation (:func:`~repro.obs.telemetry.events.validate_events` --
every claimed/started unit must reach a terminal event, abandoned
executions must be explained by lease reaps/retries), and exits 1 on
any problem.  ``--trace OUT.json`` additionally exports the wall-clock
Chrome trace, which ``python -m repro.obs.trace OUT.json`` can then
verify -- the pairing CI's harness-smoke job runs.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..trace import write_trace
from .events import read_events, validate_events
from .harness_trace import harness_trace_events


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    trace_out = None
    if "--trace" in argv:
        i = argv.index("--trace")
        if i + 1 >= len(argv):
            print("--trace needs an output path", file=sys.stderr)
            return 2
        trace_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    if len(argv) != 1:
        print("usage: python -m repro.obs.telemetry DIR_OR_FILE "
              "[--trace OUT.json]", file=sys.stderr)
        return 2

    source = argv[0]
    problems: List[str] = []
    records = read_events(source, problems=problems)
    if not records:
        print(f"{source}: no telemetry records found", file=sys.stderr)
        return 1
    problems += validate_events(records)
    if trace_out is not None:
        write_trace(trace_out, harness_trace_events(records))
    if problems:
        for p in problems:
            print(f"{source}: {p}", file=sys.stderr)
        return 1
    workers = {r.get("worker") for r in records}
    units = {r["unit"] for r in records if r.get("unit")}
    print(f"{source}: OK ({len(records)} events, {len(workers)} "
          f"worker(s), {len(units)} unit(s))")
    if trace_out is not None:
        print(f"{source}: harness trace written to {trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
