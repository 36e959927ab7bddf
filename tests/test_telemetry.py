"""Harness telemetry: event log schema + lifecycle, the sweep summary
read from it, harness Chrome trace -- and the non-negotiable: telemetry
must never change a simulated cycle count."""

import json
import os
import time

import pytest

from repro.config import PAPER_MACHINE
from repro.harness.jobs import RunSpec
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import (DirQueueTransport, PoolTransport,
                                     SerialTransport)
from repro.obs.telemetry import (EVENT_TYPES, NULL_TELEMETRY,
                                 TERMINAL_EVENTS, Telemetry,
                                 harness_trace_events, read_events,
                                 validate_events)
from repro.obs.telemetry.__main__ import main as telemetry_main
from repro.obs.trace import validate_trace

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs():
    return [RunSpec.make("cg", c, size="test", cfg=CFG)
            for c in ("single", "G0")]


@pytest.fixture(scope="module")
def golden():
    """Telemetry-off serial cycles: the bits every telemetry
    configuration must reproduce exactly."""
    runs = ExecutionPipeline(transport=SerialTransport()).run(_specs())
    return [r.cycles for r in runs]


# -- sessions and the event log ----------------------------------------------

def test_emit_rejects_unknown_event():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.emit("unit.exploded")


def test_null_telemetry_is_inert(tmp_path):
    NULL_TELEMETRY.emit("unit.started", unit="k")
    NULL_TELEMETRY.close()
    assert NULL_TELEMETRY.records == ()
    assert not NULL_TELEMETRY.enabled


def test_event_log_multi_writer_roundtrip(tmp_path):
    """Two concurrent writers append to their own slices; the merged
    read is (ts, worker, seq)-ordered and survives a torn line."""
    a = Telemetry(root=tmp_path, worker="a")
    b = Telemetry(root=tmp_path, worker="b")
    a.emit("sweep.started")
    b.emit("stage.started", stage="dispatch")
    a.emit("unit.started", unit="k1")
    a.emit("unit.finished", unit="k1", wall_s=0.5)
    b.emit("stage.finished", stage="dispatch")
    a.close(), b.close()
    # a SIGKILLed writer's torn final line
    with open(tmp_path / "events-dead.jsonl", "w") as fh:
        fh.write('{"v": 1, "seq": 1, "ts": 1.0, "worker": "dead", "ev')
    problems = []
    records = read_events(tmp_path, problems=problems)
    assert len(records) == 5
    assert any("torn" in p for p in problems)
    assert validate_events(records) == []
    seqs = [r["seq"] for r in records if r["worker"] == "a"]
    assert seqs == sorted(seqs)


def test_validate_catches_missing_terminal():
    recs = [{"v": 1, "seq": 1, "ts": 1.0, "worker": "w",
             "event": "unit.started", "unit": "k1"}]
    assert any("terminal" in p for p in validate_events(recs))


def test_validate_catches_bad_schema():
    assert any("version" in p for p in validate_events(
        [{"v": 99, "seq": 1, "ts": 1.0, "worker": "w",
          "event": "unit.finished", "unit": "k"}]))
    assert any("unknown event" in p for p in validate_events(
        [{"v": 1, "seq": 1, "ts": 1.0, "worker": "w",
          "event": "unit.vanished"}]))
    assert any("seq" in p for p in validate_events(
        [{"v": 1, "seq": 2, "ts": 1.0, "worker": "w",
          "event": "sweep.started"},
         {"v": 1, "seq": 2, "ts": 2.0, "worker": "w",
          "event": "sweep.finished"}]))


def test_abandoned_execution_needs_explanation():
    """started twice / finished once is only valid with a lease.reaped
    (or unit.retried) record covering the abandoned half-run."""
    base = [
        {"v": 1, "seq": 1, "ts": 1.0, "worker": "w1",
         "event": "unit.started", "unit": "k"},
        {"v": 1, "seq": 1, "ts": 5.0, "worker": "w2",
         "event": "unit.started", "unit": "k"},
        {"v": 1, "seq": 2, "ts": 6.0, "worker": "w2",
         "event": "unit.finished", "unit": "k"},
    ]
    assert validate_events(base) != []
    explained = base + [{"v": 1, "seq": 2, "ts": 4.0, "worker": "d",
                         "event": "lease.reaped", "unit": "k"}]
    assert validate_events(explained) == []


# -- pipeline integration ----------------------------------------------------

def test_serial_sweep_records_full_lifecycle(golden):
    tel = Telemetry()
    pipe = ExecutionPipeline(transport=SerialTransport(), telemetry=tel)
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden          # determinism: on
    events = [r["event"] for r in tel.records]
    assert events[0] == "sweep.started"
    assert events[-1] == "sweep.finished"
    assert events.count("unit.planned") == 2
    assert events.count("unit.started") == 2
    assert events.count("unit.finished") == 2
    assert validate_events(tel.records) == []
    assert pipe.rt_stats == {"pipeline": pipe.counters.as_dict()}
    assert pipe.rt_stats["pipeline"]["unit.executed"] == 2
    assert "exec p50" in pipe.summary()
    # every recorded event type is schema-known
    assert {r["event"] for r in tel.records} <= EVENT_TYPES


def test_pool_sweep_is_bit_identical_with_telemetry(golden):
    tel = Telemetry()
    pipe = ExecutionPipeline(transport=PoolTransport(jobs=2),
                             telemetry=tel)
    runs = pipe.run(_specs())
    assert [r.cycles for r in runs] == golden       # determinism: -j 2
    events = [r["event"] for r in tel.records]
    # the child's unit is recorded at harvest, the driver's as it runs
    assert events.count("unit.claimed") == events.count("unit.started") == 1
    assert events.count("unit.finished") == 2
    assert validate_events(tel.records) == []


def test_summary_percentiles_are_the_nearest_rank_of_terminal_wall_s(
        monkeypatch):
    """The summary's ``exec p50/p90/p99`` is read off the event log:
    the nearest rank over the ``wall_s`` of the session's terminal
    events -- a unit that failed, and units a pool child ran, whose
    terminals the driver writes at harvest, timed by the child."""
    import repro.harness.transport as ht
    driver, real = os.getpid(), ht.execute_spec

    def slow_in_the_driver(spec):
        if os.getpid() == driver:           # leave units to the child
            time.sleep(0.2)
        return real(spec)

    monkeypatch.setattr(ht, "execute_spec", slow_in_the_driver)
    specs = [RunSpec.make("ep", "single", size="test", cfg=CFG,
                          params=dict(n=n)) for n in range(48, 53)]
    specs.append(RunSpec.make("cg", "single", size="test", cfg=CFG,
                              timeout_cycles=300, capture_errors=True))
    tel = Telemetry()
    pipe = ExecutionPipeline(transport=PoolTransport(jobs=2),
                             telemetry=tel)
    assert pipe.run(specs)[-1].error_kind == "hang"
    terminals = [r for r in tel.records if r["event"] in TERMINAL_EVENTS]
    assert len(terminals) == len(specs)
    assert "unit.failed" in {r["event"] for r in terminals}
    started = sum(r["event"] == "unit.started" for r in tel.records)
    assert started < len(terminals)             # some were harvested
    walls = sorted(r["wall_s"] for r in terminals if "wall_s" in r)
    n = len(walls)
    p50, p90, p99 = (walls[-(-p * n // 100) - 1] for p in (50, 90, 99))
    assert pipe.summary().endswith(
        f"exec p50 {p50:.2f}s / p90 {p90:.2f}s / p99 {p99:.2f}s")


def test_spool_sweep_writes_shared_event_log(golden, tmp_path):
    root = tmp_path / "sp"
    area = root / "telemetry"
    tel = Telemetry(root=area, worker="driver-1")
    pipe = ExecutionPipeline(transport=DirQueueTransport(root),
                             telemetry=tel)
    runs = pipe.run(_specs())
    tel.close()
    assert [r.cycles for r in runs] == golden     # determinism: spool
    records = read_events(area)
    assert validate_events(records) == []
    assert telemetry_main([str(area)]) == 0
    assert [r["event"] for r in records].count("unit.finished") == 2


# -- harness Chrome trace ----------------------------------------------------

def test_harness_trace_is_valid_chrome_trace(tmp_path):
    tel = Telemetry()
    pipe = ExecutionPipeline(transport=SerialTransport(), telemetry=tel)
    pipe.run(_specs())
    events = harness_trace_events(tel.records)
    assert validate_trace(events) == []
    names = {e.get("name") for e in events}
    assert "sweep" in names
    assert sum(1 for e in events if e.get("ph") == "M") >= 2


def test_harness_trace_closes_sigkilled_spans():
    """A worker killed mid-unit leaves an open B; the exporter must
    still produce matched-pair, monotonic trace JSON."""
    records = [
        {"v": 1, "seq": 1, "ts": 10.0, "worker": "w1",
         "event": "unit.claimed", "unit": "k" * 64},
        {"v": 1, "seq": 2, "ts": 10.5, "worker": "w1",
         "event": "unit.started", "unit": "k" * 64, "spec": "cg/G0"},
        # no terminal: w1 was SIGKILLed here
        {"v": 1, "seq": 1, "ts": 12.0, "worker": "driver",
         "event": "lease.reaped", "unit": "k" * 64},
        {"v": 1, "seq": 2, "ts": 12.1, "worker": "driver",
         "event": "unit.started", "unit": "k" * 64, "spec": "cg/G0"},
        {"v": 1, "seq": 3, "ts": 13.0, "worker": "driver",
         "event": "unit.finished", "unit": "k" * 64, "wall_s": 0.9},
    ]
    assert validate_trace(harness_trace_events(records)) == []
    # ...also when the open span's last stamp rounds *up*: the closing
    # E is stamped as the B was, not 0.4 ns before it.
    records[1]["ts"] = 10.5 + 6e-10
    assert validate_trace(harness_trace_events(records)) == []


def test_checker_cli_validates_and_exports(tmp_path, capsys):
    tel = Telemetry(root=tmp_path / "t", worker="w")
    tel.emit("unit.started", unit="k1", spec="cg/single")
    tel.emit("unit.finished", unit="k1", wall_s=0.1)
    tel.close()
    trace_out = tmp_path / "harness.json"
    assert telemetry_main([str(tmp_path / "t"),
                           "--trace", str(trace_out)]) == 0
    assert "OK" in capsys.readouterr().out
    data = json.loads(trace_out.read_text())
    assert validate_trace(data) == []


def test_checker_cli_rejects_unterminated_unit(tmp_path, capsys):
    tel = Telemetry(root=tmp_path / "t", worker="w")
    tel.emit("unit.claimed", unit="k1")
    tel.emit("unit.started", unit="k1")
    tel.close()
    assert telemetry_main([str(tmp_path / "t")]) == 1
    assert "terminal" in capsys.readouterr().err
