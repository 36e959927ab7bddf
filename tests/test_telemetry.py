"""Harness telemetry: event log schema + lifecycle, metrics, fleet
status, harness Chrome trace -- and the non-negotiable: telemetry must
never change a simulated cycle count."""

import json
import os

import pytest

from repro.cli import main
from repro.config import PAPER_MACHINE
from repro.harness.jobs import RunSpec, SweepPlan
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.status import collect_status, render_status
from repro.harness.transport import (DirQueueTransport, PoolTransport,
                                     SerialTransport, _Spool, run_worker,
                                     telemetry_area)
from repro.obs.telemetry import (EVENT_TYPES, NULL_TELEMETRY, EventLog,
                                 Histogram, MetricsRegistry, Telemetry,
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


# -- metrics -----------------------------------------------------------------

def test_histogram_percentiles_exact():
    h = Histogram()
    for v in range(1, 101):          # 1..100
        h.record(v)
    assert h.percentile(50) == 50
    assert h.percentile(90) == 90
    assert h.percentile(99) == 99
    snap = h.snapshot()
    assert snap["count"] == 100 and snap["min"] == 1 and snap["max"] == 100
    assert snap["p50"] == 50 and snap["mean"] == 50.5


def test_histogram_empty_snapshot():
    assert Histogram().snapshot() == {"count": 0}
    assert Histogram().percentile(50) == 0.0


def test_registry_flat_shape():
    m = MetricsRegistry()
    m.count("unit.retries", 2)
    m.gauge("worker.units_per_s", 3.25)
    m.observe("unit.exec_s", 1.0)
    m.observe("unit.exec_s", 3.0)
    flat = m.flat()
    assert flat["unit.retries"] == 2
    assert flat["worker.units_per_s"] == 3.25
    assert flat["unit.exec_s.count"] == 2
    assert flat["unit.exec_s.p99"] == 3.0
    structured = m.as_dict()
    assert structured["histograms"]["unit.exec_s"]["mean"] == 2.0


# -- sessions and the event log ----------------------------------------------

def test_emit_rejects_unknown_event():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.emit("unit.exploded")


def test_null_telemetry_is_inert(tmp_path):
    NULL_TELEMETRY.emit("unit.started", unit="k")
    NULL_TELEMETRY.observe("x", 1.0)
    NULL_TELEMETRY.heartbeat(force=True)
    NULL_TELEMETRY.close()
    assert NULL_TELEMETRY.records == ()
    assert not NULL_TELEMETRY.enabled


def test_event_log_multi_writer_roundtrip(tmp_path):
    """Two concurrent writers append to their own slices; the merged
    read is (ts, worker, seq)-ordered and survives a torn line."""
    a = Telemetry(root=tmp_path, worker="a")
    b = Telemetry(root=tmp_path, worker="b")
    a.emit("worker.started")
    b.emit("worker.started")
    a.emit("unit.started", unit="k1")
    a.emit("unit.finished", unit="k1", wall_s=0.5)
    b.emit("worker.stopped")
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
          "event": "worker.started"},
         {"v": 1, "seq": 2, "ts": 2.0, "worker": "w",
          "event": "worker.stopped"}]))


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
    # metrics folded into rt_stats next to the pipeline counters
    stats = pipe.rt_stats
    assert stats["pipeline"]["unit.executed"] == 2
    assert stats["harness"]["unit.exec_s.count"] == 2
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
    assert events.count("unit.claimed") == 2
    assert events.count("unit.finished") == 2
    assert validate_events(tel.records) == []


def test_spool_sweep_writes_shared_event_log(golden, tmp_path):
    root = tmp_path / "sp"
    tel = Telemetry(root=telemetry_area(root), worker="driver-1")
    pipe = ExecutionPipeline(
        transport=DirQueueTransport(root, poll_s=0.02), telemetry=tel)
    runs = pipe.run(_specs())
    tel.close()
    assert [r.cycles for r in runs] == golden     # determinism: spool
    records = read_events(telemetry_area(root))
    assert validate_events(records) == []
    assert telemetry_main([str(telemetry_area(root))]) == 0
    status = collect_status(root)
    assert status.units_total == 2 and status.units_done == 2
    assert not status.stalled
    assert "complete" in render_status(status)


def test_worker_records_telemetry_and_heartbeat(tmp_path):
    root = tmp_path / "sp"
    plan = SweepPlan(_specs())
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)
    log_path = tmp_path / "w.log"
    with open(log_path, "w") as fh:
        assert run_worker(root, drain=True, out=fh) == 2
    text = log_path.read_text()
    assert "2 unit(s) executed" in text
    records = read_events(telemetry_area(root))
    events = [r["event"] for r in records]
    assert "worker.started" in events and "worker.stopped" in events
    assert events.count("unit.claimed") == 2
    assert validate_events(records) == []
    beats = list((telemetry_area(root) / "heartbeats").glob("*.json"))
    assert len(beats) == 1
    body = json.loads(beats[0].read_text())
    assert body["role"] == "worker" and body["state"] == "stopped"
    assert body["done"] == 2


# -- fleet status ------------------------------------------------------------

def test_status_detects_stalled_claim(tmp_path):
    """A claim older than the stall threshold with no live worker is a
    straggler and the fleet is stalled; the CLI exits 1 on it."""
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    spec = _specs()[0]
    from repro.harness.jobs import unit_key
    key = unit_key(spec)
    spool.enqueue(key, spec)
    assert spool.try_claim(key)
    old = os.path.getmtime(spool.claim_path(key)) - 120
    os.utime(spool.claim_path(key), (old, old))
    status = collect_status(root, stall_s=30.0)
    assert status.stalled
    assert status.stragglers and status.stragglers[0]["unit"] == key
    assert "STALLED" in render_status(status)
    assert main(["status", str(root)]) == 1


def test_status_healthy_while_fresh_claim(tmp_path):
    """A fresh claim means somebody is working: not stalled, exit 0."""
    root = tmp_path / "sp"
    spool = _Spool(root)
    spool.ensure()
    spec = _specs()[0]
    from repro.harness.jobs import unit_key
    key = unit_key(spec)
    spool.enqueue(key, spec)
    assert spool.try_claim(key)
    status = collect_status(root, stall_s=30.0)
    assert not status.stalled and status.units_claimed == 1
    assert main(["status", str(root)]) == 0


def test_status_rejects_non_spool_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        collect_status(tmp_path / "nope")
    assert main(["status", str(tmp_path / "nope")]) == 2


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
         "event": "worker.started"},
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
