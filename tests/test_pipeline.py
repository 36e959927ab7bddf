"""ExecutionPipeline effectiveness accounting: summary()/events()/
rt_stats counters for dedup, resume, memo hit/miss -- exercised
directly instead of only through the transport suites."""

import pytest

from repro.config import PAPER_MACHINE
from repro.harness.checkpoint import CheckpointJournal, MemoStore
from repro.harness.jobs import RunSpec
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.transport import SerialTransport

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _spec(config="single"):
    return RunSpec.make("cg", config, size="test", cfg=CFG)


def test_dedup_counters_and_summary():
    pipe = ExecutionPipeline(transport=SerialTransport())
    runs = pipe.run([_spec(), _spec(), _spec("G0")])
    assert len(runs) == 3
    assert runs[0].cycles == runs[1].cycles     # fanned-out shared result
    c = pipe.counters
    assert c.get("unit.planned") == 3
    assert c.get("unit.deduped") == 1
    assert c.get("unit.executed") == 2
    s = pipe.summary()
    assert "3 unit(s)" in s and "1 deduped" in s and "2 executed" in s


def test_memo_hit_miss_counters(tmp_path):
    memo = MemoStore(tmp_path / "memo")
    first = ExecutionPipeline(memo=memo)
    first.run([_spec()])
    assert first.counters.get("memo.miss") == 1
    assert first.counters.get("memo.hit") == 0
    assert "memo 0 hit(s) / 1 miss(es)" in first.summary()

    second = ExecutionPipeline(memo=MemoStore(tmp_path / "memo"))
    second.run([_spec()])
    assert second.counters.get("memo.hit") == 1
    assert second.counters.get("unit.executed") == 0
    assert "memo 1 hit(s) / 0 miss(es)" in second.summary()


def test_resume_counters(tmp_path):
    journal = CheckpointJournal(tmp_path / "ckpt")
    ExecutionPipeline(journal=journal).run([_spec(), _spec("G0")])

    resumed = ExecutionPipeline(
        journal=CheckpointJournal(tmp_path / "ckpt"))
    resumed.run([_spec(), _spec("G0")])
    assert resumed.counters.get("unit.resumed") == 2
    assert resumed.counters.get("unit.executed") == 0
    assert "2 resumed from checkpoint" in resumed.summary()


def test_rt_stats_shape():
    pipe = ExecutionPipeline()
    assert pipe.rt_stats == {}                  # nothing run yet
    pipe.run([_spec()])
    stats = pipe.rt_stats
    assert set(stats) == {"pipeline"}           # no telemetry session
    assert stats["pipeline"]["unit.planned"] == 1
    assert stats["pipeline"]["unit.executed"] == 1


def test_events_mirror_transport():
    pipe = ExecutionPipeline(transport=SerialTransport())
    pipe.run([_spec()])
    assert pipe.events == []
    pipe.transport.events.append("synthetic note")
    assert pipe.events == ["synthetic note"]
