"""Unit tests for the observability layer: probes, sinks, trace export."""

import json

import pytest

from repro.obs import (AggregateSink, ClassStats, Counter, NULL_PROBE,
                       NullSink, Probe, Sink, TimeBreakdown, TraceSink,
                       make_sink, merge_traces, trace_json, validate_trace,
                       write_trace)
from repro.obs.trace import main as trace_main


# ----------------------------------------------------------- TimeBreakdown

def test_breakdown_raises_after_close():
    """Regression: accounting calls on a finished clock must fail loudly
    (previously ``_closed`` was set but never checked)."""
    bd = TimeBreakdown(start=0.0)
    bd.push("lock", 5.0)
    bd.pop(8.0)
    bd.close(10.0)
    assert bd.closed
    with pytest.raises(ValueError, match="push on closed"):
        bd.push("memory", 11.0)
    with pytest.raises(ValueError, match="switch on closed"):
        bd.switch("memory", 11.0)
    with pytest.raises(ValueError, match="pop on closed"):
        bd.pop(11.0)
    with pytest.raises(ValueError, match="close on closed"):
        bd.close(12.0)
    # Totals unchanged by the rejected calls.
    assert bd.as_dict() == {"lock": 3.0, "busy": 7.0}


def test_breakdown_closed_property():
    bd = TimeBreakdown()
    assert not bd.closed
    bd.close(1.0)
    assert bd.closed


def test_breakdown_reattribute_allowed_after_close():
    bd = TimeBreakdown(start=0.0)
    bd.close(10.0)
    bd.reattribute("busy", "memory", 4.0)
    assert bd.as_dict() == {"busy": 6.0, "memory": 4.0}
    with pytest.raises(ValueError):
        bd.reattribute("busy", "memory", 7.0)     # only 6 left
    with pytest.raises(ValueError):
        bd.reattribute("busy", "memory", -1.0)
    bd.reattribute("busy", "memory", 0.0)         # no-op is fine
    assert bd.total() == 10.0


def test_breakdown_stack_snapshot():
    bd = TimeBreakdown(start=0.0)
    bd.push("barrier", 1.0)
    bd.push("memory", 2.0)
    assert bd.stack == ("barrier", "memory")
    bd.stack  # snapshot, not the live list
    bd.pop(3.0)
    assert bd.stack == ("barrier",)


# ----------------------------------------------------------------- Counter

def test_counter_has_slots():
    c = Counter()
    with pytest.raises(AttributeError):
        c.stray = 1


def test_counter_items_view_is_live():
    c = Counter()
    c.add("loads", 3)
    view = c.items()
    assert dict(view) == {"loads": 3}
    c.add("stores")
    assert dict(view) == {"loads": 3, "stores": 1}


def test_counter_merge_uses_public_view():
    a, b = Counter(), Counter()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 5)
    a.merge(b)
    assert a.as_dict() == {"x": 3, "y": 5}
    assert b.as_dict() == {"x": 2, "y": 5}


def test_classstats_items_and_merge():
    a, b = ClassStats(), ClassStats()
    a.record("A", "read", "timely", 2)
    b.record("A", "read", "timely", 1)
    b.record("R", "rdex", "only", 4)
    a.merge(b)
    assert a.get("A", "read", "timely") == 3
    assert a.get("R", "rdex", "only") == 4
    assert dict(b.items()) == {("A", "read", "timely"): 1,
                               ("R", "rdex", "only"): 4}


# ------------------------------------------------------------------ Probe

def test_null_probe_is_inert():
    p = NULL_PROBE
    p.count("anything", 7)
    p.push("lock", 1.0)
    p.switch("memory", 2.0)
    assert p.pop(3.0) is None
    p.close(4.0)
    p.transfer("busy", "memory", 1.0)
    p.instant("mark", 5.0, {"k": 1})
    p.classify("A", "read", "timely")
    assert p.depth == 0
    assert p.current == "busy"
    assert p.closed
    assert p.get("busy") == 0.0
    assert p.as_dict() == {}


def test_probe_records_into_collectors():
    bd, c, cls = TimeBreakdown(start=0.0), Counter(), ClassStats()
    p = Probe("t", bd=bd, counters=c, classes=cls)
    p.count("hits", 2)
    p.push("memory", 1.0)
    assert p.depth == 1 and p.current == "memory"
    assert p.pop(4.0) == "memory"
    p.classify("R", "rdex", "late")
    p.close(10.0)
    p.transfer("busy", "memory", 2.0)
    assert c.get("hits") == 2
    assert p.as_dict() == {"memory": 5.0, "busy": 5.0}
    assert cls.get("R", "rdex", "late") == 1


# ------------------------------------------------------------------ Sinks

def test_null_sink_shares_null_probe():
    s = NullSink()
    assert s.probe("a") is NULL_PROBE
    assert s.probe("b") is NULL_PROBE
    assert s.counter("a").get("anything") == 0
    assert s.trace_events() is None


def test_aggregate_sink_caches_probes_and_pools_classes():
    s = AggregateSink()
    p1 = s.probe("cpu0", start=5.0)
    assert s.probe("cpu0", start=99.0) is p1     # later start ignored
    p2 = s.probe("cpu1")
    p1.classify("A", "read", "only")
    p2.classify("A", "read", "only")
    assert s.classes.get("A", "read", "only") == 2
    p1.count("k")
    assert s.counter("cpu0").get("k") == 1       # same Counter object
    p1.close(7.0)
    assert s.breakdowns["cpu0"].get("busy") == 2.0
    assert s.trace_events() is None


def test_make_sink_resolution():
    assert isinstance(make_sink(), AggregateSink)
    assert isinstance(make_sink("aggregate"), AggregateSink)
    assert isinstance(make_sink("null"), NullSink)
    assert isinstance(make_sink("trace"), TraceSink)
    s = NullSink()
    assert make_sink(s) is s
    with pytest.raises(ValueError, match="unknown sink"):
        make_sink("bogus")
    assert not isinstance(make_sink("null"), AggregateSink)
    assert isinstance(make_sink("trace"), AggregateSink)  # trace aggregates


# -------------------------------------------------------------- TraceSink

def test_trace_sink_also_aggregates():
    s = TraceSink()
    p = s.probe("cpu0", start=0.0)
    p.push("lock", 2.0)
    p.pop(5.0)
    p.close(10.0)
    assert s.breakdowns["cpu0"].as_dict() == {"busy": 7.0, "lock": 3.0}
    assert validate_trace(s.trace_events()) == []


def test_trace_sink_emits_matched_spans():
    s = TraceSink()
    p = s.probe("cpu0", start=0.0)
    p.push("barrier", 1.0)
    p.push("memory", 2.0)
    p.pop(3.0)
    p.pop(4.0)
    p.instant("token.insert", 4.5, {"count": 1})
    p.close(5.0)
    events = s.trace_events()
    assert validate_trace(events) == []
    names = [(e["ph"], e["name"]) for e in events if e["ph"] != "M"]
    assert names == [("B", "busy"), ("B", "barrier"), ("B", "memory"),
                     ("E", "memory"), ("E", "barrier"),
                     ("i", "token.insert"), ("E", "busy")]


def test_trace_sink_switch_replaces_cleanly():
    """A genuine switch emits E(old)+B(new), never a dangling 'E' for
    the implicit base category."""
    s = TraceSink()
    p = s.probe("cpu0", start=0.0)
    p.push("idle", 1.0)
    p.switch("jobwait", 2.0)     # depth 1 -> genuine replace
    p.pop(3.0)
    p.close(4.0)
    events = s.trace_events()
    assert validate_trace(events) == []
    names = [(e["ph"], e["name"]) for e in events if e["ph"] != "M"]
    assert names == [("B", "busy"), ("B", "idle"), ("E", "idle"),
                     ("B", "jobwait"), ("E", "jobwait"), ("E", "busy")]


def test_probe_pop_and_switch_on_empty_stack_raise():
    """Regression: a pop/switch with no open span used to silently
    desynchronize span accounting (pop) or invent a span (switch);
    with any collector live it must fail loudly instead."""
    bd = TimeBreakdown(start=0.0)
    p = Probe("cpu0", bd=bd)
    with pytest.raises(ValueError, match="pop with no open span"):
        p.pop(1.0)
    with pytest.raises(ValueError, match="switch with no open span"):
        p.switch("idle", 1.0)
    # A balanced sequence still works and totals are unperturbed.
    p.push("lock", 2.0)
    p.switch("memory", 3.0)
    assert p.pop(5.0) == "memory"
    with pytest.raises(ValueError, match="pop with no open span"):
        p.pop(6.0)
    p.close(10.0)
    assert p.as_dict() == {"busy": 7.0, "lock": 1.0, "memory": 2.0}


def test_probe_spans_is_the_collectors_live_stack():
    """``Probe.spans`` aliases the collector's own list: it follows
    every push/switch/pop and is emptied -- in place, never rebound --
    by ``close``, for the breakdown and for a line profile (which is
    one)."""
    from repro.obs import TrackProfile
    for bd in (TimeBreakdown(start=0.0), TrackProfile("cpu0", start=0.0)):
        p = Probe("cpu0", bd=bd)
        spans = p.spans
        assert not spans and p.depth == 0
        p.push("lock", 1.0)
        p.push("memory", 2.0)
        assert len(spans) == p.depth == 2
        p.switch("idle", 3.0)
        assert p.pop(4.0) == "idle" and len(spans) == 1
        p.close(5.0)
        assert p.spans is spans and not spans
    assert NULL_PROBE.spans == () and NULL_PROBE.depth == 0


def test_trace_sink_finalizes_unclosed_tracks():
    s = TraceSink()
    p = s.probe("mem", start=0.0)
    p.push("memory", 3.0)        # never popped, never closed
    q = s.probe("cpu0", start=0.0)
    q.close(9.0)                 # pushes _last_ts to 9
    events = s.trace_events()
    assert validate_trace(events) == []
    tail = [e for e in events if e["ph"] == "E" and e["tid"] == 1]
    assert [e["ts"] for e in tail] == [9.0, 9.0]   # memory, then busy
    assert s.trace_events() is events              # idempotent


def test_trace_sink_zero_event_run():
    """A run that records nothing still yields a valid (possibly
    empty) timeline: no spans, no dangling metadata."""
    s = TraceSink()
    assert s.trace_events() == []
    assert validate_trace(s.trace_events()) == []
    s2 = TraceSink()
    p = s2.probe("cpu0", start=0.0)
    p.close(0.0)                  # zero-length track, no spans
    events = s2.trace_events()
    assert validate_trace(events) == []
    spans = [e for e in events if e["ph"] in ("B", "E")]
    # Only the implicit base category, opened and closed at t=0.
    assert [(e["ph"], e["name"], e["ts"]) for e in spans] == [
        ("B", "busy", 0.0), ("E", "busy", 0.0)]


def test_trace_sink_run_ending_with_open_spans():
    """A simulation cut off mid-span (deadlock diagnosis, max-cycles
    abort) must still export a validating timeline: every open span is
    closed at the final timestamp, deepest first."""
    s = TraceSink()
    p = s.probe("cpu0", start=0.0)
    p.push("barrier", 2.0)
    p.push("memory", 3.0)         # both still open at the end
    q = s.probe("cpu1", start=0.0)
    q.push("lock", 1.0)
    q.close(8.0)                  # this track's close sets the end ts
    events = s.trace_events()
    assert validate_trace(events) == []
    cpu0_ends = [e for e in events
                 if e["ph"] == "E" and e["tid"] == 1]
    assert [e["name"] for e in cpu0_ends] == ["memory", "barrier", "busy"]
    assert all(e["ts"] == 8.0 for e in cpu0_ends)


def test_trace_sink_classify_emits_instant():
    s = TraceSink()
    p = s.probe("mem")
    p.classify("A", "rdex", "timely", now=7.0)
    inst = [e for e in s.trace_events() if e["ph"] == "i"]
    assert [e["name"] for e in inst] == ["classify.A-rdex-timely"]
    assert s.classes.get("A", "rdex", "timely") == 1


# ------------------------------------------------- validation and export

def test_validate_trace_catches_defects():
    ok = {"pid": 1, "tid": 1, "cat": "span"}
    assert validate_trace([{"ph": "B", "name": "x", "ts": 5.0, **ok},
                           {"ph": "E", "name": "x", "ts": 2.0, **ok}]
                          ) != []                        # backwards ts
    assert any("closes" in p for p in validate_trace(
        [{"ph": "B", "name": "x", "ts": 1.0, **ok},
         {"ph": "E", "name": "y", "ts": 2.0, **ok}]))    # mismatched E
    assert any("unclosed" in p for p in validate_trace(
        [{"ph": "B", "name": "x", "ts": 1.0, **ok}]))
    assert any("no open" in p for p in validate_trace(
        [{"ph": "E", "name": "x", "ts": 1.0, **ok}]))
    assert validate_trace([{"ph": "i", "name": "m"}]) != []   # no pid/tid/ts
    assert validate_trace("nope") != []
    assert validate_trace({"notTraceEvents": []}) != []
    assert validate_trace([]) == []


def test_trace_json_roundtrip_and_write(tmp_path):
    events = [{"ph": "i", "name": "m", "s": "t",
               "pid": 1, "tid": 1, "ts": 0.0}]
    data = json.loads(trace_json(events))
    assert data["traceEvents"] == events
    assert data["displayTimeUnit"] == "ms"
    path = tmp_path / "t.json"
    write_trace(str(path), events)
    assert json.loads(path.read_text())["traceEvents"] == events
    assert trace_main([str(path)]) == 0


def test_trace_main_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"ph": "E", "name": "x",
                                "pid": 1, "tid": 1, "ts": 1.0}]))
    assert trace_main([str(bad)]) == 1
    assert trace_main([str(tmp_path / "missing.json")]) == 1
    assert trace_main([]) == 2


def test_merge_traces_remaps_pids_without_mutation():
    run_a = [{"ph": "B", "name": "busy", "pid": 1, "tid": 1, "ts": 0.0},
             {"ph": "E", "name": "busy", "pid": 1, "tid": 1, "ts": 5.0}]
    run_b = [{"ph": "B", "name": "busy", "pid": 1, "tid": 1, "ts": 0.0},
             {"ph": "E", "name": "busy", "pid": 1, "tid": 1, "ts": 3.0}]
    merged = merge_traces([("cg:G0", run_a), ("cg:L1", run_b)])
    metas = [e for e in merged if e["ph"] == "M"]
    assert [(m["pid"], m["args"]["name"]) for m in metas] == [
        (1, "cg:G0"), (2, "cg:L1")]
    assert {e["pid"] for e in merged if e["ph"] != "M"} == {1, 2}
    assert run_b[0]["pid"] == 1          # inputs untouched
    assert validate_trace(merged) == []
