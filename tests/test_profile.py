"""Tests for the cycle-exact source-line profiler.

Covers the whole chain: the compiler's per-instruction ``lines`` table
(including the peephole optimizer keeping it in sync and the compile
cache carrying it), the ``TrackProfile`` settle clock, sum-to-busy
exactness against the breakdowns, the collapsed-stack export format,
the ``"profile"`` sink spec, and the ``repro run --profile`` /
``repro bench --profile`` CLI flags.
"""

import io
import pickle

import pytest

from repro.cli import main as cli_main
from repro.compiler import compile_source
from repro.config import PAPER_MACHINE, CacheConfig
from repro.harness import profile_table, run_benchmark
from repro.obs import (AggregateSink, MEM_LEVELS, ProfileSink, TimeBreakdown,
                       TrackProfile, collapsed_stacks, line_totals,
                       make_sink, profile_total, write_collapsed)
from repro.runtime import run_program
from repro.runtime.shell import ThreadShell

CFG = PAPER_MACHINE.with_(n_cmps=4)

SOURCE = """
double a[256];
double total;
int i;
void main() {
    #pragma omp parallel for reduction(+: total)
    for (i = 0; i < 256; i = i + 1) {
        a[i] = i * 0.5;
        total = total + a[i];
    }
    print("total", total);
}
"""


# ------------------------------------------------------ the lines table

def test_every_function_has_a_parallel_lines_table():
    image = compile_source(SOURCE)
    for code in image.funcs:
        assert len(code.lines) == len(code.instrs), code.name
        # Lines are real source positions (the source starts at line 2).
        assert any(ln > 0 for ln in code.lines), code.name


def test_optimizer_keeps_lines_in_sync():
    """The peephole pass rewrites instrs; the lines table must follow.
    ``2.0 * 3.0`` folds to one const -- its line must survive."""
    src = """
double x;
void main() {
    x = 2.0 * 3.0;
    print("x", x);
}
"""
    image = compile_source(src)
    main_code = image.funcs[image.main_index]
    assert len(main_code.lines) == len(main_code.instrs)
    assert 4 in main_code.lines           # the folded assignment's line


def test_lines_table_survives_pickle():
    """Disk-cached images must carry the table (cache.py pickles the
    whole CompiledProgram)."""
    image = compile_source(SOURCE)
    clone = pickle.loads(pickle.dumps(image))
    for orig, copy in zip(image.funcs, clone.funcs):
        assert copy.lines == orig.lines


# --------------------------------------------------- TrackProfile clock

def test_track_profile_settles_spans_to_entry_position():
    tp = TrackProfile("t", start=0.0)
    tp.push("lock", 2.0)          # 0..2 busy at (no position)
    tp.pop(5.0)                   # 2..5 lock
    tp.close(9.0)                 # 5..9 busy
    assert tp.data[("", 0, "lock", "")] == 3.0
    assert tp.data[("", 0, "busy", "")] == 6.0
    assert profile_total({"t": tp.data}) == 9.0


def test_track_profile_memory_level_tagging():
    tp = TrackProfile("t", start=0.0)
    tp.push("memory", 1.0)
    tp.mem_level("remote3")
    tp.pop(4.0)
    tp.push("memory", 4.0)        # never tagged -> merged
    tp.pop(6.0)
    tp.close(6.0)
    assert tp.data[("", 0, "memory", "remote3")] == 3.0
    assert tp.data[("", 0, "memory", "merged")] == 2.0


def test_track_profile_drains_pending_with_cap_and_carry():
    tp = TrackProfile("t", start=0.0)
    tp.pending[("f", 3)] = 5.0    # VM tallied 5 busy cycles
    tp.fast(2.0, 4.0, "l2")       # fast access: 2 busy + 4 l2 stall
    # Only 6 cycles actually elapsed: stalls drain first, then busy,
    # remainder carries.
    tp.push("barrier", 6.0)
    assert tp.data[("", 0, "memory", "l2")] == 4.0
    assert sum(c for (_, _, cat, _), c in tp.data.items()
               if cat == "busy") == 2.0
    assert tp.pending            # 5 busy not yet elapsed
    tp.pop(6.0)
    tp.close(20.0)               # the rest elapses now
    assert profile_total({"t": tp.data}, "busy") == 16.0
    assert not tp.pending and not tp.pending_fast


def test_track_profile_time_backwards_raises():
    tp = TrackProfile("t", start=5.0)
    with pytest.raises(ValueError, match="backwards"):
        tp.push("lock", 4.0)


def test_track_profile_is_the_tracks_one_clock():
    """A ``TrackProfile`` is a ``TimeBreakdown``: its category totals
    are the base's, and the base's checks are the only ones."""
    tp = TrackProfile("t", start=0.0)
    assert isinstance(tp, TimeBreakdown)
    tp.push("memory", 1.0)
    tp.mem_level("l2")
    tp.switch("lock", 3.0)
    tp.pop(6.0)
    tp.close(7.0)
    assert tp.as_dict() == {"busy": 2.0, "memory": 2.0, "lock": 3.0}
    assert tp.data == {("", 0, "busy", ""): 2.0,
                       ("", 0, "memory", "l2"): 2.0,
                       ("", 0, "lock", ""): 3.0}
    with pytest.raises(ValueError, match="closed"):
        tp.push("io", 8.0)


# ------------------------------------------------------------- the sink

def test_make_sink_profile_is_tee_with_aggregate_primary():
    """The ``"profile"`` spec still feeds both outputs with the aggregate
    as primary, but by being an :class:`AggregateSink` rather than by
    teeing one: the probe's breakdown and profile are one object."""
    s = make_sink("profile")
    assert isinstance(s, ProfileSink) and isinstance(s, AggregateSink)
    p = s.probe("cpu0", start=0.0)
    assert p.prof is p.bd is s.breakdowns["cpu0"]
    p.push("lock", 1.0)
    p.pop(3.0)
    p.close(4.0)
    assert s.breakdowns["cpu0"].as_dict() == {"busy": 2.0, "lock": 2.0}
    assert s.profile_data() == {"cpu0": {("", 0, "busy", ""): 2.0,
                                         ("", 0, "lock", ""): 2.0}}


def test_profile_sink_alone_mints_profile_only_probes():
    """A ``ProfileSink`` built directly needs no partner sink: each probe
    it mints carries the line profile, whose clock is the breakdown's."""
    s = ProfileSink()
    p = s.probe("cpu0", start=0.0)
    assert p.prof is not None and p.bd is p.prof
    p.push("io", 1.0)
    p.pop(2.0)
    p.close(2.0)
    assert s.profile_data() == {"cpu0": {("", 0, "busy", ""): 1.0,
                                         ("", 0, "io", ""): 1.0}}
    assert s.breakdowns["cpu0"].as_dict() == {"busy": 1.0, "io": 1.0}


# ------------------------------------------- end-to-end cycle exactness

@pytest.fixture(scope="module")
def profiled():
    image = compile_source(SOURCE)
    return run_program(image, cfg=CFG, mode="slipstream", obs="profile")


def test_profile_sums_to_breakdowns_slipstream(profiled):
    """Acceptance: per-line totals sum to each track's total simulated
    cycles, category by category, for every stream of a slipstream
    run."""
    for track, bd in profiled.breakdowns.items():
        per_track = profiled.profile.get(track, {})
        by_cat = {}
        for (_f, _l, cat, _lv), c in per_track.items():
            by_cat[cat] = by_cat.get(cat, 0.0) + c
        assert by_cat == {k: v for k, v in bd.items() if v}, track


def test_profile_levels_are_known(profiled):
    for per_track in profiled.profile.values():
        for (_f, _l, cat, level) in per_track:
            if cat == "memory":
                assert level in MEM_LEVELS
            else:
                assert level == ""


def test_profile_lines_match_source(profiled):
    """Hot lines must be real source lines of the loop body (SOURCE
    lines 7-10), not instruction indices."""
    rows = line_totals(profiled.profile)
    hot = {line for (func, line), r in rows.items()
           if func.startswith("main.") and r["busy"] > 0}
    assert hot <= set(range(6, 12))
    assert {8, 9} <= hot          # the two assignment lines


def test_profile_does_not_perturb_cycles():
    image = compile_source(SOURCE)
    plain = run_program(image, cfg=CFG, mode="slipstream")
    prof = run_program(image, cfg=CFG, mode="slipstream", obs="profile")
    assert prof.cycles == plain.cycles
    assert prof.r_breakdown == plain.r_breakdown


# ------------------------------------- fast-path hits land on their line

FAST_SOURCE = """
double a[256];
double b[256];
double c[256];
double s;
void main() {
    int i;
    int k;
    int r;
    double x;
    for (r = 0; r < 2; r = r + 1) {
        for (i = 0; i < 256; i = i + 1) {
            x = b[i];
            a[i] = x;
        }
    }
    for (i = 0; i < 64; i = i + 1) {
        x = s;
        s = x;
    }
    k = 0;
    for (i = 0; i < 256; i = i + 1) {
        x = c[(i + k) * 1 + k];
        x = c[(i * 1 + k) * 1 + k];
    }
}
"""


def test_fast_path_hits_are_charged_to_the_line_of_the_access(monkeypatch):
    """Every shared access of ``FAST_SOURCE`` sits on a line of its own,
    one per VM access site (``geload``, ``gestore``, ``gload``,
    ``gstore`` and the fused ``cblbge`` and ``ixge``), and what each
    line must be charged follows from counting: a hit the VM's hooks
    absorb is one busy cycle, plus -- a store, or a load that misses
    the L1 -- the rest of the L2 latency as ``memory``/``l2``; a miss
    is a timed access under a ``memory``/``local`` span.  The hooks
    find the line through ``vm.position()``, so this holds only while
    ``VM.run`` syncs ``frame.pc`` before calling them: a site that does
    not charges its hits to the line of the access before it."""
    # No forced timed loads (they would move single cycles about).
    monkeypatch.setattr(ThreadShell, "DEBT_LIMIT", float("inf"))
    # 8 L1 lines: the second pass over ``b`` misses the L1, hits the L2.
    cfg = PAPER_MACHINE.with_(n_cmps=2, l1=CacheConfig(
        size_bytes=1024, assoc=2, line_bytes=128, hit_cycles=1))
    image = compile_source(FAST_SOURCE)
    ops = {ins[0] for ins in image.funcs[image.main_index].instrs}
    assert {"geload", "gestore", "gload", "gstore", "cblbge", "ixge"} <= ops
    run = run_program(image, cfg=cfg, mode="single", obs="profile")

    n_lines = 256 * 8 // cfg.line_bytes             # 16 lines an array
    l2_stall = cfg.l2.hit_cycles - 1.0
    miss = cfg.cycles(cfg.local_miss_ns)
    upgrade = miss - cfg.cycles(cfg.mem_time_ns)    # line already resident
    want = {
        # geload, 2 x 256 trips of lload + lstore: a miss a line, then
        # L1 hits; in the second pass an L2 hit a line, then L1 hits.
        ("x = b[i];", "busy", ""): 2 * 512 + (512 - n_lines),
        ("x = b[i];", "memory", "l2"): n_lines * l2_stall,
        ("x = b[i];", "memory", "local"): n_lines * miss,
        # gestore, 2 lloads a trip: a miss a line, every other store
        # hits the exclusive L2 line.
        ("a[i] = x;", "busy", ""): 2 * 512 + (512 - n_lines),
        ("a[i] = x;", "memory", "l2"): (512 - n_lines) * l2_stall,
        ("a[i] = x;", "memory", "local"): n_lines * miss,
        # gload + lstore: one miss, 63 L1 hits.
        ("x = s;", "busy", ""): 64 + 63,
        ("x = s;", "memory", "local"): miss,
        # lload + gstore: one upgrade, 63 exclusive hits.
        ("s = x;", "busy", ""): 64 + 63,
        ("s = x;", "memory", "l2"): 63 * l2_stall,
        ("s = x;", "memory", "local"): upgrade,
        # ll2b (3) + cblbge (4) + lstore: a miss a line, then L1 hits.
        ("x = c[(i + k) * 1 + k];", "busy", ""): 8 * 256 + (256 - n_lines),
        ("x = c[(i + k) * 1 + k];", "memory", "local"): n_lines * miss,
        # ixge (9) + lstore: the element the line above just loaded.
        ("x = c[(i * 1 + k) * 1 + k];", "busy", ""): 10 * 256 + 256,
    }
    source_lines = FAST_SOURCE.splitlines()
    got = {}
    for (func, line, cat, level), cycles in run.profile["R0@n0c0"].items():
        text = source_lines[line - 1].strip()
        if func == "main" and any(text == key[0] for key in want):
            got[text, cat, level] = cycles
    assert got == want


# ------------------------------------------------- shaping and export

def test_line_totals_streams_split(profiled):
    rows = line_totals(profiled.profile)
    assert sum(r["streams"]["R"] for r in rows.values()) > 0
    assert sum(r["streams"]["A"] for r in rows.values()) > 0
    total = profile_total(profiled.profile)
    assert sum(r["total"] for r in rows.values()) == pytest.approx(total)


def test_collapsed_stack_format(profiled, tmp_path):
    stacks = collapsed_stacks(profiled.profile, label="slip")
    assert stacks == sorted(stacks)
    for line in stacks:
        frames, count = line.rsplit(" ", 1)
        assert int(count) > 0     # integer counts only
        label, func, leaf = frames.split(";")
        assert label == "slip"
        assert leaf.startswith("line ")
    # Round-trip through the file writer.
    path = tmp_path / "out.folded"
    write_collapsed(path, stacks)
    assert path.read_text().splitlines() == stacks
    write_collapsed(path, [])
    assert path.read_text() == ""


def test_profile_table_renders(profiled):
    text = profile_table(profiled.profile, top=5, title="hot")
    lines = text.splitlines()
    assert lines[0] == "hot"
    assert "function" in lines[1] and "cycles" in lines[1]
    assert len(lines) <= 3 + 5    # title + header + rule + top-5


# ---------------------------------------------------------------- CLI

@pytest.fixture
def demo(tmp_path):
    f = tmp_path / "demo.c"
    f.write_text(SOURCE)
    return str(f)


def run_cli(argv):
    out = io.StringIO()
    rc = cli_main(argv, out=out)
    return rc, out.getvalue()


def test_cli_profile_run(demo, tmp_path):
    folded = tmp_path / "out.folded"
    rc, out = run_cli(["run", demo, "--mode", "slipstream", "--cmps", "4",
                       "--profile", str(folded)])
    assert rc == 0
    assert "hot lines" in out and "cycles on 4 CMPs" in out
    assert "collapsed stacks written" in out
    stacks = folded.read_text().splitlines()
    assert stacks and all(len(s.split(";")) == 3 for s in stacks)
    assert {s.split(";")[0] for s in stacks} == {"slipstream"}
    # Exclusive with --trace, as on bench.
    rc, _ = run_cli(["run", demo, "--cmps", "4", "--profile", str(folded),
                     "--trace", str(tmp_path / "t.json")])
    assert rc == 2


def test_cli_bench_profile(tmp_path):
    folded = tmp_path / "bench.folded"
    rc, out = run_cli(["bench", "cg", "--size", "test", "--cmps", "4",
                       "--profile", str(folded)])
    assert rc == 0
    assert "hot lines (all runs)" in out
    assert "collapsed stacks written" in out
    stacks = folded.read_text().splitlines()
    labels = {s.split(";")[0] for s in stacks}
    assert {"cg:single", "cg:double", "cg:G0", "cg:L1"} <= labels


def test_cli_bench_profile_and_trace_conflict(tmp_path):
    rc = cli_main(["bench", "cg", "--size", "test", "--cmps", "4",
                   "--profile", str(tmp_path / "p.txt"),
                   "--trace", str(tmp_path / "t.json")],
                  out=io.StringIO())
    assert rc == 2


def test_cli_trace_merged_under_pool_validates(demo, tmp_path):
    """Satellite: --trace together with --jobs 2 still produces one
    merged timeline that passes the validator."""
    from repro.obs.trace import main as trace_main
    trace = tmp_path / "merged.json"
    rc, out = run_cli(["bench", "cg", "--size", "test", "--cmps", "4",
                       "--jobs", "2", "--trace", str(trace)])
    assert rc == 0
    assert trace_main([str(trace)]) == 0
