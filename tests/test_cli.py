"""Tests for the command-line front end."""

import io
import os

import pytest

from repro.cli import main

DEMO = """
double a[64];
double total;
int i;
void main() {
    #pragma omp parallel for reduction(+: total)
    for (i = 0; i < 64; i = i + 1) {
        a[i] = i * 1.0;
        total = total + a[i];
    }
    print("total", total);
}
"""


@pytest.fixture
def demo(tmp_path):
    f = tmp_path / "demo.c"
    f.write_text(DEMO)
    return str(f)


def run_cli(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


def test_run_functional(demo):
    rc, out = run_cli(["run", demo, "--mode", "functional"])
    assert rc == 0
    assert "total 2016.0" in out


@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_run_simulated_modes(demo, mode):
    rc, out = run_cli(["run", demo, "--mode", mode, "--cmps", "4"])
    assert rc == 0
    assert "total 2016.0" in out
    assert "cycles on 4 CMPs" in out


def test_run_with_slipstream_policy_and_stats(demo):
    rc, out = run_cli(["run", demo, "--mode", "slipstream", "--cmps", "4",
                       "--slipstream", "LOCAL_SYNC,1", "--stats"])
    assert rc == 0
    assert "fills:" in out
    assert "busy" in out


def test_run_with_schedule(demo, tmp_path):
    f = tmp_path / "sched.c"
    f.write_text(DEMO.replace("parallel for",
                              "parallel for schedule(runtime)"))
    rc, out = run_cli(["run", str(f), "--mode", "single", "--cmps", "4",
                       "--schedule", "dynamic,8"])
    assert rc == 0
    assert "total 2016.0" in out


def test_compile_reports_image(demo):
    rc, out = run_cli(["compile", demo])
    assert rc == 0
    assert "1 outlined regions" in out
    assert "instructions" in out


def test_compile_disasm(demo):
    rc, out = run_cli(["compile", demo, "--disasm"])
    assert rc == 0
    assert "parallel_begin" in out
    assert "sched_init" in out


def test_check_classification(demo):
    rc, out = run_cli(["check", demo])
    assert rc == 0
    assert "shared refs : ['a']" in out
    assert "reduction   : +: ['total']" in out


def test_bench_subcommand():
    rc, out = run_cli(["bench", "cg", "--size", "test", "--cmps", "4"])
    assert rc == 0
    assert "CG" in out and "G0" in out and "L1" in out


def test_bench_unknown_name():
    rc, _ = run_cli(["bench", "nosuch", "--size", "test"])
    assert rc == 2


def test_bench_resume_and_memo_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "memo"))
    args = ["bench", "cg", "--size", "test", "--cmps", "4",
            "--resume", str(tmp_path / "journal"), "--memo"]
    rc, out = run_cli(args)
    assert rc == 0
    assert "pipeline:" in out and "memo 0 hit(s) / 4 miss(es)" in out
    # identical sweep: memo-served end to end, resumed from the journal
    rc, out = run_cli(args)
    assert rc == 0
    assert "4 resumed from checkpoint" in out
    assert "0 executed" in out


def test_bench_spool_quarantine_exits_5(tmp_path, monkeypatch):
    """A sweep that completes but had to quarantine a poison unit exits
    with the distinct code 5, so scripts can tell 'done with data loss
    flagged' from 'done'.  The sweep runs on a spool (in place of the
    serial transport) whose ledger holds ``POISON_AFTER`` dead
    executions of one unit; ``-j 1`` picks the serial transport."""
    import repro.harness as harness
    from repro.harness.transport import (POISON_AFTER, DirQueueTransport,
                                         _Spool)

    spool = _Spool(tmp_path / "spool")
    monkeypatch.setattr(harness, "SerialTransport",
                        lambda: DirQueueTransport(spool.root))
    argv = ["bench", "cg", "--size", "test", "--cmps", "4", "-j", "1"]
    rc, _ = run_cli(argv)
    assert rc == 0

    # poison one unit: drop its result, fake the dead execution attempts
    key = next(k for k in sorted(spool.published_keys())
               if spool.load_spec(k).config == "G0")
    os.unlink(spool.result_path(key))
    for _ in range(POISON_AFTER):
        spool.record_attempt(key)

    rc, out = run_cli(argv)
    assert rc == 5
    assert "1 QUARANTINED (poison)" in out


def test_chaos_harness_subcommand(tmp_path):
    """`repro chaos --harness` runs the execution-layer hazard matrix
    and exits 0 when every scenario merges bit-identical."""
    rc, out = run_cli(["chaos", "--harness", "cg", "--cmps", "4",
                       "--classes", "corrupt",
                       "--workdir", str(tmp_path / "wd")])
    assert rc == 0
    assert "harness chaos matrix" in out
    assert "harness verdict: OK" in out


def test_chaos_harness_without_a_workdir_leaves_nothing_behind(
        tmp_path, monkeypatch):
    """Without ``--workdir`` the matrix works in a ``mkdtemp`` directory
    of its own, and a clean pass removes it: the temp root is empty."""
    import tempfile
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    rc, out = run_cli(["chaos", "--harness", "cg", "--cmps", "2"])
    assert rc == 0
    assert "harness verdict: OK" in out
    assert os.listdir(tmp_path) == []


def test_chaos_harness_that_fails_keeps_its_workdir(tmp_path, monkeypatch,
                                                    capsys):
    """A matrix that found a violation keeps the workdir it made and
    names it on stderr: the scenarios' spools are the evidence."""
    import tempfile

    import repro.harness.chaos as chaos

    class Failed(_CleanMatrix):
        ok = False
        outcomes = [type("Outcome", (), {"ok": False})()]
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(chaos, "run_harness_chaos", lambda *a, **k: Failed())
    monkeypatch.setattr(chaos, "render_harness_chaos", lambda *a, **k: "")
    rc, _ = run_cli(["chaos", "--harness", "cg", "--cmps", "2"])
    (kept,) = os.listdir(tmp_path)
    assert rc == 1 and kept.startswith("repro-harness-chaos-")
    assert str(tmp_path / kept) in capsys.readouterr().err


def test_num_threads_narrows_the_team(tmp_path):
    f = tmp_path / "team.c"
    f.write_text("""
double a[64];
int n, i;
void main() {
    #pragma omp parallel
    {
        #pragma omp master
        n = omp_get_num_threads();
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) a[i] = i * 1.0;
    }
    print("team", n);
}
""")
    rc, wide = run_cli(["run", str(f), "--cmps", "4"])
    assert rc == 0 and "team 4\n" in wide
    rc, narrow = run_cli(["run", str(f), "--cmps", "4",
                          "--num-threads", "2"])
    assert rc == 0 and "team 2\n" in narrow
    assert wide.splitlines()[-1] != narrow.splitlines()[-1]   # the cycles


def test_selfinv_drops_stale_lines(tmp_path):
    """``--selfinv`` self-invalidates, at each barrier the A-stream
    passes, the shared lines its CMP did not touch since the one
    before; ``--stats`` says how many."""
    f = tmp_path / "phases.c"
    f.write_text("""
double b[512];
double c[512];
double s;
int i;
void main() {
    #pragma omp parallel
    {
        #pragma omp for
        for (i = 0; i < 512; i = i + 1) b[i] = i * 1.0;
        #pragma omp for
        for (i = 0; i < 512; i = i + 1) c[i] = b[511 - i] + 1.0;
        #pragma omp for reduction(+: s)
        for (i = 0; i < 512; i = i + 1) s = s + c[511 - i];
    }
    print("s", s);
}
""")
    argv = ["run", str(f), "--mode", "slipstream", "--cmps", "4", "--stats"]
    rc, off = run_cli(argv)
    assert rc == 0 and "selfinv_drops" not in off
    rc, on = run_cli(argv + ["--selfinv"])
    assert rc == 0 and "s 131328.0\n" in on
    drops = [ln for ln in on.splitlines() if "selfinv_drops" in ln]
    assert len(drops) == 1 and int(drops[0].split(":")[1]) > 0


def test_compile_error_reported(tmp_path):
    f = tmp_path / "bad.c"
    f.write_text("void main() { x = 1; }")
    rc, _ = run_cli(["run", str(f)])
    assert rc == 1


def test_missing_file():
    rc, _ = run_cli(["run", "/nonexistent/prog.c"])
    assert rc == 2


def test_unknown_hotpath_tier_is_one_line_exit_2(demo, monkeypatch, capsys):
    for stale in ("mem", "engine", "fuse", "engine,fuse,compile"):
        monkeypatch.setenv("REPRO_HOTPATH", stale)  # the removed tiers
        rc, out = run_cli(["run", demo, "--mode", "single", "--cmps", "4"])
        assert rc == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "REPRO_HOTPATH" in err and repr(stale) in err


def test_deep_nesting_is_one_compile_error_line(tmp_path, capsys):
    """Parentheses nested past what the recursive-descent parser can
    take are a compile error on one line, not a Python traceback."""
    e = "t"
    for _ in range(150):
        e = f"(t * {e})"
    f = tmp_path / "deep.c"
    f.write_text(f"double y;\nvoid main() {{ double t;\n  y = {e}; }}\n")
    rc, out = run_cli(["check", str(f)])
    assert rc == 1 and out == ""
    assert capsys.readouterr().err == (
        "compile error: line 3: nested too deeply\n")


def test_inputs_flag(tmp_path):
    f = tmp_path / "io.c"
    f.write_text("""
double x;
void main() { x = read_input(); print("x", x * 2.0); }
""")
    rc, out = run_cli(["run", str(f), "--mode", "single", "--cmps", "4",
                       "--inputs", "21"])
    assert rc == 0
    assert "x 42.0" in out


class _CleanMatrix:
    """What a chaos matrix that found nothing returns."""
    ok = True
    total_quarantined = 0
    outcomes = []


#: (verb prefix, the flag its path never reads, that flag's arguments)
_UNREAD = [
    (["run", "{demo}", "--mode", "functional"], "--slipstream", ["G0"]),
    (["run", "{demo}", "--mode", "functional"], "--schedule", ["dynamic"]),
    (["run", "{demo}", "--mode", "functional"], "--num-threads", ["2"]),
    (["run", "{demo}", "--mode", "functional"], "--stats", []),
    (["run", "{demo}", "--mode", "functional"], "--selfinv", []),
    (["run", "{demo}", "--mode", "functional"], "--timeout-cycles", ["9"]),
    (["run", "{demo}", "--mode", "functional"], "--profile", ["{tmp}/p"]),
    (["chaos", "--harness"], "--seeds", ["3"]),
    (["chaos", "--harness"], "--jobs", ["2"]),
    (["chaos", "--harness"], "--timeout-cycles", ["9"]),
    (["chaos", "--harness"], "--resume", ["{tmp}/j"]),
    (["chaos", "--harness"], "--memo", []),
    (["chaos", "--harness"], "--telemetry", ["{tmp}/t"]),
    (["chaos"], "--workdir", ["{tmp}/w"]),
]


@pytest.mark.parametrize(
    "prefix, flag, values", _UNREAD,
    ids=[" ".join([a for a in p if "{" not in a] + [f])
         for p, f, _ in _UNREAD])
def test_flag_the_chosen_path_never_reads_exits_2(prefix, flag, values, demo,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    """A flag the chosen path would silently ignore -- functional runs
    read no simulator option, the harness matrix no sweep option, the
    fault matrix no harness option -- is one line on stderr and exit
    2, before anything runs."""
    import repro.harness.chaos as chaos
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "memo"))
    for name in ("run_chaos", "run_harness_chaos"):
        monkeypatch.setattr(chaos, name, lambda *a, **k: _CleanMatrix())
    for name in ("render_chaos", "render_harness_chaos"):
        monkeypatch.setattr(chaos, name, lambda *a, **k: "")
    argv = [a.format(demo=demo, tmp=tmp_path)
            for a in prefix + [flag] + values]
    rc, out = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and flag in err
