"""Kill-and-resume: a sweep SIGKILLed mid-flight -- whether a spool
worker or the pooled driver itself -- resumes from its checkpoint
journal with a bit-identical merged cycle map and without re-executing
completed units.  Plus the journal/memo store semantics those
guarantees rest on."""

import itertools
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import checkpoint
from repro.harness.checkpoint import (CheckpointJournal, MemoStore,
                                      ResultStore, default_memo_dir)
from repro.harness.jobs import RunSpec, SweepPlan, unit_key
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.runner import BenchRun
from repro.harness.transport import (LEASE_S, DirQueueTransport,
                                     SerialTransport, _Spool)
from repro.obs.telemetry import Telemetry

CFG = PAPER_MACHINE.with_(n_cmps=4)


def _specs(configs=("single", "G0")):
    return [RunSpec.make("cg", c, size="test", cfg=CFG) for c in configs]


@pytest.fixture(scope="module")
def golden():
    """Uninterrupted serial cycles for the three-config sweep."""
    runs = ExecutionPipeline().run(_specs(("single", "double", "G0")))
    return {r.config: r.cycles for r in runs}


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for(predicate, timeout_s=60.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


# -- SIGKILL a spool worker --------------------------------------------------

def test_sigkilled_spool_worker_resumes_bit_identical(golden, tmp_path):
    """A worker SIGKILLed mid-claim leaves a stalled lease; the driver
    reaps it, finishes the sweep, and cycles match the uninterrupted
    serial run exactly."""
    root = tmp_path / "spool"
    specs = _specs(("single", "double", "G0"))
    plan = SweepPlan(specs)
    from repro.harness.transport import _Spool
    spool = _Spool(root)
    spool.ensure()
    for u in plan.distinct():
        spool.enqueue(u.key, u.spec)

    # A worker that claims a unit and then wedges forever: the shape a
    # SIGKILL mid-simulation leaves behind, made deterministic.
    script = ("import sys, time\n"
              "import repro.harness.transport as ht\n"
              "ht.execute_spec = lambda spec: time.sleep(3600)\n"
              "ht.run_worker(sys.argv[1])\n")
    proc = subprocess.Popen([sys.executable, "-c", script, str(root)],
                            env=_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        assert _wait_for(lambda: any(spool.claims.glob("*.claim"))), \
            "worker never claimed a unit"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        # the kill left a stalled lease and no result behind
        held = [p.stem for p in spool.claims.glob("*.claim")]
        assert held and not spool.has_result(held[0])
        # ...which the driver reaps once it has outlived the lease
        then = time.time() - 2 * LEASE_S
        os.utime(spool.claim_path(held[0]), times=(then, then))

        journal = CheckpointJournal(tmp_path / "journal")
        pipe = ExecutionPipeline(transport=DirQueueTransport(root),
                                 journal=journal)
        runs = pipe.run(specs)
        assert {r.config: r.cycles for r in runs} == golden
        assert any("reaped" in e for e in pipe.events)
        assert sorted(journal.keys()) == sorted(plan.keys)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


# -- SIGKILL the pooled driver -----------------------------------------------

def test_sigkilled_pooled_driver_resumes_without_reexecution(
        golden, tmp_path):
    """Kill a pooled sweep's driver (whole process group) once at least
    one unit is journaled; a serial resume over the same journal loads
    the completed units (unit.resumed) and executes only the rest, and
    the merged cycle map is bit-identical to the uninterrupted run."""
    journal_dir = tmp_path / "journal"
    specs = _specs(("single", "double", "G0"))
    plan = SweepPlan(specs)
    script = (
        "import sys\n"
        "from repro.config import PAPER_MACHINE\n"
        "from repro.harness.checkpoint import CheckpointJournal\n"
        "from repro.harness.jobs import RunSpec\n"
        "from repro.harness.pipeline import ExecutionPipeline\n"
        "from repro.harness.transport import PoolTransport\n"
        "cfg = PAPER_MACHINE.with_(n_cmps=4)\n"
        "specs = [RunSpec.make('cg', c, size='test', cfg=cfg)\n"
        "         for c in ('single', 'double', 'G0')]\n"
        "ExecutionPipeline(transport=PoolTransport(jobs=2),\n"
        "                  journal=CheckpointJournal(sys.argv[1])\n"
        "                  ).run(specs)\n")
    # The killed driver's private pool spool is left where TMPDIR says.
    proc = subprocess.Popen([sys.executable, "-c", script,
                             str(journal_dir)],
                            env=dict(_env(), TMPDIR=str(tmp_path)),
                            start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        journal = CheckpointJournal(journal_dir)
        appeared = _wait_for(lambda: len(journal) >= 1, timeout_s=120.0)
        assert appeared, "driver never journaled a unit"
        # SIGKILL driver and pool workers alike -- no atexit, no
        # cleanup, exactly what a lost box looks like.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

    survived = len(CheckpointJournal(journal_dir))
    assert survived >= 1
    resume = ExecutionPipeline(transport=SerialTransport(),
                               journal=CheckpointJournal(journal_dir))
    runs = resume.run(specs)
    assert {r.config: r.cycles for r in runs} == golden
    # completed units were loaded, not re-executed
    assert resume.counters.get("unit.resumed") == survived
    assert resume.counters.get("unit.executed") == len(plan.keys) - survived
    assert "resumed from checkpoint" in resume.summary()


# -- journal / memo store semantics ------------------------------------------

def _fake_run(error_kind=None):
    run = BenchRun("cg", "single", None, {})
    if error_kind is not None:
        run.error = f"synthetic {error_kind}"
        run.error_kind = error_kind
    return run


def test_result_store_roundtrip_and_corruption(tmp_path):
    store = ResultStore(tmp_path / "s")
    assert store.get("k") is None
    assert store.put("k", _fake_run())
    assert "k" in store and store.keys() == ["k"]
    assert isinstance(store.get("k"), BenchRun)
    # a record whose frame is not a pickle is a miss, never an error
    assert store.put_framed("bad", b"\x00not a pickle")
    assert "bad" in store and store.get("bad") is None
    assert store.keys() == ["k"]
    # one log holds every record; the evidence goes beside it
    assert sorted(os.listdir(store.root)) == ["corrupt", "results.log"]
    assert os.listdir(store.root / "corrupt") == ["bad.run"]


def test_journal_loads_only_requested_keys(tmp_path):
    journal = CheckpointJournal(tmp_path / "j")
    journal.record("a", _fake_run())
    journal.record("b", _fake_run())
    loaded = journal.load(["a", "missing"])
    assert set(loaded) == {"a"}


def test_memo_skips_nondeterministic_failures(tmp_path):
    memo = MemoStore(tmp_path / "m")
    assert memo.put("ok", _fake_run())
    assert memo.put("hang", _fake_run("hang"))
    assert memo.put("wrong", _fake_run("wrong-output"))
    assert not memo.put("crash", _fake_run("crash"))
    assert memo.get("crash") is None         # crashes stay retryable


def test_memo_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MEMO_DIR", str(tmp_path / "override"))
    assert default_memo_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_MEMO_DIR")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert default_memo_dir() == tmp_path / "cache" / "results"


def test_second_sweep_is_served_from_the_memo(tmp_path):
    """The memo store spans pipelines: a repeated sweep executes
    nothing and reports only hits."""
    memo_dir = tmp_path / "memo"
    specs = _specs()
    first = ExecutionPipeline(memo=MemoStore(memo_dir))
    cold = [r.cycles for r in first.run(specs)]
    assert first.counters.get("memo.miss") == len(specs)
    assert first.counters.get("unit.executed") == len(specs)

    second = ExecutionPipeline(memo=MemoStore(memo_dir))
    warm = [r.cycles for r in second.run(specs)]
    assert warm == cold
    assert second.counters.get("memo.hit") == len(specs)
    assert second.counters.get("memo.miss") == 0
    assert second.counters.get("unit.executed") == 0
    assert second.rt_stats["pipeline"]["memo.hit"] == len(specs)


def _in_log_order(store):
    """The keys of ``store``, by the offset of their last record."""
    store.keys()                            # index what is on disk
    return sorted(store._index, key=lambda k: store._index[k][0])


def _frame_span(store, key):
    """Byte range of the frame in ``key``'s last record of the log."""
    store.keys()
    offset, size = store._index[key]
    start = offset + checkpoint._ENV.size + len(key.encode())
    return start, offset + size - checkpoint._CRC.size


def _flip(path, at, mask=0xFF):
    with open(path, "r+b") as fh:
        fh.seek(at)
        byte = fh.read(1)[0]
        fh.seek(at)
        fh.write(bytes([byte ^ mask]))


def _tear(store, key, keep=20):
    """Cut the log inside ``key``'s record, ``keep`` bytes into its
    frame: what a writer killed mid-append leaves."""
    start, _ = _frame_span(store, key)
    os.truncate(store.path, start + keep)


def _rot_entries(store):
    """Hand-damage journal/memo records on disk: bit-flip the first
    record's frame, and cut the log short inside the last record."""
    first, *_, last = _in_log_order(store)
    start, end = _frame_span(store, first)
    _flip(store.path, (start + end) // 2)
    _tear(store, last)


def test_corrupt_journal_entries_recovered(golden, tmp_path):
    """Bit-rotted / truncated checkpoint entries are a quarantined
    miss: the resume sweep re-executes those units, re-merges
    bit-identical, and repairs the journal -- never crashes."""
    specs = _specs(("single", "G0"))
    first = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"))
    first.run(specs)
    keys = sorted(first.journal.keys())
    _rot_entries(first.journal)

    resume = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"))
    runs = resume.run(specs)
    assert {r.config: r.cycles for r in runs} == \
        {c: golden[c] for c in ("single", "G0")}
    assert resume.counters.get("unit.resumed") == 0
    assert resume.counters.get("unit.executed") == len(keys)
    # evidence kept aside, journal healed for the next resume
    assert len(list((tmp_path / "j" / "corrupt").iterdir())) == 2
    healed = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"))
    healed.run(specs)
    assert healed.counters.get("unit.resumed") == len(keys)
    assert healed.counters.get("unit.executed") == 0


def test_corrupt_memo_entries_recovered(golden, tmp_path):
    """Same recovery contract for the memo store: damaged entries miss
    (and quarantine), the sweep recomputes and rewrites them."""
    specs = _specs(("single", "G0"))
    first = ExecutionPipeline(memo=MemoStore(tmp_path / "m"))
    first.run(specs)
    keys = sorted(first.memo.keys())
    _rot_entries(first.memo)

    resume = ExecutionPipeline(memo=MemoStore(tmp_path / "m"))
    runs = resume.run(specs)
    assert {r.config: r.cycles for r in runs} == \
        {c: golden[c] for c in ("single", "G0")}
    assert resume.counters.get("memo.hit") == 0
    assert resume.counters.get("memo.miss") == len(keys)
    assert len(list((tmp_path / "m" / "corrupt").iterdir())) == 2
    warm = ExecutionPipeline(memo=MemoStore(tmp_path / "m"))
    warm.run(specs)
    assert warm.counters.get("memo.hit") == len(keys)


def test_memo_respects_code_and_spec_identity(tmp_path):
    """Keys differing in any identity component never collide in the
    store -- a verify=False result can't be served to a verify=True
    sweep."""
    a = RunSpec.make("cg", "single", size="test", cfg=CFG)
    b = RunSpec.make("cg", "single", size="test", cfg=CFG, verify=False)
    memo = MemoStore(tmp_path / "m")
    memo.put(unit_key(a), _fake_run())
    assert memo.get(unit_key(b)) is None


# -- what a stored result costs: counted, not timed ---------------------------

def test_memo_hit_journals_the_frame_it_verified(tmp_path, monkeypatch):
    """A sweep served from a warm memo into a fresh journal pickles
    nothing: each hit is one read, one digest, one ``loads`` and one
    append of the bytes just verified, so the journal's frame is the
    memo's, byte for byte -- and a resume over it is bit-identical."""
    specs = _specs(("single", "double", "G0"))
    cold = ExecutionPipeline(memo=MemoStore(tmp_path / "memo"))
    want = [r.cycles for r in cold.run(specs)]

    real, calls = pickle.dumps, []
    monkeypatch.setattr(pickle, "dumps",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    warm = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "journal"),
                             memo=MemoStore(tmp_path / "memo"))
    assert [r.cycles for r in warm.run(specs)] == want
    monkeypatch.undo()
    assert warm.counters.get("memo.hit") == len(specs)
    assert calls == []
    keys = warm.journal.keys()
    assert keys == sorted(SweepPlan(specs).keys)
    for key in keys:
        assert warm.journal.get_framed(key)[1] \
            == warm.memo.get_framed(key)[1]
    resumed = ExecutionPipeline(
        journal=CheckpointJournal(tmp_path / "journal"))
    assert [r.cycles for r in resumed.run(specs)] == want
    assert resumed.counters.get("unit.resumed") == len(specs)


def test_memo_served_sweep_adds_one_file_and_renames_nothing(
        tmp_path, monkeypatch):
    """Journaling every memo hit of a sweep into a fresh journal makes
    one file, the journal's log, and no ``os.replace``: records are
    appended, not published one file each."""
    specs = _specs(("single", "double", "G0"))
    ExecutionPipeline(memo=MemoStore(tmp_path / "memo")).run(specs)
    before = {p for p in tmp_path.rglob("*") if p.is_file()}
    real, renames = os.replace, []
    monkeypatch.setattr(os, "replace",
                        lambda *a, **kw: renames.append(a) or real(*a, **kw))
    warm = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "journal"),
                             memo=MemoStore(tmp_path / "memo"))
    warm.run(specs)
    monkeypatch.undo()
    assert warm.counters.get("memo.hit") == len(specs)
    added = {p for p in tmp_path.rglob("*") if p.is_file()} - before
    assert added == {Path(warm.journal.path)} and renames == []
    assert len(warm.journal) == len(specs)


def test_second_publish_makes_no_directory_and_no_mkstemp(tmp_path,
                                                          monkeypatch):
    """The directory is made when the first append finds it missing,
    not before every record, and nothing goes through ``mkstemp``:
    ``integrity.py`` does not know ``tempfile``."""
    from repro.harness import integrity
    store = ResultStore(tmp_path / "deep" / "store")
    assert store.put("first", _fake_run())           # makes both levels
    calls = []
    for mod, name in ((os, "mkdir"), (os, "makedirs"),
                      (tempfile, "mkstemp")):
        monkeypatch.setattr(mod, name,
                            lambda *a, _n=name, **kw: calls.append(_n))
    assert store.put("second", _fake_run())
    monkeypatch.undo()
    assert calls == [] and store.keys() == ["first", "second"]
    source = Path(integrity.__file__).read_text()
    assert "mkstemp" not in source and "tempfile" not in source


# -- a writer that dies mid-publish -------------------------------------------

def _visible(store, spool, key):
    """Every way a reader can come to see an entry."""
    return (store.keys(), key in store, store.get(key),
            spool.pending_keys(), spool.published_keys(),
            spool.has_result(key), spool.load_result(key))


def test_writer_dying_before_the_rename_leaves_nothing_visible(
        tmp_path, monkeypatch):
    """``os.replace`` never happens in a spool publish, and the store's
    ``os.write`` never happens (an interrupt, the worst case a handler
    can see): the spool's failure leg unlinks its own temp file, the
    store leaves an empty log at most, and no reader -- ``keys``,
    ``in``, ``get``, the spool's listing of ``results/`` and its
    ``pending_keys`` -- sees an entry.  The next append lands whole."""
    store = ResultStore(tmp_path / "store")
    spool = _Spool(tmp_path / "spool")
    spool.ensure()

    def dies(src, dst):
        assert src.startswith(dst + f".{os.getpid()}.")
        assert src.endswith(".tmp") and os.path.isfile(src)
        raise KeyboardInterrupt

    def dies_writing(fd, data):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", dies)
    for publish in (lambda: spool.publish("k", _fake_run()),
                    lambda: spool.enqueue("k", "spec")):
        with pytest.raises(KeyboardInterrupt):
            publish()
    monkeypatch.setattr(os, "write", dies_writing)
    with pytest.raises(KeyboardInterrupt):
        store.put("k", _fake_run())
    monkeypatch.undo()
    assert _visible(store, spool, "k") \
        == ([], False, None, [], set(), False, None)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] \
        == [Path(store.path)]
    assert os.path.getsize(store.path) == 0
    assert store.put("k", _fake_run())
    assert store.keys() == ["k"] and isinstance(store.get("k"), BenchRun)


def test_stranded_temp_is_invisible_and_collected_once_stale(tmp_path):
    """What a SIGKILL between create and rename leaves in a spool, made
    by hand: ``<key>.run.<pid>.<n>.tmp``.  No reader matches it;
    ``gc_tmp`` collects it once it is older than the lease and spares a
    young one (a live writer's).  A store reads its log only: litter
    and a per-entry ``<key>.run`` of the old layout beside it are
    invisible to it."""
    from repro.harness.integrity import frame, gc_tmp
    store = ResultStore(tmp_path / "store")
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    store.root.mkdir()
    old = [store.root / "k.run.4242.0.tmp",
           Path(spool.result_path("k") + ".4242.1.tmp")]
    young = Path(spool.result_path("k") + ".4242.2.tmp")
    then = time.time() - 3600
    for path in old + [young]:
        path.write_bytes(b"RPF1 half a frame")
    for path in old:
        os.utime(path, times=(then, then))
    (store.root / "k.run").write_bytes(frame(pickle.dumps(_fake_run())))
    spool.enqueue("k", "spec")
    assert _visible(store, spool, "k") \
        == ([], False, None, ["k"], set(), False, None)
    assert gc_tmp(store.root, older_than_s=60.0) == [old[0]]
    assert spool.gc_tmp(older_than_s=60.0) == [old[1]]
    assert young.exists() and not any(p.exists() for p in old)


def test_leftover_temp_of_the_same_name_fails_the_publish_loudly(
        golden, tmp_path, monkeypatch):
    """A spool's temp file is created exclusively: one already there
    under the very name the next publish would use (a recycled pid) is
    an ``OSError``, never a file to append to or to unlink on the way
    out.  A store has no temp files; a log it cannot open is its
    failed publish -- ``put`` says False and the sweep goes on."""
    from repro.harness import integrity
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    squatter = Path(f"{spool.result_path('k')}.{os.getpid()}.7.tmp")
    squatter.write_bytes(b"someone else's bytes")
    monkeypatch.setattr(integrity, "_tmp_serial", itertools.count(7))
    with pytest.raises(FileExistsError):
        spool.publish("k", _fake_run())
    assert not spool.has_result("k")
    assert squatter.read_bytes() == b"someone else's bytes"
    spool.publish("k", _fake_run())                  # the next name is free
    assert spool.has_result("k")

    specs = _specs(("single", "G0"))
    journal = CheckpointJournal(tmp_path / "j")
    os.makedirs(journal.path)                        # where the log goes
    runs = ExecutionPipeline(journal=journal).run(specs)
    assert {r.config: r.cycles for r in runs} \
        == {c: golden[c] for c in ("single", "G0")}
    assert journal.keys() == [] and not journal.record("k", _fake_run())


# -- the log: torn tails, rot in the middle, healing -------------------------

def _corrupt_events(tel):
    return [r["unit"] for r in tel.records
            if r["event"] == "integrity.corrupt"]


def test_torn_tail_then_a_later_append_loses_only_the_torn_record(
        golden, tmp_path):
    """A kill mid-append cuts the log inside its last record, and a
    later append lands after the torn bytes.  The resume loads every
    complete record, the torn key is one logged miss and executes
    once, and the next resume executes nothing."""
    specs = _specs(("single", "double", "G0"))
    keys = SweepPlan(specs).keys
    ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j")).run(specs)
    journal = CheckpointJournal(tmp_path / "j")
    *whole, torn = _in_log_order(journal)
    _tear(journal, torn, keep=100)
    assert CheckpointJournal(tmp_path / "j").record("later", _fake_run())

    tel = Telemetry()
    resume = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"),
                               telemetry=tel)
    runs = resume.run(specs)
    assert {r.config: r.cycles for r in runs} == golden
    assert resume.counters.get("unit.resumed") == len(whole)
    assert resume.counters.get("unit.executed") == 1
    assert _corrupt_events(tel) == [torn]
    assert os.listdir(tmp_path / "j" / "corrupt") == [f"{torn}.run"]

    tel = Telemetry()
    again = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"),
                              telemetry=tel)
    assert [r.cycles for r in again.run(specs)] == [r.cycles for r in runs]
    assert again.counters.get("unit.resumed") == len(keys)
    assert again.counters.get("unit.executed") == 0
    assert _corrupt_events(tel) == []
    assert sorted(again.journal.keys()) == sorted(keys + ["later"])


def test_rot_in_a_middle_record_costs_that_record_only(golden, tmp_path):
    """A flipped byte in the frame of a record with records after it:
    that key is one logged miss, every other record loads, and the
    records after it are still read."""
    specs = _specs(("single", "double", "G0"))
    ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j")).run(specs)
    journal = CheckpointJournal(tmp_path / "j")
    first, middle, last = _in_log_order(journal)
    start, end = _frame_span(journal, middle)
    _flip(journal.path, start + (end - start) // 3, 0x10)

    tel = Telemetry()
    resume = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"),
                               telemetry=tel)
    runs = resume.run(specs)
    assert {r.config: r.cycles for r in runs} == golden
    assert resume.counters.get("unit.resumed") == 2
    assert resume.counters.get("unit.executed") == 1
    assert _corrupt_events(tel) == [middle]
    assert _in_log_order(resume.journal) == [first, last, middle]


def test_a_healed_key_raises_no_second_corrupt_event(tmp_path):
    """Once a good record follows a damaged one, no reader -- the one
    that found the damage, or a fresh one -- reports it again; and the
    reader that found it reports it once, however often it asks."""
    store = ResultStore(tmp_path / "s")
    assert store.put("a", _fake_run()) and store.put("b", _fake_run())
    start, end = _frame_span(store, "a")
    _flip(store.path, (start + end) // 2)
    tel = store.telemetry = Telemetry()
    assert store.get("a") is None and store.get("a") is None
    assert "a" not in store and store.keys() == ["b"]
    assert _corrupt_events(tel) == ["a"]
    assert store.put("a", _fake_run())
    assert isinstance(store.get("a"), BenchRun)
    fresh = ResultStore(tmp_path / "s")
    tel = fresh.telemetry = Telemetry()
    assert fresh.keys() == ["a", "b"]
    assert isinstance(fresh.get("a"), BenchRun)
    assert _corrupt_events(tel) == []


def test_journal_directory_removed_mid_sweep_is_recreated(golden, tmp_path):
    """``rm -rf`` of the journal between two units: the next publish
    finds the directory missing, makes it again and lands; the sweep
    merges bit-identical."""

    class Vanishing(CheckpointJournal):
        def record(self, key, run):
            done = super().record(key, run)
            if len(self.keys()) == 1 and not hasattr(self, "gone"):
                shutil.rmtree(self.root)
                self.gone = True
            return done

    specs = _specs(("single", "G0"))
    journal = Vanishing(tmp_path / "j")
    runs = ExecutionPipeline(journal=journal).run(specs)
    assert {r.config: r.cycles for r in runs} \
        == {c: golden[c] for c in ("single", "G0")}
    assert journal.gone
    assert journal.keys() == [SweepPlan(specs).keys[1]]
    assert isinstance(journal.get(SweepPlan(specs).keys[1]), BenchRun)
