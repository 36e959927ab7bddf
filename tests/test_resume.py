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
from repro.harness.checkpoint import (CheckpointJournal, MemoStore,
                                      ResultStore, default_memo_dir)
from repro.harness.jobs import RunSpec, SweepPlan, unit_key
from repro.harness.pipeline import ExecutionPipeline
from repro.harness.runner import BenchRun
from repro.harness.transport import (LEASE_S, DirQueueTransport,
                                     SerialTransport)

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
    # a torn/corrupt entry is a miss, never an error
    Path(store._path("bad")).write_bytes(b"\x00not a pickle")
    assert store.get("bad") is None


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


def _rot_entries(store, keys):
    """Hand-damage journal/memo entries on disk: bit-flip the first
    key's payload, truncate the second's file mid-frame."""
    flip = Path(store._path(keys[0]))
    raw = bytearray(flip.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    flip.write_bytes(bytes(raw))
    trunc = Path(store._path(keys[1]))
    trunc.write_bytes(trunc.read_bytes()[:20])


def test_corrupt_journal_entries_recovered(golden, tmp_path):
    """Bit-rotted / truncated checkpoint entries are a quarantined
    miss: the resume sweep re-executes those units, re-merges
    bit-identical, and repairs the journal -- never crashes."""
    specs = _specs(("single", "G0"))
    first = ExecutionPipeline(journal=CheckpointJournal(tmp_path / "j"))
    first.run(specs)
    keys = sorted(first.journal.keys())
    _rot_entries(first.journal, keys)

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
    _rot_entries(first.memo, keys)

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
    write of the bytes just verified, so the journal's copy is the
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
        assert Path(warm.journal._path(key)).read_bytes() \
            == Path(warm.memo._path(key)).read_bytes()
    resumed = ExecutionPipeline(
        journal=CheckpointJournal(tmp_path / "journal"))
    assert [r.cycles for r in resumed.run(specs)] == want
    assert resumed.counters.get("unit.resumed") == len(specs)


def test_second_publish_makes_no_directory_and_no_mkstemp(tmp_path,
                                                          monkeypatch):
    """The directory is made when the first create finds it missing,
    not before every entry, and the temp file is named by the store:
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


# -- a writer that dies between create and rename ------------------------------

def _visible(store, spool, key):
    """Every way a reader can come to see an entry."""
    return (store.keys(), key in store, store.get(key),
            spool.pending_keys(), spool.published_keys(),
            spool.has_result(key), spool.load_result(key))


def test_writer_dying_before_the_rename_leaves_nothing_visible(
        tmp_path, monkeypatch):
    """``os.replace`` never happens (an interrupt, the worst case a
    handler can see): the failure leg unlinks its own temp file, and no
    reader -- ``keys``, ``in``, ``get``, the spool's listing of
    ``results/`` and its ``pending_keys`` -- sees an entry."""
    from repro.harness.transport import _Spool
    store = ResultStore(tmp_path / "store")
    spool = _Spool(tmp_path / "spool")
    spool.ensure()

    def dies(src, dst):
        assert src.startswith(dst + f".{os.getpid()}.")
        assert src.endswith(".tmp") and os.path.isfile(src)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", dies)
    for publish in (lambda: store.put("k", _fake_run()),
                    lambda: spool.publish("k", _fake_run()),
                    lambda: spool.enqueue("k", "spec")):
        with pytest.raises(KeyboardInterrupt):
            publish()
    monkeypatch.undo()
    assert _visible(store, spool, "k") \
        == ([], False, None, [], set(), False, None)
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_stranded_temp_is_invisible_and_collected_once_stale(tmp_path):
    """What a SIGKILL between create and rename leaves, made by hand:
    ``<key>.run.<pid>.<n>.tmp``.  No reader matches it; ``gc_tmp``
    collects it once it is older than the lease and spares a young
    one (a live writer's)."""
    from repro.harness.integrity import gc_tmp
    from repro.harness.transport import _Spool
    store = ResultStore(tmp_path / "store")
    spool = _Spool(tmp_path / "spool")
    spool.ensure()
    store.root.mkdir()
    old = [Path(store._path("k") + ".4242.0.tmp"),
           Path(spool.result_path("k") + ".4242.1.tmp")]
    young = Path(spool.result_path("k") + ".4242.2.tmp")
    then = time.time() - 3600
    for path in old + [young]:
        path.write_bytes(b"RPF1 half a frame")
    for path in old:
        os.utime(path, times=(then, then))
    spool.enqueue("k", "spec")
    assert _visible(store, spool, "k") \
        == ([], False, None, ["k"], set(), False, None)
    assert gc_tmp(store.root, older_than_s=60.0) == [old[0]]
    assert spool.gc_tmp(older_than_s=60.0) == [old[1]]
    assert young.exists() and not any(p.exists() for p in old)


def test_leftover_temp_of_the_same_name_fails_the_publish_loudly(
        golden, tmp_path, monkeypatch):
    """The temp file is created exclusively: one already there under
    the very name the next publish would use (a recycled pid) is an
    ``OSError`` -- ``put`` says False and the sweep goes on -- never a
    file to append to or to unlink on the way out."""
    from repro.harness import integrity
    specs = _specs(("single", "G0"))
    journal = CheckpointJournal(tmp_path / "j")
    journal.root.mkdir()
    first = SweepPlan(specs).keys[0]
    squatter = Path(f"{journal._path(first)}.{os.getpid()}.7.tmp")
    squatter.write_bytes(b"someone else's bytes")
    monkeypatch.setattr(integrity, "_tmp_serial", itertools.count(7))
    pipe = ExecutionPipeline(journal=journal)
    runs = pipe.run(specs)
    assert {r.config: r.cycles for r in runs} \
        == {c: golden[c] for c in ("single", "G0")}
    assert journal.keys() == sorted(SweepPlan(specs).keys[1:])
    assert squatter.read_bytes() == b"someone else's bytes"


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
