"""Differential test of the flattened wait path.

``spin_until``, ``SpinLock`` and ``SenseBarrier`` take their L1-hit
polls on the shell's tag store and their timed accesses straight from
``ThreadShell.timed_load`` / ``timed_store``, which read the L1, the
memory system and the span stack from attributes bound at construction.
Here the same contended scenario runs twice on a small machine (2 CMPs
in slipstream mode, 1 KB L1s): once through those, once
through the composition they flatten, written out below from public
calls only -- ``word_load`` -> ``timed_load`` -> ``l1_probe`` /
``load``, ``probe.depth`` / ``push`` / ``pop`` -- and everything
observable must come out equal: the completion trace, the clock,
``mem_stats``, every cache's counters and LRU order, each shell's
``TimeBreakdown``, every ``Server``'s and line lock's statistics, the
engine's event and process counts, the fill classification.  The
A-streams are interrupted on a seeded schedule that catches them
mid-miss, queued at a server and mid-backoff; afterwards no MSHR, line
lock, server unit or prefetch slot may be left held.

Every seed of 0--39 must end clean under both queue disciplines
(``max_steps`` turns a scenario that does not end into a failure); the
comparison and its shape checks run on two seeds whose schedules catch
the streams in every state the checks name.

Mutation-checked when written (each makes the test fail): dropping
``self.hits += 1`` or the LRU touch from ``L1Tags.hit``; charging a
wrong latency for the poll that hits; dropping ``server._busy -= 1`` or
the hand-over to the next waiter from ``serve_legs``; dropping
``lock.release()`` or the MSHR clean-up from ``load``; counting
``total_acquires`` twice on the uncontended line lock; skipping the
``"memory"`` span's pop in ``timed_load``.
"""

import random

import pytest

from repro import compile_source
from repro.config import PAPER_MACHINE, CacheConfig
from repro.runtime import Machine
from repro.runtime.words import (JOBWAIT_BACKOFF_CAP, SPIN_BACKOFF0,
                                 SPIN_BACKOFF_CAP, SenseBarrier, SpinLock,
                                 spin_until)
from repro.sim import Engine, Interrupt

from .heap_engine import HeapEngine

ROUNDS = 6
_PROG = compile_source("double a[512];\nvoid main() { }")      # 32 lines


# ------------------------------------------- the composition, written out

def ref_timed_load(sh, addr):
    ms, eng = sh.machine.memsys, sh.machine.engine
    if ms.l1_probe(sh.node, sh.cpu, addr):
        yield float(sh.machine.cfg.l1.hit_cycles)
        return
    top = sh.probe.depth == 0
    if top:
        sh.probe.push("memory", eng.now)
    try:
        yield from ms.load(sh.node, sh.cpu, addr, sh.role)
    finally:
        if top:
            sh.probe.pop(eng.now)


def ref_timed_store(sh, addr):
    ms, eng = sh.machine.memsys, sh.machine.engine
    top = sh.probe.depth == 0
    if top:
        sh.probe.push("memory", eng.now)
    try:
        yield from ms.store(sh.node, sh.cpu, addr, sh.role)
    finally:
        if top:
            sh.probe.pop(eng.now)


def ref_word_load(sh, word):
    yield from ref_timed_load(sh, word.addr)
    return word.value


def ref_word_store(sh, word, value):
    yield from ref_timed_store(sh, word.addr)
    word.value = value


def ref_word_rmw(sh, word, fn):
    yield from ref_timed_store(sh, word.addr)
    old = word.value
    word.value = fn(old)
    return old


def ref_spin_until(sh, word, pred, cap=SPIN_BACKOFF_CAP):
    backoff = SPIN_BACKOFF0
    while True:
        v = yield from ref_word_load(sh, word)
        if pred(v):
            return v
        yield backoff
        backoff = min(cap, backoff * 2)


class RefSpinLock:
    def __init__(self, word):
        self.word = word
        self.acquisitions = 0
        self.contended = 0

    def acquire(self, sh):
        first = True
        while True:
            old = yield from ref_word_rmw(sh, self.word, lambda v: 1)
            if old == 0:
                self.acquisitions += 1
                return
            if first:
                self.contended += 1
                first = False
            yield from ref_spin_until(sh, self.word, lambda v: v == 0)

    def release(self, sh):
        yield from ref_word_store(sh, self.word, 0)


class RefSenseBarrier:
    def __init__(self, count_word, sense_word, participants):
        self.count = count_word
        self.gen = sense_word
        self.participants = participants
        self.episodes = 0

    def wait(self, sh, participants=None):
        n = participants if participants is not None else self.participants
        my_gen = yield from ref_word_load(sh, self.gen)
        old = yield from ref_word_rmw(sh, self.count, lambda v: v + 1)
        if old + 1 == n:
            self.episodes += 1
            yield from ref_word_store(sh, self.count, 0)
            yield from ref_word_store(sh, self.gen, my_gen + 1)
        else:
            yield from ref_spin_until(sh, self.gen,
                                      lambda v, g=my_gen: v != g)


class _Flat:
    """What the runtime uses."""
    SpinLock, SenseBarrier = SpinLock, SenseBarrier
    spin_until = staticmethod(spin_until)

    @staticmethod
    def load(sh, addr):
        return sh.timed_load(addr)

    @staticmethod
    def store(sh, addr):
        return sh.timed_store(addr)


class _Ref:
    """The composition above."""
    SpinLock, SenseBarrier = RefSpinLock, RefSenseBarrier
    spin_until = staticmethod(ref_spin_until)
    load = staticmethod(ref_timed_load)
    store = staticmethod(ref_timed_store)


# ------------------------------------------------------------ the scenario

def _machine():
    cfg = PAPER_MACHINE.with_(
        n_cmps=2, placement="round_robin",
        l1=CacheConfig(size_bytes=1024, assoc=2, line_bytes=128,
                       hit_cycles=1))
    return Machine(_PROG, cfg=cfg, mode="slipstream")


def _script(seed):
    """Everything random, drawn up front so both sides replay one
    program: per R-stream and round the lines it touches inside and
    after the critical section and its think time; per A-stream an op
    list; the interrupt schedule."""
    rng = random.Random(seed)
    line = lambda: rng.randrange(32) * 16             # noqa: E731
    r_plan = [[([line() for _ in range(3)], [line() for _ in range(4)],
                float(rng.randrange(0, 120)))
               for _ in range(ROUNDS)] for _ in range(2)]
    a_plan = []
    for _ in range(2):
        ops = []
        for _ in range(60):
            x = rng.random()
            if x < 0.55:
                ops.append(("load", line()))
            elif x < 0.75:
                ops.append(("pfx", line()))
            elif x < 0.9:
                ops.append(("spin", rng.randrange(1, ROUNDS + 1)))
            else:
                ops.append(("think", float(rng.randrange(1, 90))))
        a_plan.append(ops)
    kicks = sorted((float(rng.randrange(40, 9000)), rng.randrange(2))
                   for _ in range(40))
    return r_plan, a_plan, kicks


def _run(ops, seed):
    m = _machine()
    eng, ms = m.engine, m.memsys
    r_plan, a_plan, kicks = _script(seed)
    r_shells, a_shells = m.shells[:2], m.shells[2:]
    assert [s.role for s in m.shells] == ["R", "R", "A", "A"]
    lock = ops.SpinLock(m.rt_word("lock"))
    barrier = ops.SenseBarrier(m.rt_word("bar.count"),
                               m.rt_word("bar.sense"), participants=2)
    flag = m.rt_word("flag")
    trace = []

    def mark(sh, what):
        trace.append((sh.name, what, eng.now))

    def r_worker(i, sh):
        for rnd, (inside, after, think) in enumerate(r_plan[i]):
            sh.probe.push("lock", eng.now)
            try:
                yield from lock.acquire(sh)
            finally:
                sh.probe.pop(eng.now)
            for flat in inside:
                yield from ops.load(sh, m.gaddr(0, flat))
                yield from ops.store(sh, m.gaddr(0, flat))
            yield from lock.release(sh)
            mark(sh, f"crit{rnd}")
            for flat in after:                  # "memory" spans on top
                yield from ops.load(sh, m.gaddr(0, flat))
            yield think
            sh.probe.push("barrier", eng.now)
            try:
                yield from barrier.wait(sh)
            finally:
                sh.probe.pop(eng.now)
            mark(sh, f"bar{rnd}")
            if i == 0:
                yield think
                yield from ops.store(sh, flag.addr)
                flag.value = rnd + 1
            else:
                sh.probe.push("jobwait", eng.now)
                try:
                    yield from ops.spin_until(
                        sh, flag, lambda v, want=rnd + 1: v >= want,
                        cap=JOBWAIT_BACKOFF_CAP)
                finally:
                    sh.probe.pop(eng.now)
                mark(sh, f"flag{rnd}")

    def a_worker(sh, plan):
        for k, op in enumerate(plan):
            try:
                if op[0] == "load":
                    yield from ops.load(sh, m.gaddr(0, op[1]))
                elif op[0] == "pfx":
                    ms.prefetch_exclusive(sh.node, m.gaddr(0, op[1]), "A")
                    yield 1.0
                elif op[0] == "spin":
                    sh.probe.push("a_wait", eng.now)
                    try:
                        yield from ops.spin_until(
                            sh, flag, lambda v, want=op[1]: v >= want)
                    finally:
                        sh.probe.pop(eng.now)
                else:
                    yield op[1]
                mark(sh, f"{op[0]}{k}")
            except Interrupt as intr:
                mark(sh, f"interrupted{k}:{intr.cause}")

    caught = []

    def agitator(procs):
        prev = 0.0
        for when, j in kicks:
            if when > prev:
                yield when - prev
                prev = when
            proc = procs[j]
            if not proc.alive:
                continue
            waiting = proc._waiting_on
            if waiting is not None:
                state = ("queued" if waiting.name.endswith(".q") else
                         "lockwait" if waiting.name.endswith(".sem") else
                         "merged")
            elif any(mshr.fetcher == "A"
                     for mshr in ms.nodes[j].mshrs.values()):
                state = "mid-miss"
            else:
                state = "delay"
            caught.append(state)
            proc.interrupt(state)

    for i, sh in enumerate(r_shells):
        eng.process(r_worker(i, sh), name=sh.name)
    a_procs = [eng.process(a_worker(sh, plan), name=sh.name)
               for sh, plan in zip(a_shells, a_plan)]
    eng.process(agitator(a_procs), name="agitator")
    eng.run(max_steps=400_000)
    assert eng.next_time() is None, "scenario did not finish"
    end = eng.now

    # Nothing may be left held, however the A-streams were cut short.
    for nm in ms.nodes:
        assert not nm.mshrs and nm.outstanding_prefetches == 0
        for srv in (nm.bus, nm.ni_in, nm.ni_out, nm.dirctrl, nm.mem):
            assert (srv._busy, srv.queue_length) == (0, 0), srv.name
    lines = sorted({ms.line_addr(m.gaddr(0, k * 16)) for k in range(32)}
                   | {w.addr for w in (lock.word, barrier.count,
                                       barrier.gen, flag)})
    locks = {la: ms.directory.lock(la) for la in lines}
    assert all(lk.count == 1 and lk.waiting == 0 for lk in locks.values())
    if "lockwait" not in caught:            # no acquire was cut short
        assert all(lk.total_acquires == lk.total_releases
                   for lk in locks.values())
    assert not lock.word.value and barrier.count.value == 0

    for sh in m.shells:
        sh.probe.close(end)
    ms.finalize()
    caches = []
    for nm in ms.nodes:
        for c in nm.l1s + [nm.l2]:
            caches.append((c.name, c.hits, c.misses, c.evictions,
                           c.invalidations,
                           [getattr(ln, "line_addr", ln) for ln in c.lines()]))
    return {
        "end": end,
        "trace": trace,
        "caught": caught,
        "mem": ms.machine_stats().as_dict(),
        "caches": caches,
        "breakdowns": {sh.name: sh.probe.as_dict() for sh in m.shells},
        "servers": [(s.name, s.total_requests, s.total_service,
                     s.total_queue_wait, s.max_queue_len)
                    for nm in ms.nodes
                    for s in (nm.bus, nm.ni_in, nm.ni_out, nm.dirctrl,
                              nm.mem)],
        "line_locks": sorted(
            (la, lk.total_acquires, lk.total_releases, lk.total_wait_time)
            for la, lk in locks.items()),
        "engine": (eng._nevents, eng._nprocs, type(eng)),
        "sync": (lock.acquisitions, lock.contended, barrier.episodes,
                 flag.value),
        "classes": ms.classes.as_dict(),
    }


@pytest.mark.parametrize("engine_cls", [
    pytest.param(Engine, id="engine"), pytest.param(HeapEngine, id="heap")])
@pytest.mark.parametrize("seed", [1, 16])
def test_flat_wait_path_equals_the_composition_it_replaces(seed, engine_cls,
                                                           monkeypatch):
    monkeypatch.setattr("repro.runtime.machine.Engine", engine_cls)
    flat, ref = _run(_Flat, seed), _run(_Ref, seed)
    for key in ref:
        assert flat[key] == ref[key], key
    assert flat["engine"][2] is engine_cls
    # The scenario did what it is for.
    assert flat["sync"][0] == 2 * ROUNDS and flat["sync"][1] > 0
    assert flat["sync"][2:] == (ROUNDS, ROUNDS)
    assert {"mid-miss", "queued", "delay"} <= set(flat["caught"])
    assert any(s[3] > 0 for s in flat["servers"])           # queueing
    assert any(lk[3] > 0 for lk in flat["line_locks"])      # lock waits
    assert all(c[3] > 0 for c in flat["caches"] if ".l1" in c[0])  # evictions
    assert flat["mem"]["mshr_merges"] and flat["mem"]["prefetch_ex"]
    r1 = flat["breakdowns"]["R1@n1c0"]
    assert r1["memory"] > 0 and r1["lock"] > 0 and r1["jobwait"] > 0


@pytest.mark.parametrize("seed", range(40))
def test_every_seed_ends_with_nothing_held(seed, monkeypatch):
    """Whatever the schedule cuts short, the scenario finishes and no
    MSHR, line lock, server unit or prefetch slot is left held (the
    checks at the end of ``_run``).  An interrupt that found its
    stream asleep used to leave the sleep queued, and the stray
    resumption it caused later stranded waiters on a free line lock."""
    for engine_cls in (Engine, HeapEngine):
        monkeypatch.setattr("repro.runtime.machine.Engine", engine_cls)
        _run(_Flat, seed)


def test_queue_disciplines_agree_on_the_wait_path(monkeypatch):
    """The same scenario under the bucket queue and the heapq
    reference: identical in everything but the engine's class."""
    runs = {}
    for engine_cls in (Engine, HeapEngine):
        monkeypatch.setattr("repro.runtime.machine.Engine", engine_cls)
        runs[engine_cls] = _run(_Flat, 10)
    a, b = runs[Engine], runs[HeapEngine]
    assert (a["engine"][2], b["engine"][2]) == (Engine, HeapEngine)
    assert a.pop("engine")[:2] == b.pop("engine")[:2]
    assert a == b
