"""Unit tests for RTWord primitives, SpinLock, and SenseBarrier using a
minimal fake shell (fixed memory latencies, no coherence engine)."""

import pytest

from repro.runtime.words import (RTWord, SenseBarrier, SpinLock,
                                 spin_until, word_load, word_rmw,
                                 word_store)
from repro.sim import Engine


class FakeL1:
    """The tag store a spin poll probes: holds the lines it was told
    to, counts the hits it served."""

    def __init__(self):
        self.resident = set()
        self.hits = 0

    def hit(self, addr):
        if addr in self.resident:
            self.hits += 1
            return True
        return False


class FakeShell:
    """Just enough shell surface for the words module: the timed
    accesses, and what ``spin_until`` reads to take an L1-hit poll
    itself (``l1.hit``, ``l1_hit_cycles``).  The fake L1 is empty
    unless a test fills it, so every poll is a ``timed_load``."""

    def __init__(self, engine, load_lat=10.0, store_lat=20.0):
        self.engine = engine
        self.load_lat = load_lat
        self.store_lat = store_lat
        self.barrier_sense = 0
        self.loads = 0
        self.stores = 0
        self.l1 = FakeL1()
        self.l1_hit_cycles = 1.0

    def timed_load(self, addr):
        self.loads += 1
        yield self.load_lat

    def timed_store(self, addr):
        self.stores += 1
        yield self.store_lat


def test_word_load_store_rmw():
    eng = Engine()
    sh = FakeShell(eng)
    w = RTWord(0x1000, 5, "w")

    def body():
        v = yield from word_load(sh, w)
        assert v == 5
        yield from word_store(sh, w, 9)
        old = yield from word_rmw(sh, w, lambda x: x + 1)
        assert old == 9
        return w.value

    assert eng.run_process(body()) == 10
    assert eng.now == 10 + 20 + 20
    assert (sh.loads, sh.stores) == (1, 2)


def test_spin_until_backoff_grows():
    eng = Engine()
    sh = FakeShell(eng, load_lat=1.0)
    w = RTWord(0x1000, 0, "flag")

    def setter():
        yield 500
        w.value = 1

    def spinner():
        v = yield from spin_until(sh, w, lambda v: v == 1)
        return v

    eng.process(setter())
    p = eng.process(spinner(), name="s")
    eng.run()
    assert p.result == 1
    # Backoff keeps probe counts low: ~500 cycles of waiting needs far
    # fewer probes than cycle-by-cycle polling would.
    assert sh.loads < 25


def test_spin_poll_that_hits_the_l1_is_taken_in_place():
    """A poll on a line the spinner's L1 holds costs the hit latency
    and never reaches ``timed_load``; once the line is gone (the
    awaited store invalidated it) the poll is a timed load again."""
    eng = Engine()
    sh = FakeShell(eng, load_lat=10.0)
    w = RTWord(0x1000, 0, "flag")
    sh.l1.resident.add(w.addr)

    def setter():
        yield 100
        sh.l1.resident.discard(w.addr)      # the store's invalidation
        w.value = 1

    eng.process(setter())
    p = eng.process(spin_until(sh, w, lambda v: v == 1), name="s")
    eng.run()
    # Polls at 0, 21, 62 hit (1 cycle + 20/40/80 backoff); the poll at
    # 143 misses, loads for 10 cycles and sees the value.
    assert p.result == 1 and (sh.l1.hits, sh.loads) == (3, 1)
    assert eng.now == 153


def test_spinlock_mutual_exclusion_and_stats():
    eng = Engine()
    lock = SpinLock(RTWord(0x2000, 0, "lk"))
    active = {"n": 0, "max": 0}

    def worker():
        sh = FakeShell(eng)
        yield from lock.acquire(sh)
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        yield 30
        active["n"] -= 1
        yield from lock.release(sh)

    for _ in range(5):
        eng.process(worker())
    eng.run()
    assert active["max"] == 1
    assert lock.acquisitions == 5
    assert lock.contended >= 1
    assert not lock.held


def test_sense_barrier_releases_all_at_once():
    eng = Engine()
    bar = SenseBarrier(RTWord(0x3000, 0, "cnt"),
                       RTWord(0x3080, 0, "sense"), participants=4)
    releases = []
    shells = [FakeShell(eng) for _ in range(4)]

    def worker(i):
        yield i * 100          # staggered arrivals
        yield from bar.wait(shells[i])
        releases.append((i, eng.now))

    for i in range(4):
        eng.process(worker(i))
    eng.run()
    # Nobody is released before the last arrival (t=300).
    assert min(t for _, t in releases) >= 300
    assert len(releases) == 4
    assert bar.episodes == 1


def test_sense_barrier_reusable_across_episodes():
    eng = Engine()
    bar = SenseBarrier(RTWord(0x3000, 0, "cnt"),
                       RTWord(0x3080, 0, "sense"), participants=3)
    shells = [FakeShell(eng) for _ in range(3)]
    done = []

    def worker(i):
        for round_ in range(3):
            yield (i + 1) * 10
            yield from bar.wait(shells[i])
        done.append(i)

    for i in range(3):
        eng.process(worker(i))
    eng.run()
    assert sorted(done) == [0, 1, 2]
    assert bar.episodes == 3
    assert bar.count.value == 0
