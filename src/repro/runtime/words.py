"""Runtime-internal shared words and the sync primitives built on them.

The Omni runtime keeps its own state (barrier counters, lock words, job
flags, scheduling counters) in shared memory; on a DSM machine every
touch of that state is coherence traffic, which is exactly where the
paper's "lock", "barrier", "scheduling", and "job wait" time categories
come from.  :class:`RTWord` pairs a Python-side value with a simulated
shared address so each access is timed through the coherence protocol.

All generators here take the accessing *shell* (thread context) first,
so latency lands on the right simulated CPU and time category.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["RTWord", "SpinLock", "SenseBarrier", "word_load", "word_store",
           "word_rmw", "spin_until", "SPIN_BACKOFF0", "SPIN_BACKOFF_CAP",
           "JOBWAIT_BACKOFF_CAP"]

#: Initial / maximum spin backoff (cycles).  Spin loops probe a shared
#: word, then idle exponentially longer between probes -- both a realism
#: measure (Omni's spin loops back off) and what keeps simulated event
#: counts bounded during long waits.
SPIN_BACKOFF0 = 20.0
SPIN_BACKOFF_CAP = 400.0
JOBWAIT_BACKOFF_CAP = 2000.0


class RTWord:
    """One runtime word: a shared address plus its current value."""

    __slots__ = ("addr", "value", "name")

    def __init__(self, addr: int, value=0, name: str = ""):
        self.addr = addr
        self.value = value
        self.name = name

    def __repr__(self) -> str:
        return f"RTWord({self.name}@{self.addr:#x}={self.value!r})"


def word_load(shell, word: RTWord):
    """Timed load of a runtime word; returns its value."""
    yield from shell.timed_load(word.addr)
    return word.value


def word_store(shell, word: RTWord, value) -> None:
    """Timed store (write-ownership) of a runtime word."""
    yield from shell.timed_store(word.addr)
    word.value = value


def word_rmw(shell, word: RTWord, fn: Callable):
    """Timed atomic read-modify-write; returns the OLD value.

    Atomicity holds because the logical update is applied at the
    completion time of the write-ownership transaction, and transactions
    on one line are serialized by the home directory.
    """
    yield from shell.timed_store(word.addr)
    old = word.value
    word.value = fn(old)
    return old


def spin_until(shell, word: RTWord, pred: Callable[[object], bool],
               cap: float = SPIN_BACKOFF_CAP):
    """Test-loop on a shared word with exponential backoff.  Returns the
    satisfying value.

    Each poll is a ``word_load``; most hit the spinner's L1 (the word
    stays there until the awaited store invalidates it), so the hit is
    taken here, on the shell's tag store, and only a poll that misses
    goes through ``timed_load``, which counts the miss itself."""
    backoff = SPIN_BACKOFF0
    addr = word.addr
    l1_hit, hit_cycles = shell.l1.hit, shell.l1_hit_cycles
    while True:
        if l1_hit(addr):
            yield hit_cycles
        else:
            yield from shell.timed_load(addr)
        v = word.value
        if pred(v):
            return v
        yield backoff
        backoff = min(cap, backoff * 2)


class SpinLock:
    """Test-and-test-and-set lock over one shared word."""

    __slots__ = ("word", "acquisitions", "contended")

    def __init__(self, word: RTWord):
        self.word = word
        self.acquisitions = 0
        self.contended = 0

    def acquire(self, shell):
        """Generator: test-and-test-and-set until acquired."""
        first = True
        while True:
            old = yield from word_rmw(shell, self.word, lambda v: 1)
            if old == 0:
                self.acquisitions += 1
                return
            if first:
                self.contended += 1
                first = False
            yield from spin_until(shell, self.word, lambda v: v == 0)

    def release(self, shell):
        """Generator: store 0 (timed) to free the lock."""
        yield from word_store(shell, self.word, 0)

    @property
    def held(self) -> bool:
        """Is the lock currently taken?"""
        return bool(self.word.value)


class SenseBarrier:
    """Centralized barrier over two shared words (count + generation).

    A generation-counting variant of the classic sense-reversing
    barrier: arrivals atomically increment the count; the last arriver
    resets it and bumps the generation word, releasing the spinners.
    Unlike per-thread sense bits, the shared generation stays correct
    when consecutive episodes involve different subsets of threads
    (regions narrowed by a num_threads clause).  Every arrival is a
    write-ownership transaction and every spin probe a shared load --
    the coherence storm a real centralized barrier produces.
    """

    def __init__(self, count_word: RTWord, sense_word: RTWord,
                 participants: int):
        self.count = count_word
        self.gen = sense_word
        self.participants = participants
        self.episodes = 0

    def wait(self, shell, participants: Optional[int] = None):
        """Wait among ``participants`` threads (defaults to the team
        width; regions narrowed by a num_threads clause pass their own
        count)."""
        n = participants if participants is not None else self.participants
        my_gen = yield from word_load(shell, self.gen)
        old = yield from word_rmw(shell, self.count, lambda v: v + 1)
        if old + 1 == n:
            self.episodes += 1
            yield from word_store(shell, self.count, 0)
            yield from word_store(shell, self.gen, my_gen + 1)
        else:
            yield from spin_until(shell, self.gen,
                                  lambda v, g=my_gen: v != g)
