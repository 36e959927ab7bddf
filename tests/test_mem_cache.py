"""Tests for the set-associative LRU cache model."""

import random

import pytest

from repro.config import CacheConfig, PAPER_MACHINE
from repro.mem import Cache, L1Tags, MESIState


def tiny_cache(assoc=2, sets=4, line=128, on_evict=None):
    cfg = CacheConfig(size_bytes=assoc * sets * line, assoc=assoc,
                      line_bytes=line, hit_cycles=1)
    return Cache(cfg, name="tiny", on_evict=on_evict)


def test_line_addr_masks_offset():
    c = tiny_cache()
    assert c.line_addr(0x1000) == 0x1000
    assert c.line_addr(0x107f) == 0x1000
    assert c.line_addr(0x1080) == 0x1080


def test_miss_then_hit():
    c = tiny_cache()
    assert c.lookup(0x1000) is None
    c.insert(0x1000, MESIState.SHARED)
    line = c.lookup(0x1010)  # same line, different offset
    assert line is not None and line.line_addr == 0x1000
    assert c.hits == 1 and c.misses == 1


def test_lru_eviction_order():
    evicted = []
    c = tiny_cache(assoc=2, sets=1, on_evict=evicted.append)
    c.insert(0x0000, MESIState.SHARED)
    c.insert(0x0080, MESIState.SHARED)
    c.lookup(0x0000)                      # touch A: B becomes LRU
    c.insert(0x0100, MESIState.SHARED)    # evicts B
    assert [l.line_addr for l in evicted] == [0x0080]
    assert c.peek(0x0000) is not None
    assert c.peek(0x0080) is None


def test_insert_existing_upgrades_state():
    c = tiny_cache()
    c.insert(0x1000, MESIState.SHARED)
    line = c.insert(0x1000, MESIState.EXCLUSIVE)
    assert line.state == MESIState.EXCLUSIVE
    assert c.resident_count() == 1


def test_insert_does_not_downgrade():
    c = tiny_cache()
    c.insert(0x1000, MESIState.EXCLUSIVE)
    line = c.insert(0x1000, MESIState.SHARED)
    assert line.state == MESIState.EXCLUSIVE


def test_invalidate_removes_line():
    c = tiny_cache()
    c.insert(0x1000, MESIState.SHARED)
    line = c.invalidate(0x1040)
    assert line is not None
    assert c.peek(0x1000) is None
    assert c.invalidations == 1
    assert c.invalidate(0x1000) is None  # already gone


def test_downgrade_clears_dirty():
    c = tiny_cache()
    line = c.insert(0x2000, MESIState.EXCLUSIVE)
    line.dirty = True
    c.downgrade(0x2000)
    assert line.state == MESIState.SHARED and not line.dirty


def test_sets_are_independent():
    c = tiny_cache(assoc=1, sets=4)
    # These map to different sets, so no eviction.
    c.insert(0x0000, MESIState.SHARED)
    c.insert(0x0080, MESIState.SHARED)
    c.insert(0x0100, MESIState.SHARED)
    assert c.resident_count() == 3
    assert c.evictions == 0


def test_conflict_misses_within_one_set():
    c = tiny_cache(assoc=1, sets=4)
    c.insert(0x0000, MESIState.SHARED)
    c.insert(0x0200, MESIState.SHARED)  # same set (4 sets * 128B stride)
    assert c.resident_count() == 1
    assert c.evictions == 1


def test_peek_has_no_side_effects():
    c = tiny_cache()
    c.insert(0x1000, MESIState.SHARED)
    h, m = c.hits, c.misses
    c.peek(0x1000)
    c.peek(0x9999000)
    assert (c.hits, c.misses) == (h, m)


def test_hit_rate_and_clear():
    c = tiny_cache()
    c.lookup(0x1000)
    c.insert(0x1000, MESIState.SHARED)
    c.lookup(0x1000)
    assert c.hit_rate() == pytest.approx(0.5)
    c.clear()
    assert c.resident_count() == 0


# ------------------------------------------- sets that exist once filled

def test_fresh_paper_l2_is_one_shared_empty_set():
    """2 048 slots, one object behind them: building an L2 allocates
    the slot list and nothing per set."""
    c = Cache(PAPER_MACHINE.l2)
    assert len(c._sets) == PAPER_MACHINE.l2.num_sets == 2048
    assert len({id(s) for s in c._sets}) == 1
    assert c.resident_count() == 0 and list(c.lines()) == []
    assert c.lookup(0x1000) is None and c.peek(0x1000) is None
    assert c.invalidate(0x1000) is None and c.downgrade(0x1000) is None


def test_the_shared_empty_set_cannot_be_written():
    """A writer that bypasses ``insert`` (the one place a new key enters
    a set) fails loudly instead of filling every untouched set at once."""
    c = tiny_cache()
    with pytest.raises(TypeError):
        c._sets[0][0x1000] = object()
    assert c.resident_count() == 0


def test_first_fill_makes_the_set_and_clear_shares_it_again():
    c = tiny_cache(assoc=2, sets=4)
    empty = c._sets[0]
    c.insert(0x0080, MESIState.SHARED)            # set 1
    c.insert(0x0280, MESIState.SHARED)            # set 1 again
    assert [type(s) is dict for s in c._sets] == [False, True, False, False]
    assert c.invalidate(0x0080) and c.invalidate(0x0280)
    c.insert(0x0480, MESIState.SHARED)            # emptied, not unmade
    assert c._sets[1] == {0x0480: c.peek(0x0480)}
    c.clear()
    assert all(s is empty for s in c._sets) and c.resident_count() == 0


def test_lines_come_back_by_set_then_age():
    """``self_invalidate_stale`` issues its invalidations and
    ``directory.drop_node`` calls, and ``finalize`` classifies, in this
    order: set index ascending whatever order the sets were first
    filled in, LRU to MRU inside a set."""
    c = Cache(PAPER_MACHINE.l2)
    stride = 2048 * 128                           # same set, next tag
    for s in (5, 1, 3):
        c.insert(s * 128, MESIState.SHARED)
        c.insert(s * 128 + stride, MESIState.EXCLUSIVE)
    c.lookup(3 * 128)                             # set 3: first fill is MRU
    assert [ln.line_addr for ln in c.lines()] == [
        1 * 128, 1 * 128 + stride,
        3 * 128 + stride, 3 * 128,
        5 * 128, 5 * 128 + stride]


# ------------------------------------------------------------ tag-only L1

def tiny_tags(assoc=2, sets=4, line=128):
    cfg = CacheConfig(size_bytes=assoc * sets * line, assoc=assoc,
                      line_bytes=line, hit_cycles=1)
    return L1Tags(cfg, name="tags")


def test_l1_tags_eviction_follows_lru_order():
    t = tiny_tags(assoc=2, sets=1)
    t.insert(0x0000)
    t.insert(0x0080)
    assert t.lookup(0x0010)               # touch A: B becomes LRU
    t.insert(0x0100)                      # evicts B
    assert list(t.lines()) == [0x0000, 0x0100]
    assert t.evictions == 1
    t.insert(0x0000)                      # resident: LRU position kept
    t.insert(0x0180)                      # so A is the victim now
    assert list(t.lines()) == [0x0100, 0x0180]
    assert not t.lookup(0x0000)
    assert (t.hits, t.misses, t.evictions) == (1, 1, 2)


def test_l1_tags_invalidate_count_and_clear():
    t = tiny_tags()
    t.insert(0x1000)
    t.insert(0x2080)
    assert t.resident_count() == 2
    assert t.invalidate(0x1040) and not t.invalidate(0x1000)
    assert t.invalidations == 1
    assert list(t.lines()) == [0x2080]
    t.clear()
    assert t.resident_count() == 0 and list(t.lines()) == []
    assert t.invalidations == 1           # clear() is not an invalidation


@pytest.mark.parametrize("seed", [3, 17, 101])
def test_l1_tags_match_line_backed_cache_on_random_accesses(seed):
    """The tag-only L1 against the line-object ``Cache`` it replaced at
    that level, on one random access string: same presence answers,
    same resident lines in the same LRU victim order after every
    operation, same four statistics."""
    rng = random.Random(seed)
    tags, ref = tiny_tags(assoc=2, sets=4), tiny_cache(assoc=2, sets=4)
    lines = [i * 128 for i in range(24)]
    for _ in range(2000):
        addr = rng.choice(lines) + rng.randrange(128)
        op = rng.random()
        if op < 0.5:
            assert tags.lookup(addr) == (ref.lookup(addr) is not None)
        elif op < 0.85:
            tags.insert(addr)
            ref.insert(addr, MESIState.SHARED)
        elif op < 0.99:
            assert tags.invalidate(addr) == (ref.invalidate(addr) is not None)
        else:
            tags.clear()
            ref.clear()
        assert list(tags.lines()) == [ln.line_addr for ln in ref.lines()]
        assert tags.resident_count() == ref.resident_count()
    assert (tags.hits, tags.misses, tags.evictions, tags.invalidations) \
        == (ref.hits, ref.misses, ref.evictions, ref.invalidations)
    assert tags.evictions and tags.invalidations and tags.hits
    assert tags.accesses == ref.accesses
    assert tags.hit_rate() == ref.hit_rate()
