"""Unit tests for the fully-mapped directory state machine."""

import pytest

from repro.mem import Directory, DirState
from repro.sim import Engine


@pytest.fixture
def d():
    return Directory(Engine())


def test_entries_created_on_demand(d):
    e = d.entry(0x1000)
    assert e.state == DirState.UNOWNED
    assert d.n_entries == 1
    assert d.entry(0x1000) is e


def test_add_sharers(d):
    d.add_sharer(0x1000, 2)
    d.add_sharer(0x1000, 5)
    e = d.entry(0x1000)
    assert e.state == DirState.SHARED
    assert e.sharers == {2, 5}


def test_add_sharer_on_exclusive_rejected(d):
    d.set_exclusive(0x1000, 1)
    with pytest.raises(RuntimeError):
        d.add_sharer(0x1000, 2)


def test_set_exclusive_clears_sharers(d):
    d.add_sharer(0x1000, 2)
    d.add_sharer(0x1000, 3)
    d.set_exclusive(0x1000, 7)
    e = d.entry(0x1000)
    assert e.state == DirState.EXCLUSIVE
    assert e.owner == 7
    assert not e.sharers


def test_demote_keeps_old_owner_as_sharer(d):
    d.set_exclusive(0x1000, 4)
    d.demote_to_shared(0x1000, extra_sharer=9)
    e = d.entry(0x1000)
    assert e.state == DirState.SHARED
    assert e.sharers == {4, 9}
    assert e.owner is None


def test_demote_requires_exclusive(d):
    d.add_sharer(0x1000, 1)
    with pytest.raises(RuntimeError):
        d.demote_to_shared(0x1000)


def test_drop_owner_returns_to_unowned(d):
    d.set_exclusive(0x1000, 3)
    d.drop_node(0x1000, 3)
    assert d.entry(0x1000).state == DirState.UNOWNED
    assert d.entry(0x1000).owner is None


def test_drop_last_sharer_returns_to_unowned(d):
    d.add_sharer(0x1000, 1)
    d.add_sharer(0x1000, 2)
    d.drop_node(0x1000, 1)
    assert d.entry(0x1000).state == DirState.SHARED
    d.drop_node(0x1000, 2)
    assert d.entry(0x1000).state == DirState.UNOWNED


def test_drop_unknown_is_noop(d):
    d.drop_node(0x9999, 1)          # no entry: fine
    d.add_sharer(0x1000, 1)
    d.drop_node(0x1000, 5)          # not a sharer: fine
    assert d.entry(0x1000).sharers == {1}


def test_sharers_excluding(d):
    d.add_sharer(0x1000, 1)
    d.add_sharer(0x1000, 2)
    d.add_sharer(0x1000, 3)
    assert d.sharers_excluding(0x1000, 2) == {1, 3}
    assert d.sharers_excluding(0x1000, 9) == {1, 2, 3}


def test_locks_are_per_line_and_cached(d):
    l1 = d.lock(0x1000)
    l2 = d.lock(0x1080)
    assert l1 is not l2
    assert d.lock(0x1000) is l1


def test_is_locked_follows_the_line_mutex(d):
    assert not d.is_locked(0x1000)           # never locked: no mutex yet
    lock = d.lock(0x1000)
    assert not d.is_locked(0x1000)           # mutex exists, free
    assert lock.try_acquire()
    assert d.is_locked(0x1000) and not d.is_locked(0x1080)
    lock.release()
    assert not d.is_locked(0x1000)
