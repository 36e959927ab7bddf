"""Tests for the coherent memory system: latency composition (Table 1),
MSHR merging, classification, prefetch-exclusive, self-invalidation."""

import pytest

from repro.config import PAPER_MACHINE
from repro.mem import CoherentMemorySystem, MESIState
from repro.mem.address import SHARED_BASE
from repro.sim import Engine


def make(n_cmps=4, **kw):
    cfg = PAPER_MACHINE.with_(n_cmps=n_cmps, placement="round_robin", **kw)
    eng = Engine()
    return eng, CoherentMemorySystem(eng, cfg), cfg


def addr_homed_at(cfg, node):
    """A shared address whose round-robin home is ``node``."""
    return SHARED_BASE + node * cfg.page_bytes


def run(eng, gen):
    return eng.run_process(gen)


def test_local_miss_is_170ns():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    res = run(eng, ms.load(0, 0, a))
    assert res.level == "local"
    assert cfg.ns(res.cycles) == pytest.approx(170.0)


def test_remote_clean_miss_is_290ns():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 1)
    res = run(eng, ms.load(0, 0, a))
    assert res.level == "remote"
    assert cfg.ns(res.cycles) == pytest.approx(290.0)


def test_l2_hit_is_10_cycles():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.load(0, 0, a))
    # Second access from the *other* CPU misses its own L1 but hits L2.
    res = run(eng, ms.load(0, 1, a))
    assert res.level == "l2"
    assert res.cycles == pytest.approx(10.0)


def test_l1_filtering_after_fill():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.load(0, 0, a))
    assert ms.l1_probe(0, 0, a) is True       # requester's L1 has it
    assert ms.l1_probe(0, 1, a) is False      # sibling CPU's L1 doesn't


def test_three_hop_dirty_miss_longer_than_two_hop():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.store(1, 0, a))               # node 1 becomes dirty owner
    res = run(eng, ms.load(0, 0, a))          # node 0 reads: intervention
    assert res.level == "remote3"
    # bus30 + dir60 + net50 + niin10 + ownerbus30 + niout10 + net50 + bus30
    assert cfg.ns(res.cycles) == pytest.approx(270.0)
    # Owner was demoted to SHARED and clean.
    oline = ms.nodes[1].l2.peek(a)
    assert oline.state == MESIState.SHARED and not oline.dirty


def test_store_upgrade_invalidates_sharers():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.load(0, 0, a))
    run(eng, ms.load(1, 0, a))
    run(eng, ms.load(2, 0, a))
    res = run(eng, ms.store(0, 0, a))         # upgrade; INVs to nodes 1,2
    assert res.level == "local"
    assert ms.nodes[1].l2.peek(a) is None
    assert ms.nodes[2].l2.peek(a) is None
    line = ms.nodes[0].l2.peek(a)
    assert line.state == MESIState.EXCLUSIVE and line.dirty
    # INV round trip (120ns) dominates the skipped memory access:
    # bus30 + dir60 + inv(50+10+10+50) + bus30 = 240ns
    assert cfg.ns(res.cycles) == pytest.approx(240.0)


def test_store_hit_exclusive_is_l2_hit():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.store(0, 0, a))
    res = run(eng, ms.store(0, 0, a + 8))
    assert res.level == "l2"
    assert res.cycles == pytest.approx(10.0)


def test_store_writethrough_invalidates_sibling_l1():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.load(0, 1, a))                # CPU 1 caches it in its L1
    assert ms.l1_probe(0, 1, a)
    run(eng, ms.store(0, 0, a))               # CPU 0 writes through
    assert ms.l1_probe(0, 1, a) is False
    assert ms.l1_probe(0, 0, a) is True


def test_mshr_merge_classifies_a_late():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 1)                  # remote so there's a window

    def scenario():
        p1 = eng.process(ms.load(0, 1, a, stream="A"), name="a")
        yield 1                                # R arrives mid-flight
        p2 = eng.process(ms.load(0, 0, a, stream="R"), name="r")
        yield eng.all_of([p1.done_event, p2.done_event])

    run(eng, scenario())
    ms.finalize()
    assert ms.classes.get("A", "read", "late") == 1


def test_sibling_hit_classifies_a_timely():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 1)
    run(eng, ms.load(0, 1, a, stream="A"))
    run(eng, ms.load(0, 0, a, stream="R"))     # L2 hit after fill
    ms.finalize()
    assert ms.classes.get("A", "read", "timely") == 1


def test_unreferenced_fill_classifies_a_only():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 1)
    run(eng, ms.load(0, 1, a, stream="A"))
    ms.finalize()
    assert ms.classes.get("A", "read", "only") == 1


def test_invalidation_finalizes_classification():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.load(0, 1, a, stream="A"))     # A fetches at node 0
    run(eng, ms.store(1, 0, a, stream="R"))    # node 1 writes: INV node 0
    assert ms.classes.get("A", "read", "only") == 1


def test_prefetch_exclusive_makes_store_hit():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 1)
    assert ms.prefetch_exclusive(0, a, stream="A") is True
    eng.run()                                  # let the prefetch land
    res = run(eng, ms.store(0, 0, a, stream="R"))
    assert res.level == "l2"                   # store covered by prefetch
    ms.finalize()
    assert ms.classes.get("A", "rdex", "timely") == 1


def test_prefetch_dropped_when_already_owned():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    run(eng, ms.store(0, 0, a))
    assert ms.prefetch_exclusive(0, a) is False


def test_prefetch_cap_drops_excess():
    eng, ms, cfg = make()
    issued = sum(
        ms.prefetch_exclusive(0, addr_homed_at(cfg, 1) + i * 128)
        for i in range(20))
    assert issued == CoherentMemorySystem.MAX_PREFETCHES
    assert ms.nodes[0].stats.get("prefetch_dropped") > 0
    eng.run()
    assert ms.nodes[0].outstanding_prefetches == 0


def test_directory_states_after_read_write_read():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 2)
    la = ms.line_addr(a)
    run(eng, ms.load(0, 0, a))
    e = ms.directory.entry(la)
    assert e.state.__class__ is int and e.sharers == {0}
    run(eng, ms.store(1, 0, a))
    assert e.owner == 1 and not e.sharers
    run(eng, ms.load(3, 0, a))
    assert e.owner is None and e.sharers == {1, 3}


def test_eviction_notifies_directory():
    eng, ms, cfg = make()
    la = ms.line_addr(addr_homed_at(cfg, 0))
    run(eng, ms.load(0, 0, la))
    # Force eviction by filling the set: same set index needs
    # addr stride = num_sets * line = 512 * 128 = 64 KiB for paper L2.
    stride = cfg.l2.num_sets * cfg.line_bytes
    for i in range(1, cfg.l2.assoc + 1):
        run(eng, ms.load(0, 0, la + i * stride))
    assert ms.nodes[0].l2.peek(la) is None
    assert la not in {a for a in (la,) if 0 in ms.directory.entry(la).sharers}


def test_epoch_self_invalidation_drops_stale_shared_lines():
    eng, ms, cfg = make()
    a1 = addr_homed_at(cfg, 1)
    a2 = addr_homed_at(cfg, 1) + 128
    run(eng, ms.load(0, 0, a1))
    ms.bump_epoch(0)
    run(eng, ms.load(0, 0, a2))                # fresh in the new epoch
    dropped = ms.self_invalidate_stale(0)
    assert dropped == 1
    assert ms.nodes[0].l2.peek(a1) is None
    assert ms.nodes[0].l2.peek(a2) is not None
    assert 0 not in ms.directory.entry(ms.line_addr(a1)).sharers


def test_self_invalidation_leaves_lines_with_a_transaction_in_flight():
    eng, ms, cfg = make()
    a1 = addr_homed_at(cfg, 1)
    run(eng, ms.load(0, 0, a1))
    ms.bump_epoch(0)
    lock = ms.directory.lock(ms.line_addr(a1))
    assert lock.try_acquire()                  # mid-flight at the home
    assert ms.self_invalidate_stale(0) == 0
    lock.release()
    assert ms.self_invalidate_stale(0) == 1


def test_per_access_counts_are_ints_until_folded_and_null_sink_drops_them():
    """The per-access counts (``loads``, ``l2_hits``, latency classes,
    ...) are plain ints on the node, folded into the sink's counters on
    demand; under ``NullSink`` the fold, like every ``probe.count``,
    records nothing."""
    for sink, kept in (("aggregate", True), ("null", False)):
        cfg = PAPER_MACHINE.with_(n_cmps=4, placement="round_robin")
        eng = Engine()
        ms = CoherentMemorySystem(eng, cfg, sink=sink)
        a = addr_homed_at(cfg, 1)
        run(eng, ms.load(0, 0, a))
        run(eng, ms.load(0, 1, a))             # sibling CPU: L2 hit
        run(eng, ms.store(0, 0, a))
        nm = ms.nodes[0]
        want = {"loads": 2, "stores": 1, "l2_hits": 1, "remote": 2}
        assert {k: n for k, n in nm.counts.items() if n} == want
        assert all(type(n) is int for n in nm.counts.values())
        assert nm.stats.as_dict() == {}        # nothing folded yet
        assert ms.machine_stats().as_dict() == (want if kept else {})
        assert not any(nm.counts.values())
        assert ms.machine_stats().as_dict() == (want if kept else {})
        ms.publish_cache_stats()
        assert all(not c.as_dict() for c in ms.obs.counters.values()) \
            == (not kept)
        if kept:
            assert nm.stats.get("cache.l2.misses") == 1
            assert nm.stats.get("loads") == 2


def test_concurrent_writers_serialize_on_directory_lock():
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    results = {}

    def writer(node):
        res = yield from ms.store(node, 0, a)
        results[node] = res

    eng.process(writer(1), name="w1")
    eng.process(writer(2), name="w2")
    eng.run()
    la = ms.line_addr(a)
    e = ms.directory.entry(la)
    # Exactly one node ends up the owner; the other was invalidated.
    assert e.state == 2 and e.owner in (1, 2)
    owner, loser = e.owner, 3 - e.owner
    assert ms.nodes[owner].l2.peek(a) is not None
    assert ms.nodes[loser].l2.peek(a) is None
