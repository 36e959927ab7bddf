"""The memory hot path: one miss implementation (the generator
transaction) and one hit implementation (the per-shell closures of
``CoherentMemorySystem.fast_paths``, installed as the VM's hooks).

* the same-line / same-bus race cases the forecast tier had to get
  right, kept as cycle pins of the generator path;
* the randomized contended-traffic property, as bucket-queue vs
  heapq-reference equality of *unsorted* completion traces and server
  statistics;
* a differential test of the VM hooks, falling back to the shell's
  timed accesses the way a run does, against driving
  ``l1_probe``/``load``/``store`` through the engine, at three L1
  associativities and with every leg of the hooks shown taken;
* every L1 miss of a run is counted once;
* a structure guard: calls per hit and generators per miss stay flat;
* a stale ``REPRO_HOTPATH`` naming a removed tier (``mem``, ``engine``,
  ``fuse``) is refused, not silently dropped.
"""

import random
import sys
from collections import Counter

import pytest

from repro import compile_source
from repro.config import PAPER_MACHINE, CacheConfig
from repro.hotpath import generated_code, reset_for_tests
from repro.interp.interpreter import MISS
from repro.mem import CoherentMemorySystem
from repro.mem.address import SHARED_BASE
from repro.runtime import Machine
from repro.runtime.team import Job
from repro.runtime.words import spin_until
from repro.sim import Engine, SimEvent

from .heap_engine import HeapEngine


def make(n_cmps=4, engine_cls=Engine, **kw):
    cfg = PAPER_MACHINE.with_(n_cmps=n_cmps, placement="round_robin", **kw)
    eng = engine_cls()
    return eng, CoherentMemorySystem(eng, cfg), cfg


def addr_homed_at(cfg, node):
    return SHARED_BASE + node * cfg.page_bytes


def local_miss_cycles(ms):
    """End-to-end latency of an uncontended local read miss."""
    return 2 * ms.c_bus + ms.c_nil + ms.c_mem


def remote_miss_cycles(ms):
    """End-to-end latency of an uncontended remote clean read miss."""
    return local_miss_cycles(ms) + 2 * (ms.c_nir + ms.c_net)


# ------------------------------------------------------------- race pins

@pytest.mark.parametrize("engine_cls", [
    pytest.param(Engine, id="engine"), pytest.param(HeapEngine, id="heap")])
def test_race_same_line_cycles_match_generator(engine_cls):
    """CPU on node 0 misses a line; a second CPU on node 1 wakes at the
    exact completion instant (earlier seq, so it runs first) and
    requests the *same directory line* while the leader's lock and fill
    leg are still outstanding.  Both resolve as uncontended misses,
    under the bucket queue and under the heapq reference."""
    eng, ms, cfg = make(engine_cls=engine_cls)
    a = addr_homed_at(cfg, 0)
    results = {}

    def racer():
        yield local_miss_cycles(ms)
        results["racer"] = yield from ms.load(1, 0, a)

    def leader():
        results["leader"] = yield from ms.load(0, 0, a)

    eng.process(racer(), name="racer")       # created first: earlier seq
    eng.process(leader(), name="leader")
    eng.run()
    assert results["leader"].level == "local"
    assert results["leader"].cycles == local_miss_cycles(ms)
    # The racer's trip starts after the leader committed, so by its
    # acquire instant the line lock is free again: a plain remote read.
    assert results["racer"].level == "remote"
    assert results["racer"].cycles == remote_miss_cycles(ms)
    assert eng.now == local_miss_cycles(ms) + remote_miss_cycles(ms)


def test_racer_queues_behind_held_fill_leg():
    """A same-node second CPU arriving at the leader's completion
    instant finds the bus still held by the leader's fill leg (the
    leader releases later in the same step): it takes a queue position
    and is handed the unit in zero time, so both see a full local miss
    and neither overlaps the other's service."""
    eng, ms, cfg = make()
    a = addr_homed_at(cfg, 0)
    b = a + cfg.line_bytes                   # different directory line
    results = {}

    def racer():
        yield local_miss_cycles(ms)
        assert ms.nodes[0].bus.queue_length == 0
        results["racer"] = yield from ms.load(0, 1, b)

    def leader():
        results["leader"] = yield from ms.load(0, 0, a)

    eng.process(racer(), name="racer")
    eng.process(leader(), name="leader")
    eng.run()
    bus = ms.nodes[0].bus
    assert results["leader"].level == "local"
    assert results["racer"].level == "local"
    assert results["racer"].cycles == results["leader"].cycles \
        == local_miss_cycles(ms)
    assert bus.max_queue_len == 1            # the racer did queue ...
    assert bus.total_queue_wait == 0.0       # ... for a zero-time handoff
    assert bus.total_requests == 4
    assert bus.total_service == 4 * ms.c_bus


# ---------------------------------------------------------------- property

def _contended_workload(engine_cls, seed):
    """Mixed random load/store/prefetch traffic from every CPU over a
    small shared line set -- dense same-line races, upgrades,
    invalidation rounds and 3-hop interventions.  Returns the engine
    end time, the full completion-ordered access trace and every
    server's statistics."""
    eng, ms, cfg = make(engine_cls=engine_cls)
    rng = random.Random(seed)
    lines = [addr_homed_at(cfg, n) + k * cfg.line_bytes
             for n in range(cfg.n_cmps) for k in range(3)]
    trace = []

    def worker(node, cpu, ops):
        for kind, addr, gap in ops:
            yield gap
            if kind == "pfx":
                ms.prefetch_exclusive(node, addr)
                continue
            if kind == "load":
                r = yield from ms.load(node, cpu, addr)
            else:
                r = yield from ms.store(node, cpu, addr)
            trace.append((node, cpu, kind, addr, eng.now, r.cycles, r.level))

    for node in range(cfg.n_cmps):
        for cpu in range(2):
            ops = [(rng.choice(("load", "load", "store", "store", "pfx")),
                    rng.choice(lines), float(rng.randrange(0, 300)))
                   for _ in range(20)]
            eng.process(worker(node, cpu, ops), name=f"w{node}.{cpu}")
    eng.run()
    servers = [(s.name, s.total_requests, s.total_service,
                s.total_queue_wait, s.max_queue_len)
               for nm in ms.nodes
               for s in (nm.bus, nm.ni_in, nm.ni_out, nm.dirctrl, nm.mem)]
    # The trace is compared *unsorted*: both queues order events by
    # (time, scheduling order), so even completions landing at the same
    # instant must appear in the same order.
    return eng.now, trace, servers


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_forecast_bit_identical_on_contended_workload(seed):
    """Property: the bucket queue and the heapq reference discipline
    give bit-identical completion traces and server statistics on
    densely contended coherence traffic (the property the removed
    forecast tier was held to as a third arm, hence the name)."""
    ref = _contended_workload(HeapEngine, seed)
    assert any(queued for *_, queued in ref[2]), "workload never queued"
    assert _contended_workload(Engine, seed) == ref


# ------------------------------------------------- hit-probe differential

_PROBE_PROG = compile_source("""
double a[256];
double b[256];
void main() { }
""")


class _FastLog:
    """Stands in for the line profiler: records ``fast`` taggings."""

    def __init__(self):
        self.calls = []

    def fast(self, busy, stall, level):
        self.calls.append((busy, stall, level))


def _probe_machine(l1_hit_cycles, l1_assoc):
    """Two CMPs in slipstream mode with caches small enough that a few
    hundred accesses over 32 lines evict at both levels."""
    cfg = PAPER_MACHINE.with_(
        n_cmps=2, placement="round_robin",
        l1=CacheConfig(size_bytes=1024, assoc=l1_assoc, line_bytes=128,
                       hit_cycles=l1_hit_cycles),
        l2=CacheConfig(size_bytes=2048, assoc=2, line_bytes=128,
                       hit_cycles=10))
    return Machine(_PROBE_PROG, cfg=cfg, mode="slipstream")


def _probe_ops(seed, n_shells, n=900):
    """Seeded access stream over every shell, with barriers (reference
    epochs), A-streams running ahead of / rejoining their R-stream's
    session, A-streams going dormant and back, and loads issued with
    the stream's synchronous debt over its limit (``forced``).  Half the
    accesses go to the line the pair touched last (shells ``i`` and
    ``i + 2`` are the R- and the A-stream of CMP ``i``): the two streams
    of a pair run the same program."""
    rng = random.Random(seed)
    last = [0, 0]
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.03:
            ops.append(("barrier", rng.randrange(2)))
        elif r < 0.06:
            ops.append(("session", rng.randrange(2)))
        elif r < 0.08:
            ops.append(("dormant", rng.randrange(2)))
        else:
            si = rng.randrange(n_shells)
            if rng.random() < 0.5:
                g, flat = divmod(last[si % 2] + rng.randrange(16), 256)
            else:
                g, flat = rng.randrange(2), rng.randrange(256)
            last[si % 2] = (g * 256 + flat) & ~15
            ops.append((rng.choice(("load", "load", "load", "forced",
                                    "store", "store")),
                        si, g, flat, float(rng.randrange(100))))
    return ops


def _drive(m, ops, fast):
    """Apply ``ops`` to machine ``m`` one at a time, letting background
    coherence work (prefetches, writebacks, invalidations) drain between
    accesses.  ``fast=True`` goes through the shell's VM hooks and, when
    they decline, the shell's timed access (``timed_load``/``timed_store``,
    as ``_vm_loop`` does); ``fast=False`` drives
    ``l1_probe``/``load``/``store`` through the engine for every access.
    Returns per-access ``(handled synchronously?, cycles)`` -- a forced
    load reads ``None`` in the first place: the hook must decline it
    whatever the caches hold, so only its cycles compare -- and, from
    the hooks' side, how many accesses took each leg, by role."""
    ms, eng = m.memsys, m.engine
    ahead = [False, False]                   # A-stream out of session?
    dormant = [False, False]
    out = []
    legs = Counter()

    def timed(gen):
        t0 = eng.now
        res = eng.run_process(gen)
        return res, eng.now - t0

    for op in ops:
        if op[0] == "barrier":
            ms.bump_epoch(op[1])
            continue
        if op[0] == "session":
            ch = m.channels[op[1]]
            if ahead[op[1]]:
                ch.r_reached_barrier(0)      # R catches up
            else:
                ch.a_reached_barrier(0)      # A runs a session ahead
            ahead[op[1]] = not ahead[op[1]]
            continue
        if op[0] == "dormant":
            a = m.shells[2 + op[1]]
            dormant[op[1]] = not dormant[op[1]]
            a.control.directive(
                "NONE" if dormant[op[1]] else "GLOBAL_SYNC", 0, True, False)
            continue
        kind, si, g, flat, value = op
        sh = m.shells[si]
        addr = m.gaddr(g, flat)
        a_stream = sh.role == "A"
        asleep = a_stream and dormant[sh.node]
        forced = kind == "forced" and not asleep
        if kind == "forced":
            kind = "load"
        if fast:
            l1s = ms.nodes[sh.node].l1s
            l1 = l1s[sh.cpu]
            before = (l1.evictions,
                      sum(c.invalidations for c in l1s if c is not l1))
            debt = sh._debt = sh.DEBT_LIMIT + 1.0 if forced else 0.0
            if kind == "load":
                la = ms.line_addr(addr)
                # this set's ways, oldest first, by the public walk
                span = m.cfg.l1.num_sets * m.cfg.line_bytes
                ways = [w for w in l1.lines() if (w - la) % span == 0]
                v = sh.fast_read(g, flat)
                sync = v is not MISS
                if sync:
                    assert v == m.store.read(g, flat)
                else:
                    _, cyc = timed(sh.timed_load(addr))
                leg = ("forced" if forced else "dormant" if asleep
                       else "decline" if not sync
                       else "mru" if ways and ways[-1] == la
                       else "other_way" if la in ways
                       else "l2_evict" if l1.evictions > before[0] else "l2")
                assert not (forced and sync)
            else:
                sync = sh.fast_write(g, flat, value)
                if not sync and a_stream:
                    assert ms.prefetch_exclusive(sh.node, addr, "A")
                    cyc = 1.0
                elif not sync:
                    _, cyc = timed(sh.timed_store(addr))
                    m.store.write(g, flat, value)
                leg = "store" if sync else "store_decline"
                if sync and sum(c.invalidations for c in l1s
                                if c is not l1) > before[1]:
                    leg = "store_inv_sibling"
            legs[sh.role, leg] += 1
            if sync:
                cyc = sh._debt
            else:
                assert sh._debt == debt      # declined: nothing charged
            sh._debt = 0.0
        elif asleep or (a_stream and kind == "store" and ahead[sh.node]):
            sync, cyc = True, 1.0            # touches no shared memory
        elif kind == "load":
            sync = ms.l1_probe(sh.node, sh.cpu, addr)
            if sync:
                cyc = float(m.cfg.l1.hit_cycles)
            else:
                res, cyc = timed(ms.load(sh.node, sh.cpu, addr, sh.role))
                sync = res.level == "l2"
        elif a_stream:
            fired = ms.prefetch_exclusive(sh.node, addr, "A")
            sync, cyc = not fired, 1.0
        else:
            res, cyc = timed(ms.store(sh.node, sh.cpu, addr, sh.role))
            sync = res.level == "l2"
            m.store.write(g, flat, value)
        eng.run()                            # drain background work
        out.append((None if forced else sync, cyc))
    return out, legs


def _cache_state(ms):
    """Per-cache statistics plus resident lines in LRU victim order
    (``lines()`` walks each set oldest-first; an L1 yields bare tags),
    with the L2 lines' coherence and classification metadata."""
    state = []
    for nm in ms.nodes:
        for c in nm.l1s + [nm.l2]:
            state.append((c.name, c.hits, c.misses, c.evictions,
                          c.invalidations,
                          [getattr(ln, "line_addr", ln) for ln in c.lines()]))
        state.append([(ln.line_addr, ln.state, ln.dirty, ln.fetcher,
                       ln.fill_kind, ln.sibling_hit, ln.merged_late,
                       ln.epoch) for ln in nm.l2.lines()])
    return state


#: What one op stream must show taken, per role: every leg of the
#: load hook -- hit on the MRU way, hit on another way (2+ ways only),
#: L2 hit that evicts an L1 way, decline, debt-forced decline -- the
#: A-stream's dormant load, and both outcomes of the store hook.
_LEGS = [(role, leg) for role in "RA" for leg in (
    "mru", "other_way", "l2_evict", "decline", "forced", "store",
    "store_decline")] + [("A", "dormant"), ("R", "store_inv_sibling")]


@pytest.mark.parametrize("l1_hit_cycles", [1, 2])
@pytest.mark.parametrize("seed", [5, 29])
def test_hit_probes_match_engine_driven_accesses(seed, l1_hit_cycles):
    """The synchronous hit path must be indistinguishable, in every
    cache counter, LRU order, memory statistic and line classification,
    from taking each access through the engine -- and the shell's
    accounting over it (debt, ``fast_mem_cycles``, profiler level tags)
    must charge exactly the hit latencies -- with a direct-mapped, a
    2-way and a 4-way L1.  ``l1_hit_cycles=2`` runs the ``lat > 1`` leg
    on L1 hits too.  A declined load goes on through ``timed_load``
    (whose ``l1_probe`` counts the miss), so a miss counted on both
    sides of the hand-over shows here."""
    for l1_assoc in (1, 2, 4):
        fast_m, ref_m = (_probe_machine(l1_hit_cycles, l1_assoc)
                         for _ in range(2))
        logs = []
        for sh in fast_m.shells:
            sh._prof = _FastLog()
            sh._build_fast_paths()           # the hooks capture _prof
            logs.append(sh._prof.calls)
        ops = _probe_ops(seed, len(fast_m.shells))
        got, legs = _drive(fast_m, ops, fast=True)
        want, _ = _drive(ref_m, ops, fast=False)
        assert got == want
        assert _cache_state(fast_m.memsys) == _cache_state(ref_m.memsys)
        assert fast_m.memsys.machine_stats().as_dict() \
            == ref_m.memsys.machine_stats().as_dict()
        assert [a.tolist() for a in fast_m.store.arrays] \
            == [a.tolist() for a in ref_m.store.arrays]
        for m in (fast_m, ref_m):
            m.memsys.finalize()
        assert fast_m.memsys.classes.as_dict() \
            == ref_m.memsys.classes.as_dict()
        # The streams must actually have exercised every leg.
        assert [leg for leg in _LEGS if not legs[leg]] == [
            (role, "other_way") for role in "RA" if l1_assoc == 1]
        stats = fast_m.memsys.machine_stats()
        assert stats.get("l2_hits") and stats.get("prefetch_ex")
        assert any(nm.l2.evictions for nm in fast_m.memsys.nodes)
        # Shell accounting: every synchronous access was charged its hit
        # latency as debt; the part beyond the 1-cycle access is memory
        # stall, tagged with the level it was resolved at.
        sync_cycles = [cyc for sync, cyc in want if sync]
        tagged = [c for calls in logs for c in calls]
        assert sorted(tagged) == sorted(
            (1.0, cyc - 1.0, "l2" if cyc > 1.0 else "l1")
            for cyc in sync_cycles)
        assert sum(sh.fast_mem_cycles for sh in fast_m.shells) \
            == sum(cyc - 1.0 for cyc in sync_cycles)


def test_every_l1_miss_of_a_run_is_counted_once():
    """A shared load that misses its L1 goes on to the L2 -- the
    synchronous hit or ``load()`` -- and both count it under ``loads``;
    so over a whole run the L1s' miss tally equals ``loads``.  (A VM
    load that left the CMP used to be counted by the synchronous probe
    and again by ``timed_load``'s.)"""
    from repro.harness import execute_spec, static_specs
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    for spec in static_specs(cfg, "test", ("cg",), ("single", "G0")):
        stats = execute_spec(spec).result.mem_stats
        assert stats.get("cache.l1.misses") == stats.get("loads") > 0, spec
    assert stats.get("cache.l1.hits") > stats.get("loads")


def test_wild_index_onto_line_minus_one_finds_no_empty_way():
    """An A-stream running ahead on stale data computes wild indices,
    and nothing bounds them before the hook: every integer is a line
    number some load can ask for.  The one that lands on line -1 must
    be declined like any other absent line -- an empty way is not
    marked with an integer."""
    m = _probe_machine(1, 2)
    for sh in m.shells:
        l1 = m.memsys.nodes[sh.node].l1s[sh.cpu]
        flat = -(m.gaddr(0, 0) // 8) - 1             # the word before 0
        assert m.gaddr(0, flat) == -8
        assert sh.fast_read(0, flat) is MISS
        assert not l1.hit(-8) and not l1.invalidate(-8)
        assert (l1.hits, sh._debt, list(l1.lines())) == (0, 0.0, [])


# --------------------------------------------------------- structure guard

def _python_calls(fn):
    """Run ``fn()``; returns (result, Python-level calls made, the
    generator objects run, by function name).  ``sys.setprofile``
    reports a ``call`` for every Python frame entered -- C functions
    come as ``c_call`` -- and a generator's frame again each time it is
    resumed, so generators are told apart by frame.  Calls are recorded
    as code objects: compare ``co_name``, or count one function's
    ``__code__`` (``_NEW_EVENT``)."""
    calls, gens = [], {}

    def hook(frame, event, arg):
        if event == "call":
            if frame.f_code.co_flags & 0x20:       # CO_GENERATOR
                gens[id(frame)] = frame             # held: ids stay unique
            else:
                calls.append(frame.f_code)

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls, sorted(f.f_code.co_name for f in gens.values())


#: Every ``SimEvent`` (and subclass) construction runs this code.
_NEW_EVENT = SimEvent.__init__.__code__


def test_hit_is_one_call_and_miss_a_handful_of_generators():
    """What the flat hit path, the multi-leg trips and the flattened
    timed path bought, pinned so that it cannot rot silently:

    * from the VM a load that hits the most recently used way of its
      L1 set and an exclusive-hit store are one Python call each (the
      hook itself -- no probe, cache or counter method under it), for
      an R-stream and for an A-stream load inside a region alike
      (outside one the A-stream asks ``SlipControl.effective``, a
      property); every other synchronous outcome of a load -- a hit on
      another way, an L2 hit, a decline -- is at most two, the hook and
      the one remainder the roles share, and a load declined for the
      stream's debt is the hook alone again;
    * an uncontended remote read miss runs in 5 generator objects --
      ``timed_load``, ``load`` (the read transaction is its tail) and
      one ``serve_legs`` each for the request trip, the memory
      controller and the reply trip -- where it was 7 with ``_gets``
      and the line lock's ``acquire`` as generators of their own, and
      12 with one generator per server crossed; taking the free line
      lock makes none;
    * a spin poll that hits the L1 makes no generator beyond the
      ``spin_until`` that is polling (``word_load`` and ``timed_load``
      used to be made and thrown away per poll);
    * a process nobody joins makes no ``SimEvent``: the done-event is
      made for who asks.
    """
    prog = compile_source("double a[2048];\nvoid main() { }")  # four pages
    m = Machine(prog, mode="slipstream", cfg=PAPER_MACHINE.with_(
        n_cmps=2, placement="round_robin"))
    eng, ms = m.engine, m.memsys
    r, a = m.shells[0], m.shells[2]
    assert (r.role, a.role, a.node) == ("R", "A", r.node)
    # ``local`` and ``conflict`` are homed here and share an L1 set;
    # ``remote`` is homed elsewhere.
    local, remote = 0, 512
    conflict = m.cfg.l1.num_sets * m.cfg.line_bytes // 8
    for flat in (local, conflict):
        assert ms.placement.home(m.gaddr(0, flat)) == r.node
    assert ms.placement.home(m.gaddr(0, remote)) != r.node
    eng.run_process(r.timed_store(m.gaddr(0, local)))   # own it, fill L1
    eng.run_process(a.timed_load(m.gaddr(0, local)))    # fill the A's L1
    a.current_job = Job(1, 0, (), ("GLOBAL_SYNC", 0))
    a.in_region = True

    def hooks(fn):
        """(result, names of the Python functions run under ``fn``)"""
        value, calls, gens = _python_calls(fn)
        assert gens == []
        return value, [c.co_name for c in calls[1:]]    # [0]: the lambda

    for sh in (r, a):
        l1 = ms.nodes[sh.node].l1s[sh.cpu]
        hits, misses = l1.hits, l1.misses
        assert hooks(lambda: sh.fast_read(0, local)) == (0.0, ["fast_read"])
        assert l1.hits == hits + 1
        # a line the sibling stream brought into the CMP's L2: an L2 hit
        sibling, l2_only = (a, 16) if sh is r else (r, 32)
        eng.run_process(sibling.timed_load(m.gaddr(0, l2_only)))
        assert hooks(lambda: sh.fast_read(0, l2_only)) \
            == (0.0, ["fast_read", "read_rest"])
        # ``conflict`` takes the MRU way, so ``local`` hits the other one
        eng.run_process(sh.timed_load(m.gaddr(0, conflict)))
        assert hooks(lambda: sh.fast_read(0, local)) \
            == (0.0, ["fast_read", "read_rest"])
        assert hooks(lambda: sh.fast_read(0, local)) == (0.0, ["fast_read"])
        assert hooks(lambda: sh.fast_read(0, remote)) \
            == (MISS, ["fast_read", "read_rest"])
        sh._debt = sh.DEBT_LIMIT + 1.0
        assert hooks(lambda: sh.fast_read(0, local)) == (MISS, ["fast_read"])
        sh._debt = 0.0
        # three hits; the L2 hit and the timed fill are the misses
        assert (l1.hits, l1.misses) == (hits + 3, misses + 2)
    assert hooks(lambda: r.fast_write(0, local, 3.5)) \
        == (True, ["fast_write"])
    assert m.store.read(0, local) == 3.5
    r._debt = a._debt = 0.0

    assert r.fast_read(0, remote) is MISS
    t0 = eng.now
    _, calls, gens = _python_calls(
        lambda: eng.run_process(r.timed_load(m.gaddr(0, remote))))
    assert eng.now - t0 == remote_miss_cycles(ms)
    assert gens == ["load", "serve_legs", "serve_legs", "serve_legs",
                    "timed_load"]
    assert calls.count(_NEW_EVENT) == 1     # the MSHR, and no done-event

    # A spin poll on a line the spinner's L1 holds.
    word = m.rt_word("flag")
    eng.run_process(r.timed_load(word.addr))            # fill the L1
    l1 = ms.nodes[r.node].l1s[r.cpu]
    hits, misses, t0 = l1.hits, l1.misses, eng.now

    def setter():
        yield 100.0
        word.value = 1

    eng.process(setter())
    got, calls, gens = _python_calls(lambda: eng.run_process(
        spin_until(r, word, lambda v: v == 1)))
    assert got == 1 and gens == ["setter", "spin_until"]
    # 20 + 40 + 80 cycles of backoff: four one-cycle polls, all hits.
    assert (l1.hits - hits, l1.misses - misses) == (4, 0)
    assert eng.now - t0 == 4 * m.cfg.l1.hit_cycles + 140
    assert _NEW_EVENT not in calls


# ------------------------------------------------------- REPRO_HOTPATH

def test_removed_mem_tier_is_refused_not_dropped(monkeypatch):
    """``mem``, ``engine`` and ``fuse`` are no longer tiers: a stale
    ``REPRO_HOTPATH=mem`` used to parse to the empty set (the
    interpreter) without a word.  The switch takes exactly three
    settings; anything else, a list included, is refused."""
    for stale in ("mem", "engine", "fuse", "compile,mem", " compile ,",
                  " , "):
        monkeypatch.setenv("REPRO_HOTPATH", stale)
        with pytest.raises(ValueError) as err:      # refused: no latch
            generated_code()
        assert "\n" not in str(err.value)
        assert repr(stale) in str(err.value)
    for raw, generated in [("compile", True), ("", False), (None, True)]:
        if raw is None:
            monkeypatch.delenv("REPRO_HOTPATH")
        else:
            monkeypatch.setenv("REPRO_HOTPATH", raw)
        reset_for_tests()
        assert generated_code() is generated
