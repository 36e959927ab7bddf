"""Property-based tests (hypothesis) on core data structures and
invariants: cache/LRU behaviour, allocator and placement, scheduler
coverage, classification accounting, and VM arithmetic semantics."""

import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.config import CacheConfig, PAPER_MACHINE
from repro.harness import checkpoint
from repro.harness.checkpoint import ResultStore
from repro.harness.integrity import IntegrityError, unframe
from repro.harness.runner import BenchRun
from repro.interp.interpreter import _binop
from repro.mem import (Cache, L1Tags, MESIState, Placement,
                       SharedAllocator, is_shared_addr)
from repro.mem.address import SHARED_BASE
from repro.obs import ClassStats, TimeBreakdown

from .dense_l2 import DenseCache
from .dict_l1 import DictL1Tags
from .pathlib_store import PathlibStore

# --------------------------------------------------------------------- cache

addr_strategy = st.integers(min_value=0, max_value=0xFFFF).map(
    lambda x: SHARED_BASE + x * 8)


@given(st.lists(addr_strategy, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_cache_capacity_invariant(addrs):
    """A set-associative cache never holds more lines than capacity nor
    more than `assoc` lines per set, under any access sequence."""
    cfg = CacheConfig(size_bytes=4 * 4 * 128, assoc=4, line_bytes=128,
                      hit_cycles=1)
    c = Cache(cfg)
    for a in addrs:
        if c.lookup(a) is None:
            c.insert(a, MESIState.SHARED)
    assert c.resident_count() <= cfg.num_lines
    for s in c._sets:
        assert len(s) <= cfg.assoc
        # tag-index keys agree with the lines they map to (the dict
        # representation makes duplicate tags impossible by design)
        assert all(k == line.line_addr for k, line in s.items())


@given(st.lists(addr_strategy, min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_cache_hit_after_insert_until_evicted(addrs):
    """Immediately after an insert, lookup must hit."""
    cfg = CacheConfig(size_bytes=2 * 8 * 128, assoc=2, line_bytes=128,
                      hit_cycles=1)
    c = Cache(cfg)
    for a in addrs:
        c.insert(a, MESIState.SHARED)
        assert c.peek(a) is not None


@given(st.lists(addr_strategy, min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_cache_accounting_consistency(addrs):
    cfg = CacheConfig(size_bytes=2 * 4 * 128, assoc=2, line_bytes=128,
                      hit_cycles=1)
    c = Cache(cfg)
    for a in addrs:
        if c.lookup(a) is None:
            c.insert(a, MESIState.SHARED)
    assert c.hits + c.misses == len(addrs)


# ------------------------------------------------- sparse L2 vs dense model

def _seen(line):
    return line and (line.line_addr, line.state, line.dirty)


class SparseL2ReplaysDense(RuleBasedStateMachine):
    """``Cache`` makes a set's dict on the first fill into it and shares
    one read-only empty mapping among the rest; the model is the cache
    whose sets all exist from construction (``tests/dense_l2.py``).
    After every operation of any sequence: the same line (address,
    state, dirty) returned, the same four counters, the same residents
    in the same ``lines()`` order -- the order ``self_invalidate_stale``
    and ``finalize`` consume -- and the same ``on_evict`` victims."""

    #: Set picks that collide at 4 sets and stay apart at 2 048; six
    #: tags a set, so a 4-way set evicts; any offset inside the line.
    addrs = st.tuples(st.sampled_from((0, 1, 3, 5, 2047)),
                      st.integers(0, 5), st.integers(0, 127))

    @initialize(n_sets=st.sampled_from((4, PAPER_MACHINE.l2.num_sets)))
    def build(self, n_sets):
        cfg = CacheConfig(size_bytes=n_sets * 4 * 128, assoc=4,
                          line_bytes=128, hit_cycles=1)
        self.n_sets = n_sets
        self.victims, self.ref_victims = [], []
        self.cache = Cache(cfg, on_evict=self.victims.append)
        self.ref = DenseCache(cfg, on_evict=self.ref_victims.append)

    def addr(self, where):
        pick, tag, off = where
        return ((tag * self.n_sets + pick % self.n_sets) << 7) + off

    def both(self, op, where, *args):
        addr = self.addr(where)
        assert _seen(getattr(self.cache, op)(addr, *args)) \
            == _seen(getattr(self.ref, op)(addr, *args))

    @rule(where=addrs)
    def lookup(self, where):
        self.both("lookup", where)

    @rule(where=addrs)
    def peek(self, where):
        self.both("peek", where)

    @rule(where=addrs, state=st.sampled_from(
        (MESIState.SHARED, MESIState.EXCLUSIVE)))
    def insert(self, where, state):
        self.both("insert", where, state)

    @rule(where=addrs)
    def invalidate(self, where):
        self.both("invalidate", where)

    @rule(where=addrs)
    def downgrade(self, where):
        self.both("downgrade", where)

    @rule(where=addrs)
    def write(self, where):
        """What a store does to a resident line, so that ``dirty`` is
        worth comparing and ``downgrade`` has something to clear."""
        for c in (self.cache, self.ref):
            line = c.peek(self.addr(where))
            if line is not None:
                line.dirty = True

    @rule()
    def clear(self):
        self.cache.clear()
        self.ref.clear()

    @invariant()
    def same_contents_and_counts(self):
        c, ref = self.cache, self.ref
        assert [_seen(ln) for ln in c.lines()] \
            == [_seen(ln) for ln in ref.lines()]
        assert c.resident_count() == ref.resident_count()
        assert (c.hits, c.misses, c.evictions, c.invalidations) \
            == (ref.hits, ref.misses, ref.evictions, ref.invalidations)
        assert [_seen(v) for v in self.victims] \
            == [_seen(v) for v in self.ref_victims]
        # a slot that holds anything is a dict of that set's own lines
        for idx, s in enumerate(c._sets):
            if s:
                assert type(s) is dict
                assert all(k == ln.line_addr
                           and (k >> 7) & c._set_mask == idx
                           for k, ln in s.items())


SparseL2ReplaysDense.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None)
test_sparse_l2_replays_the_dense_model = SparseL2ReplaysDense.TestCase


# ------------------------------------------ result store vs pathlib model

class StrPathStoreReplaysPathlib(RuleBasedStateMachine):
    """``ResultStore`` is an append-only log, ``<root>/results.log``,
    that serves each key's last record once it verifies; the model is
    the store that published one file per entry through ``pathlib``,
    ``mkdir`` and ``mkstemp`` (``tests/pathlib_store.py``).  The same
    puts and gets on both, the same rot -- a flipped byte, or a kill
    mid-append, in the key's last record of the log and in the key's
    file of the model -- and the same removal or blocking of the whole
    store: every return value equal, and after every step the same
    keys, the same names under ``corrupt/``, the same bytes for every
    key whose model file verifies, and no temp file left by either."""

    keys = st.sampled_from(("a", "b", "c"))

    @initialize()
    def build(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="store-diff-"))
        self.new = ResultStore(self.tmp / "new" / "store")
        self.ref = PathlibStore(self.tmp / "ref" / "store", BenchRun)

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def frame_at(self, key):
        """Offset of ``key``'s frame in the log, and its length."""
        offset, size = self.new._index[key]
        head = checkpoint._ENV.size + len(key.encode())
        return offset + head, size - head - checkpoint._CRC.size

    @rule(key=keys, n=st.integers(0, 3), kind=st.sampled_from(
        (BenchRun, dict)))
    def put(self, key, n, kind):
        """A run, or a payload that verifies and is not a run."""
        run = BenchRun("cg", "G0", None, {"n": n})
        run = run if kind is BenchRun else vars(run)
        assert self.new.put(key, run) == self.ref.put(key, run)

    @rule(key=keys)
    def get(self, key):
        assert self.new.get(key) == self.ref.get(key)
        assert (key in self.new) == (key in self.ref)

    @rule(key=keys, where=st.integers(0, 255), mask=st.integers(1, 255))
    def flip_a_bit(self, key, where, mask):
        ref = self.ref._path(key)
        if key not in self.new or not ref.stat().st_size:
            return
        at = where % ref.stat().st_size
        for path, offset in ((ref, at),
                             (self.new.path, self.frame_at(key)[0] + at)):
            with open(path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)[0]
                fh.seek(offset)
                fh.write(bytes([byte ^ mask]))

    @rule(key=keys, keep=st.floats(0, 1, exclude_max=True))
    def kill_mid_append(self, key, keep):
        """Cut the log inside ``key``'s record when it is the last one
        and whole, and the model's file of ``key`` to as many frame
        bytes."""
        if key not in self.new:
            return
        offset, size = self.new._index[key]
        start, length = self.frame_at(key)
        if (offset + size != os.path.getsize(self.new.path)
                or self.ref._path(key).stat().st_size != length):
            return
        kept = int(keep * length)
        os.truncate(self.new.path, start + kept)
        os.truncate(self.ref._path(key), kept)

    @rule()
    def block(self):
        """A file where the store's directory goes: every put fails."""
        for store in (self.new, self.ref):
            if not store.root.exists():
                store.root.parent.mkdir(parents=True, exist_ok=True)
                store.root.write_bytes(b"")

    @rule()
    def delete_directory(self):
        for store in (self.new, self.ref):
            if store.root.is_file():
                store.root.unlink()
            shutil.rmtree(store.root, ignore_errors=True)

    @invariant()
    def same_keys_same_bytes_no_litter(self):
        assert self.new.keys() == self.ref.keys()
        for key in self.new.keys():
            ref = self.ref._path(key).read_bytes()
            try:
                unframe(ref)
            except IntegrityError:
                continue
            with open(self.new.path, "rb") as fh:
                start, length = self.frame_at(key)
                fh.seek(start)
                assert fh.read(length) == ref
        if self.new.root.is_dir():
            assert set(os.listdir(self.new.root)) \
                <= {"results.log", "corrupt"}
        if self.ref.root.is_dir():
            assert not [n for n in os.listdir(self.ref.root)
                        if n.endswith(".tmp")]
        rotten = [sorted(os.listdir(s.root / "corrupt"))
                  if (s.root / "corrupt").is_dir() else []
                  for s in (self.new, self.ref)]
        assert rotten[0] == rotten[1]


StrPathStoreReplaysPathlib.TestCase.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
test_str_path_store_replays_the_pathlib_model = \
    StrPathStoreReplaysPathlib.TestCase


# ------------------------------------------------------------- tag-only L1

#: Twelve lines over a 2-set store, so every set sees conflict at any
#: associativity; ``clear`` is rare enough for the sets to fill.
_tag_op = st.tuples(
    st.sampled_from(("hit",) * 3 + ("lookup",) * 6 + ("insert",) * 6
                    + ("invalidate",) * 3 + ("clear",)),
    st.integers(min_value=0, max_value=12 * 128 - 1))


@given(st.sampled_from((1, 2, 4, 8)),
       st.lists(_tag_op, min_size=30, max_size=300))
@settings(max_examples=100, deadline=None)
def test_l1_tags_replay_the_dict_lru_model(assoc, ops):
    """``L1Tags`` keeps each set as a fixed-length MRU-first list of
    line numbers; the model is the insertion-ordered dict it replaced
    (``tests/dict_l1.py``).  After every operation of any stream: the
    same return value, the same resident lines in the same victim
    order, the same four counters -- and the list is well formed: no
    tag twice, ``assoc`` ways, tags of this set only, empties at the
    tail."""
    cfg = CacheConfig(size_bytes=assoc * 2 * 128, assoc=assoc,
                      line_bytes=128, hit_cycles=1)
    tags, ref = L1Tags(cfg), DictL1Tags(cfg)
    for op, addr in ops:                 # line number 0 is a line too
        args = () if op == "clear" else (addr,)
        assert getattr(tags, op)(*args) == getattr(ref, op)(*args)
        assert list(tags.lines()) == list(ref.lines())
        assert tags.resident_count() == ref.resident_count()
        assert (tags.hits, tags.misses, tags.evictions, tags.invalidations) \
            == (ref.hits, ref.misses, ref.evictions, ref.invalidations)
        for idx, s in enumerate(tags._sets):
            valid = [ln for ln in s if ln is not None]
            assert len(s) == assoc and s == valid + [None] * (assoc - len(valid))
            assert len(set(valid)) == len(valid)
            assert all(ln & 1 == idx for ln in valid)


# ----------------------------------------------------------------- allocator

@given(st.lists(st.integers(min_value=1, max_value=4096),
                min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_allocator_regions_disjoint_and_aligned(sizes):
    a = SharedAllocator()
    regions = []
    for n in sizes:
        base = a.alloc(n)
        assert base % 128 == 0
        assert is_shared_addr(base) and is_shared_addr(base + n - 1)
        regions.append((base, base + n))
    regions.sort()
    for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
        assert e1 <= s2                      # no overlap


@given(st.integers(min_value=1, max_value=64),
       st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_placement_is_a_function(n_nodes, offsets):
    """home() is deterministic and always a valid node, and identical
    for addresses within the same page."""
    p = Placement("round_robin", n_nodes)
    for off in offsets:
        addr = SHARED_BASE + off * 64
        h = p.home(addr)
        assert 0 <= h < n_nodes
        assert h == p.home(addr)             # stable
        assert h == p.home((addr // 4096) * 4096)  # page-uniform


@given(st.integers(min_value=2, max_value=32),
       st.lists(st.tuples(st.integers(0, 200), st.integers(0, 31)),
                min_size=1, max_size=80))
@settings(max_examples=40, deadline=None)
def test_first_touch_stable_under_any_touch_order(n_nodes, touches):
    p = Placement("first_touch", n_nodes)
    first = {}
    for page, toucher in touches:
        addr = SHARED_BASE + page * 4096
        h = p.home(addr, toucher=toucher % n_nodes)
        if page not in first:
            first[page] = h
        assert p.home(addr) == first[page]


# ----------------------------------------------------------------- scheduler

def _static_chunks(n, T, chunk):
    """Replicate the runtime's static scheduler for all threads."""
    covered = []
    for t in range(T):
        if chunk is None:
            start = n * t // T
            end = n * (t + 1) // T
            if end > start:
                covered.append((start, end - start))
        else:
            pos = t
            while pos * chunk < n:
                start = pos * chunk
                covered.append((start, min(chunk, n - start)))
                pos += T
    return covered


@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=33),
       st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
@settings(max_examples=120, deadline=None)
def test_static_schedule_partitions_exactly(n, T, chunk):
    """Every iteration is assigned exactly once -- the invariant that
    makes the A-stream's independent static scheduling sound."""
    seen = np.zeros(n, dtype=int)
    for start, cnt in _static_chunks(n, T, chunk):
        seen[start:start + cnt] += 1
    assert (seen == 1).all() if n else True


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=32),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_guided_chunks_cover_and_shrink(n, T, cmin):
    """The guided formula always terminates, covers [0, n), and never
    hands out an empty chunk."""
    nxt = 0
    chunks = []
    while nxt < n:
        cnt = max(cmin, (n - nxt) // (2 * T))
        cnt = min(cnt, n - nxt)
        assert cnt >= 1
        chunks.append((nxt, cnt))
        nxt += cnt
    assert sum(c for _, c in chunks) == n


# ------------------------------------------------------------ classification

outcome_events = st.lists(
    st.tuples(st.sampled_from(["A", "R"]), st.sampled_from(["read", "rdex"]),
              st.sampled_from(["timely", "late", "only"])),
    min_size=0, max_size=100)


@given(outcome_events)
@settings(max_examples=50, deadline=None)
def test_classification_totals(events):
    cs = ClassStats()
    for f, k, o in events:
        cs.record(f, k, o)
    assert cs.total("read") + cs.total("rdex") == len(events)
    for kind in ("read", "rdex"):
        brk = cs.breakdown(kind)
        if cs.total(kind):
            assert math.isclose(sum(brk.values()), 1.0, rel_tol=1e-9)
        assert 0 <= cs.coverage(kind) <= 1


# ------------------------------------------------------------ time breakdown

@given(st.lists(st.tuples(st.sampled_from(["push", "pop"]),
                          st.sampled_from(["memory", "lock", "barrier"]),
                          st.floats(min_value=0.01, max_value=50)),
                min_size=0, max_size=60))
@settings(max_examples=50, deadline=None)
def test_breakdown_total_equals_elapsed(ops):
    bd = TimeBreakdown(start=0.0)
    now = 0.0
    depth = 0
    for kind, cat, dt in ops:
        now += dt
        if kind == "push":
            bd.push(cat, now)
            depth += 1
        elif depth > 0:
            bd.pop(now)
            depth -= 1
        else:
            bd.push(cat, now)
            depth += 1
    now += 1.0
    bd.close(now)
    assert math.isclose(bd.total(), now, rel_tol=1e-9)


# ------------------------------------------------------------- VM arithmetic

@given(st.integers(min_value=-10_000, max_value=10_000),
       st.integers(min_value=-10_000, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_c_integer_division_identity(a, b):
    """C guarantees (a/b)*b + a%b == a with truncation toward zero."""
    if b == 0:
        return
    q = _binop("/", a, b)
    r = _binop("%", a, b)
    assert q * b + r == a
    assert abs(r) < abs(b)
    # truncation toward zero
    assert q == int(a / b) if b != 0 else True


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_float_division_by_zero_never_traps(a):
    v = _binop("/", a, 0.0)
    if a == 0:
        assert math.isnan(v)
    else:
        assert math.isinf(v)
        assert (v > 0) == (a > 0)
