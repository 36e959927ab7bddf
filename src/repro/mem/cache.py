"""Set-associative caches with LRU replacement.

Two tag stores over one geometry (:class:`_SetAssoc`): the per-CMP
shared L2 is a :class:`Cache`, whose lines carry coherence state plus
the slipstream classification metadata used for the paper's Figures 3
and 5; the per-CPU L1s are timing filters that only ever need a
presence bit, so they are :class:`L1Tags` -- the same geometry, LRU
order and statistics with no line objects behind the tags, each set
laid out for the access that dominates a run: a load that hits the
way it hit last.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterator, List, Mapping, Optional

from ..config.machine import CacheConfig

__all__ = ["CacheLine", "Cache", "L1Tags", "MESIState"]

#: An L2 set nothing was filled into: empty, read-only, one object for all.
_NO_LINES: Mapping = MappingProxyType({})


class MESIState:
    """Line states.  The L2 protocol is a directory MSI (the paper's
    'invalidate-based fully-mapped directory protocol'); EXCLUSIVE here
    means modifiable ownership (M/E folded together)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2

    NAMES = {0: "I", 1: "S", 2: "E"}


class CacheLine:
    """One cache line's tag-store entry."""

    __slots__ = ("line_addr", "state", "dirty",
                 # --- slipstream classification metadata (L2 only) ---
                 "fetcher",        # "A" | "R" | None: which stream filled it
                 "fill_kind",      # "read" | "rdex"
                 "sibling_hit",    # sibling stream referenced after fill?
                 "merged_late",    # sibling merged into the in-flight miss?
                 "fill_time", "last_ref_time", "epoch")

    def __init__(self, line_addr: int, state: int = MESIState.SHARED):
        self.line_addr = line_addr
        self.state = state
        self.dirty = False
        self.fetcher: Optional[str] = None
        self.fill_kind = "read"
        self.sibling_hit = False
        self.merged_late = False
        self.fill_time = 0.0
        self.last_ref_time = 0.0
        self.epoch = -1

    def __repr__(self) -> str:
        return (f"CacheLine({self.line_addr:#x}, "
                f"{MESIState.NAMES[self.state]}{'*' if self.dirty else ''})")


class _SetAssoc:
    """Geometry and statistics shared by both tag stores; how a set is
    represented is the subclass's business."""

    def __init__(self, cfg: CacheConfig, name: str = ""):
        self.cfg = cfg
        self.name = name
        self._set_mask = cfg.num_sets - 1
        self._line_shift = cfg.line_bytes.bit_length() - 1
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def line_addr(self, addr: int) -> int:
        """Align an address down to its line base."""
        return addr >> self._line_shift << self._line_shift

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        return self.hits / self.accesses if self.accesses else 0.0


class L1Tags(_SetAssoc):
    """Tag-only L1: which lines are present, in LRU order, and nothing
    else.  A resident tag is always valid (invalidation removes it), so
    there is no line object and no state to test.

    Each set is a list of exactly ``assoc`` line *numbers* (address >>
    line shift), most recently used first, ``None`` for an empty way
    and the empty ways at the tail.  A hit on the MRU way -- nine loads
    in ten of a paper-scale run -- is then ``s[0] == ln`` and writes
    nothing to the tag store, since touching the MRU line leaves the
    LRU order as it was; any other hit is ``remove`` + ``insert(0)``, a
    fill ``insert(0)`` + ``pop()`` (the tail is the LRU victim, or an
    empty way), an invalidation ``remove`` + ``append(None)``.  The
    scan a list costs over a dict's O(1) match is over one or two ways.
    The empty mark is not an integer because every integer is a line
    number some access can ask for: an A-stream running ahead on stale
    data computes wild indices, negative ones included, and a way
    marked ``-1`` would answer the one that lands on line -1.

    ``CoherentMemorySystem.fast_paths`` open-codes :meth:`lookup` and
    :meth:`insert` on ``_sets`` for the synchronous hit path; this class
    is their reference and serves every other caller.
    """

    def __init__(self, cfg: CacheConfig, name: str = ""):
        super().__init__(cfg, name)
        self._sets: List[List[Optional[int]]] = [
            [None] * cfg.assoc for _ in range(cfg.num_sets)]

    def hit(self, addr: int) -> bool:
        """Is the line containing ``addr`` resident?  A resident line is
        touched (LRU) and counted as a hit; an absent one changes
        nothing, so the caller can hand the whole access on to a path
        that does its own :meth:`lookup` (a spin poll to
        ``timed_load``)."""
        ln = addr >> self._line_shift
        s = self._sets[ln & self._set_mask]
        if s[0] != ln:
            if ln not in s:
                return False
            s.remove(ln)
            s.insert(0, ln)
        self.hits += 1
        return True

    def lookup(self, addr: int) -> bool:
        """:meth:`hit`, with an absent line counted as a miss."""
        if self.hit(addr):
            return True
        self.misses += 1
        return False

    def insert(self, addr: int) -> None:
        """Fill the line containing ``addr`` (evicting the LRU victim
        if the set is full); a resident line keeps its LRU position."""
        ln = addr >> self._line_shift
        s = self._sets[ln & self._set_mask]
        if ln in s:
            return
        s.insert(0, ln)
        if s.pop() is not None:          # the tail: LRU way, or empty
            self.evictions += 1

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; True if it was present."""
        ln = addr >> self._line_shift
        s = self._sets[ln & self._set_mask]
        if ln in s:
            s.remove(ln)
            s.append(None)
            self.invalidations += 1
            return True
        return False

    def lines(self) -> Iterator[int]:
        """Resident line addresses, each set oldest (LRU victim) first."""
        shift = self._line_shift
        for s in self._sets:
            for ln in reversed(s):
                if ln is not None:
                    yield ln << shift

    def resident_count(self) -> int:
        """Number of resident lines."""
        return sum(len(s) - s.count(None) for s in self._sets)

    def clear(self) -> None:
        """Drop every line (no callbacks)."""
        for s in self._sets:
            s[:] = [None] * len(s)


class Cache(_SetAssoc):
    """Tag store with line objects: set-associative, true-LRU,
    write-allocate.

    Each set is an insertion-ordered dict from line address to
    :class:`CacheLine` (first key = LRU victim, delete + reinsert =
    touch, tag match O(1) at any associativity), made by the first
    :meth:`insert` into it: until then its slot holds the shared
    ``_NO_LINES``, so 2 048 sets cost what a run fills.  The L2 is 4-way,
    has to hand back a line object anyway, and sees one load in thirty.

    Values are not stored -- the simulator tracks timing and coherence
    only; program values live in the interpreter's arrays (see
    DESIGN.md).  ``on_evict`` is called for every line displaced by a
    fill, letting the L2 finalize slipstream classification and notify
    the directory of silent drops / writebacks.
    """

    def __init__(self, cfg: CacheConfig, name: str = "",
                 on_evict: Optional[Callable[[CacheLine], None]] = None):
        super().__init__(cfg, name)
        self._sets: List[Mapping] = [_NO_LINES] * cfg.num_sets
        self.on_evict = on_evict

    def resident_count(self) -> int:
        """Number of valid resident lines."""
        return sum(len(s) for s in self._sets)

    def clear(self) -> None:
        """Drop every line (no callbacks)."""
        self._sets[:] = [_NO_LINES] * len(self._sets)

    # -- operations ----------------------------------------------------------

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the resident line containing ``addr`` (or None),
        updating LRU order and hit/miss counters."""
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        line = s.get(la)
        if line is not None and line.state != MESIState.INVALID:
            # Delete + reinsert moves the key to the MRU (last)
            # position of the set's insertion-ordered dict.
            del s[la]
            s[la] = line
            self.hits += 1
            return line
        self.misses += 1
        return None

    def peek(self, addr: int) -> Optional[CacheLine]:
        """lookup() without statistics or LRU side effects."""
        shift = self._line_shift
        la = addr >> shift << shift
        line = self._sets[(la >> shift) & self._set_mask].get(la)
        if line is not None and line.state != MESIState.INVALID:
            return line
        return None

    def insert(self, addr: int, state: int) -> CacheLine:
        """Fill a new line (evicting the LRU victim if the set is full)
        and return it.  If the line is already resident its state is
        upgraded instead."""
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        existing = s.get(la)
        if existing is not None and existing.state != MESIState.INVALID:
            existing.state = max(existing.state, state)
            return existing
        if len(s) >= self.cfg.assoc:
            victim = s.pop(next(iter(s)))     # first key = LRU
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        line = CacheLine(la, state)
        if s is _NO_LINES:
            s = self._sets[(la >> shift) & self._set_mask] = {}
        s[la] = line
        return line

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove the line containing ``addr``; returns it if present."""
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        line = s.get(la)
        if line is not None and line.state != MESIState.INVALID:
            del s[la]
            self.invalidations += 1
            return line
        return None

    def downgrade(self, addr: int) -> Optional[CacheLine]:
        """EXCLUSIVE -> SHARED (for interventions); clears dirty."""
        line = self.peek(addr)
        if line is not None and line.state == MESIState.EXCLUSIVE:
            line.state = MESIState.SHARED
            line.dirty = False
        return line

    def lines(self) -> Iterator[CacheLine]:
        """Resident lines: set index ascending, each set oldest first."""
        for s in filter(None, self._sets):
            yield from s.values()
