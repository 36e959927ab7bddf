"""Fully-mapped invalidate-based directory.

Each shared line has one directory entry at its home node recording the
global coherence state: UNOWNED (memory holds the only copy), SHARED
(a set of caching nodes), or EXCLUSIVE (one owning node whose L2 may be
dirty).  Racing transactions on the same line are serialized by a
per-line mutex at the home, kept on the entry -- a simplification over
transient-state NACK/retry protocols that preserves the timing
behaviour (a race costs the loser a queueing delay either way) while
making the protocol trivially deadlock- and livelock-free.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..obs.probe import NULL_PROBE, Probe
from ..sim import Engine, Mutex

__all__ = ["DirEntry", "Directory", "DirState"]


class DirState:
    """Directory line states: UNOWNED / SHARED / EXCLUSIVE."""
    UNOWNED = 0
    SHARED = 1
    EXCLUSIVE = 2

    NAMES = {0: "U", 1: "S", 2: "E"}


class DirEntry:
    """Directory state for one line, its transaction lock, and the
    state transitions (zero simulated time; timing is charged by the
    protocol engine around them).  A transaction holds the entry it
    fetched under the lock and calls these on it; ``Directory``'s
    by-address methods are the same transitions for callers that hold
    only the address."""

    __slots__ = ("line_addr", "state", "owner", "sharers", "lock")

    def __init__(self, line_addr: int = 0):
        self.line_addr = line_addr
        self.state = DirState.UNOWNED
        self.owner: Optional[int] = None
        self.sharers: Set[int] = set()
        #: Per-line transaction-serialization mutex at the home, made
        #: by :meth:`Directory.lock` on first use.
        self.lock: Optional[Mutex] = None

    def add_sharer(self, node: int) -> None:
        """Record a new sharer (read grant)."""
        if self.state == DirState.EXCLUSIVE:
            raise RuntimeError(
                f"add_sharer on EXCLUSIVE line {self.line_addr:#x}")
        self.state = DirState.SHARED
        self.sharers.add(node)

    def set_exclusive(self, node: int) -> None:
        """Grant exclusive ownership to one node."""
        self.state = DirState.EXCLUSIVE
        self.owner = node
        self.sharers.clear()

    def demote_to_shared(self, extra_sharer: Optional[int] = None) -> None:
        """EXCLUSIVE -> SHARED after an intervention; the old owner keeps
        a shared copy."""
        if self.state != DirState.EXCLUSIVE:
            raise RuntimeError(
                f"demote on non-EXCLUSIVE line {self.line_addr:#x}")
        self.state = DirState.SHARED
        self.sharers = {self.owner}
        if extra_sharer is not None:
            self.sharers.add(extra_sharer)
        self.owner = None

    def drop_node(self, node: int) -> None:
        """Remove a node's copy (eviction notification or invalidation)."""
        if self.state == DirState.EXCLUSIVE and self.owner == node:
            self.state = DirState.UNOWNED
            self.owner = None
        else:
            self.sharers.discard(node)
            if self.state == DirState.SHARED and not self.sharers:
                self.state = DirState.UNOWNED

    def __repr__(self) -> str:
        return (f"DirEntry({DirState.NAMES[self.state]}, owner={self.owner}, "
                f"sharers={sorted(self.sharers)})")


class Directory:
    """All directory entries, each with its per-line transaction lock.

    The directory is logically distributed (entries live at the line's
    home node; the protocol engine charges the home's controller for
    every access) but stored centrally for convenience.
    """

    def __init__(self, engine: Engine, probe: Probe = NULL_PROBE):
        self.engine = engine
        self.probe = probe
        self._entries: Dict[int, DirEntry] = {}

    def entry(self, line_addr: int) -> DirEntry:
        """Get (creating on demand) a line's directory entry."""
        e = self._entries.get(line_addr)
        if e is None:
            e = DirEntry(line_addr)
            self._entries[line_addr] = e
            self.probe.count("dir.lines")
        return e

    def lock(self, line_addr: int) -> Mutex:
        """Per-line transaction-serialization mutex at the home (made,
        with the line's entry, on first use)."""
        e = self.entry(line_addr)
        m = e.lock
        if m is None:
            m = e.lock = Mutex(self.engine, f"dir:{line_addr:#x}")
            self.probe.count("dir.locks")
        return m

    def is_locked(self, line_addr: int) -> bool:
        """Is a coherence transaction holding this line's mutex (its
        directory state is mid-flight)?"""
        e = self._entries.get(line_addr)
        return e is not None and e.lock is not None and e.lock.count == 0

    # -- the entry's transitions, by address: the public form, for callers
    # -- that hold no entry (the layer benchmark, tests); a transaction calls
    # -- the entry it already fetched under the lock -------------------------

    def add_sharer(self, line_addr: int, node: int) -> None:
        """Record a new sharer (read grant)."""
        self.entry(line_addr).add_sharer(node)

    def set_exclusive(self, line_addr: int, node: int) -> None:
        """Grant exclusive ownership to one node."""
        self.entry(line_addr).set_exclusive(node)

    def demote_to_shared(self, line_addr: int,
                         extra_sharer: Optional[int] = None) -> None:
        """EXCLUSIVE -> SHARED after an intervention; the old owner keeps
        a shared copy."""
        self.entry(line_addr).demote_to_shared(extra_sharer)

    def drop_node(self, line_addr: int, node: int) -> None:
        """Remove a node's copy (eviction notification or invalidation)."""
        e = self._entries.get(line_addr)
        if e is not None:
            e.drop_node(node)

    def sharers_excluding(self, line_addr: int, node: int) -> Set[int]:
        """Sharer set minus the requesting node (invalidation targets)."""
        return self.entry(line_addr).sharers - {node}

    @property
    def n_entries(self) -> int:
        """Number of lines with directory state."""
        return len(self._entries)
