"""Fully-mapped invalidate-based directory.

Each shared line has one directory entry at its home node recording the
global coherence state: UNOWNED (memory holds the only copy), SHARED
(a set of caching nodes), or EXCLUSIVE (one owning node whose L2 may be
dirty).  Racing transactions on the same line are serialized by a
per-line mutex at the home -- a simplification over transient-state
NACK/retry protocols that preserves the timing behaviour (a race costs
the loser a queueing delay either way) while making the protocol
trivially deadlock- and livelock-free.
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
    """Directory state for one line."""

    __slots__ = ("state", "owner", "sharers")

    def __init__(self):
        self.state = DirState.UNOWNED
        self.owner: Optional[int] = None
        self.sharers: Set[int] = set()

    def __repr__(self) -> str:
        return (f"DirEntry({DirState.NAMES[self.state]}, owner={self.owner}, "
                f"sharers={sorted(self.sharers)})")


class Directory:
    """All directory entries plus the per-line transaction locks.

    The directory is logically distributed (entries live at the line's
    home node; the protocol engine charges the home's controller for
    every access) but stored centrally for convenience.
    """

    def __init__(self, engine: Engine, probe: Probe = NULL_PROBE):
        self.engine = engine
        self.probe = probe
        self._entries: Dict[int, DirEntry] = {}
        self._locks: Dict[int, Mutex] = {}

    def entry(self, line_addr: int) -> DirEntry:
        """Get (creating on demand) a line's directory entry."""
        e = self._entries.get(line_addr)
        if e is None:
            e = DirEntry()
            self._entries[line_addr] = e
            self.probe.count("dir.lines")
        return e

    def lock(self, line_addr: int) -> Mutex:
        """Per-line transaction-serialization mutex at the home."""
        m = self._locks.get(line_addr)
        if m is None:
            m = Mutex(self.engine, f"dir:{line_addr:#x}")
            self._locks[line_addr] = m
            self.probe.count("dir.locks")
        return m

    def is_locked(self, line_addr: int) -> bool:
        """Is a coherence transaction holding this line's mutex (its
        directory state is mid-flight)?"""
        m = self._locks.get(line_addr)
        return m is not None and m.count == 0

    # -- state transitions (zero simulated time; timing is charged by the
    # -- protocol engine around these calls) ----------------------------------

    def add_sharer(self, line_addr: int, node: int) -> None:
        """Record a new sharer (read grant)."""
        e = self.entry(line_addr)
        if e.state == DirState.EXCLUSIVE:
            raise RuntimeError(f"add_sharer on EXCLUSIVE line {line_addr:#x}")
        e.state = DirState.SHARED
        e.sharers.add(node)

    def set_exclusive(self, line_addr: int, node: int) -> None:
        """Grant exclusive ownership to one node."""
        e = self.entry(line_addr)
        e.state = DirState.EXCLUSIVE
        e.owner = node
        e.sharers.clear()

    def demote_to_shared(self, line_addr: int, extra_sharer: Optional[int] = None) -> None:
        """EXCLUSIVE -> SHARED after an intervention; the old owner keeps
        a shared copy."""
        e = self.entry(line_addr)
        if e.state != DirState.EXCLUSIVE:
            raise RuntimeError(f"demote on non-EXCLUSIVE line {line_addr:#x}")
        e.state = DirState.SHARED
        e.sharers = {e.owner}
        if extra_sharer is not None:
            e.sharers.add(extra_sharer)
        e.owner = None

    def drop_node(self, line_addr: int, node: int) -> None:
        """Remove a node's copy (eviction notification or invalidation)."""
        e = self._entries.get(line_addr)
        if e is None:
            return
        if e.state == DirState.EXCLUSIVE and e.owner == node:
            e.state = DirState.UNOWNED
            e.owner = None
        else:
            e.sharers.discard(node)
            if e.state == DirState.SHARED and not e.sharers:
                e.state = DirState.UNOWNED

    def sharers_excluding(self, line_addr: int, node: int) -> Set[int]:
        """Sharer set minus the requesting node (invalidation targets)."""
        e = self.entry(line_addr)
        return e.sharers - {node}

    @property
    def n_entries(self) -> int:
        """Number of lines with directory state."""
        return len(self._entries)
