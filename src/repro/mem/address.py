"""Virtual address spaces and data placement.

The paper requires that "the virtual shared space must be either
contiguous or non-contiguous but not interleaved with private space, to
ease delineation of what is shared and what is not shared", and notes
that the Omni UNIX-process thread model allocates shared virtual
addresses contiguously.  We model exactly that: one contiguous shared
segment served by a bump allocator, and disjoint per-thread private
segments above it.

Home-node placement maps shared addresses to the CMP node holding the
directory entry and memory for that line ("each processing node consists
of a dual-processor CMP and a portion of the globally-shared memory").
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["SHARED_BASE", "PRIVATE_BASE", "PRIVATE_STRIDE",
           "SharedAllocator", "Placement", "is_shared_addr"]

#: Base of the contiguous shared segment.
SHARED_BASE = 0x1000_0000
#: Shared segment capacity (256 MB is far beyond any mini-NPB working set).
SHARED_LIMIT = 0x2000_0000
#: Base of the first private segment.
PRIVATE_BASE = 0x7000_0000
#: Size reserved per thread's private segment.
PRIVATE_STRIDE = 0x0100_0000


def is_shared_addr(addr: int) -> bool:
    """The cheap shared/private test the runtime relies on."""
    return SHARED_BASE <= addr < SHARED_LIMIT


def private_base(thread_id: int) -> int:
    """Base of thread ``thread_id``'s private segment."""
    return PRIVATE_BASE + thread_id * PRIVATE_STRIDE


class SharedAllocator:
    """Bump allocator over the contiguous shared segment."""

    def __init__(self, base: int = SHARED_BASE, limit: int = SHARED_LIMIT):
        self.base = base
        self.limit = limit
        self._next = base
        self.allocations: Dict[int, int] = {}  # base -> size

    def alloc(self, nbytes: int, align: int = 128) -> int:
        """Allocate ``nbytes`` aligned to ``align`` (line-aligned by
        default so distinct arrays never false-share a line)."""
        if nbytes <= 0:
            raise ValueError("allocation must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + nbytes > self.limit:
            raise MemoryError(
                f"shared segment exhausted ({addr + nbytes - self.base} bytes)")
        self._next = addr + nbytes
        self.allocations[addr] = nbytes
        return addr

    @property
    def used(self) -> int:
        """Bytes allocated so far."""
        return self._next - self.base

    def reset(self) -> None:
        """Forget all allocations (fresh machine load)."""
        self._next = self.base
        self.allocations.clear()


class Placement:
    """Maps a shared address to its home node.

    * ``round_robin``: pages are striped across nodes -- the classic
      IRIX/Origin default for shared segments.
    * ``first_touch``: a page's home is the node that touches it first
      (misses before any touch are resolved to round-robin).
    * ``block``: the shared segment is divided into ``n_nodes`` equal
      contiguous regions.
    """

    def __init__(self, policy: str, n_nodes: int, page_bytes: int = 4096,
                 base: int = SHARED_BASE, limit: int = SHARED_LIMIT):
        if policy not in ("round_robin", "first_touch", "block"):
            raise ValueError(f"unknown placement policy {policy!r}")
        self.policy = policy
        self.n_nodes = n_nodes
        self.page_bytes = page_bytes
        self.base = base
        self.limit = limit
        self._first_touch: Dict[int, int] = {}

    def home(self, addr: int, toucher: Optional[int] = None) -> int:
        """Home node of ``addr``.  ``toucher`` (a node id) establishes
        first-touch placement when the policy asks for it."""
        page = (addr - self.base) // self.page_bytes
        if self.policy == "round_robin":
            return page % self.n_nodes
        if self.policy == "block":
            span = (self.limit - self.base) // self.page_bytes
            return min(page * self.n_nodes // span, self.n_nodes - 1)
        # first_touch
        node = self._first_touch.get(page)
        if node is None:
            node = toucher if toucher is not None else page % self.n_nodes
            self._first_touch[page] = node
        return node

    def touched_pages(self) -> int:
        """Pages with an established first-touch home."""
        return len(self._first_touch)
