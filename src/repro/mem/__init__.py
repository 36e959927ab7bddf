"""Memory-system substrate: address spaces, caches, directory coherence."""

from .address import (PRIVATE_BASE, PRIVATE_STRIDE, SHARED_BASE,
                      Placement, SharedAllocator, is_shared_addr,
                      private_base)
from .cache import Cache, CacheLine, L1Tags, MESIState
from .directory import DirEntry, Directory, DirState
from .memsys import (AccessResult, CoherentMemorySystem, NodeMemory,
                     PerfectMemory)

__all__ = [
    "PRIVATE_BASE", "PRIVATE_STRIDE", "SHARED_BASE",
    "Placement", "SharedAllocator", "is_shared_addr", "private_base",
    "Cache", "CacheLine", "L1Tags", "MESIState",
    "DirEntry", "Directory", "DirState",
    "AccessResult", "CoherentMemorySystem", "NodeMemory", "PerfectMemory",
]
