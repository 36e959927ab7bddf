"""Machine configuration: the paper's Table 1 simulated system parameters.

All latencies in Table 1 are given in nanoseconds; the simulator's clock
unit is one *processor cycle* at ``clock_ghz`` (1.2 GHz in the paper), so
``MachineConfig.cycles(ns)`` converts.  The two derived figures the paper
quotes -- 170 ns minimum local L2-miss latency and 290 ns minimum remote
(clean two-hop) latency -- are exposed as properties and measured by
Table 1's probe in ``benchmarks/exhibits.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["CacheConfig", "MachineConfig", "PAPER_MACHINE"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_cycles: int

    def __post_init__(self):
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("cache size must be a multiple of assoc*line")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets (size / (assoc * line))."""
        return self.size_bytes // (self.assoc * self.line_bytes)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class MachineConfig:
    """A CMP-based DSM multiprocessor (paper Table 1 defaults)."""

    n_cmps: int = 16
    cpus_per_cmp: int = 2
    clock_ghz: float = 1.2

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, assoc=2, line_bytes=128, hit_cycles=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=1024 * 1024, assoc=4, line_bytes=128, hit_cycles=10))

    # SimOS NUMA memory-model parameters (nanoseconds, Table 1).
    bus_time_ns: float = 30.0
    pi_local_dc_time_ns: float = 10.0
    ni_local_dc_time_ns: float = 60.0
    ni_remote_dc_time_ns: float = 10.0
    net_time_ns: float = 50.0
    mem_time_ns: float = 50.0

    page_bytes: int = 4096
    #: "round_robin" pages across nodes or "first_touch" by first accessor.
    placement: str = "first_touch"

    def __post_init__(self):
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        if self.l1.line_bytes < 8:
            raise ValueError("a line must hold at least one 8-byte word")
        if self.placement not in ("round_robin", "first_touch", "block"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.cpus_per_cmp < 1:
            raise ValueError("need at least one CPU per CMP")

    # -- unit conversion -----------------------------------------------------

    def cycles(self, ns: float) -> float:
        """Convert nanoseconds to processor cycles."""
        return ns * self.clock_ghz

    def ns(self, cycles: float) -> float:
        """Convert processor cycles to nanoseconds."""
        return cycles / self.clock_ghz

    @property
    def n_cpus(self) -> int:
        """Total processors (CMPs x CPUs per CMP)."""
        return self.n_cmps * self.cpus_per_cmp

    @property
    def line_bytes(self) -> int:
        """Cache line size shared by both levels."""
        return self.l1.line_bytes

    # -- Table-1 derived latencies (uncontended minimums) ---------------------

    @property
    def local_miss_ns(self) -> float:
        """Local L2 miss: bus + home directory/NI controller + memory + bus
        (= 170 ns with Table-1 parameters)."""
        return (self.bus_time_ns + self.ni_local_dc_time_ns
                + self.mem_time_ns + self.bus_time_ns)

    @property
    def remote_miss_ns(self) -> float:
        """Remote clean two-hop miss: the local path plus a network
        traversal and remote-NI pass-through in each direction
        (= 290 ns with Table-1 parameters)."""
        return (self.local_miss_ns
                + 2 * self.net_time_ns + 2 * self.ni_remote_dc_time_ns)

    def with_(self, **kw) -> "MachineConfig":
        """Return a copy with fields replaced."""
        return replace(self, **kw)

    def describe(self) -> Dict[str, object]:
        """Table-1-style parameter dump for reports."""
        return {
            "CMPs": self.n_cmps,
            "CPUs/CMP": self.cpus_per_cmp,
            "Clock (GHz)": self.clock_ghz,
            "L1 size/assoc/hit": (self.l1.size_bytes, self.l1.assoc,
                                  self.l1.hit_cycles),
            "L2 size/assoc/hit": (self.l2.size_bytes, self.l2.assoc,
                                  self.l2.hit_cycles),
            "BusTime (ns)": self.bus_time_ns,
            "PILocalDCTime (ns)": self.pi_local_dc_time_ns,
            "NILocalDCTime (ns)": self.ni_local_dc_time_ns,
            "NIRemoteDCTime (ns)": self.ni_remote_dc_time_ns,
            "NetTime (ns)": self.net_time_ns,
            "MemTime (ns)": self.mem_time_ns,
            "local miss (ns)": self.local_miss_ns,
            "remote miss (ns)": self.remote_miss_ns,
        }


#: The exact configuration of the paper's Table 1.
PAPER_MACHINE = MachineConfig()
