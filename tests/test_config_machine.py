"""Tests for MachineConfig / CacheConfig (paper Table 1)."""

import pytest

from repro.config import PAPER_MACHINE, CacheConfig, MachineConfig


def test_paper_machine_matches_table1():
    m = PAPER_MACHINE
    assert m.n_cmps == 16
    assert m.cpus_per_cmp == 2
    assert m.n_cpus == 32
    assert m.clock_ghz == 1.2
    assert m.l1.size_bytes == 16 * 1024 and m.l1.assoc == 2
    assert m.l1.hit_cycles == 1
    assert m.l2.size_bytes == 1024 * 1024 and m.l2.assoc == 4
    assert m.l2.hit_cycles == 10
    assert m.bus_time_ns == 30
    assert m.ni_local_dc_time_ns == 60
    assert m.pi_local_dc_time_ns == 10
    assert m.ni_remote_dc_time_ns == 10
    assert m.net_time_ns == 50
    assert m.mem_time_ns == 50


def test_derived_latencies_match_paper():
    # "The minimum latency to bring data into the L2 cache on a remote
    #  miss is 290 ns ... A local miss requires 170 ns."
    assert PAPER_MACHINE.local_miss_ns == 170
    assert PAPER_MACHINE.remote_miss_ns == 290


def test_ns_cycle_conversion_roundtrip():
    m = PAPER_MACHINE
    assert m.cycles(100) == pytest.approx(120)
    assert m.ns(m.cycles(170)) == pytest.approx(170)


def test_cache_geometry():
    c = CacheConfig(size_bytes=16 * 1024, assoc=2, line_bytes=128, hit_cycles=1)
    assert c.num_sets == 64
    assert c.num_lines == 128


def test_cache_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, assoc=2, line_bytes=128, hit_cycles=1)


def test_cache_nonpow2_sets_rejected():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=3 * 128 * 2, assoc=2, line_bytes=128,
                    hit_cycles=1)


def test_machine_line_size_must_match():
    with pytest.raises(ValueError):
        MachineConfig(
            l1=CacheConfig(16 * 1024, 2, 64, 1),
            l2=CacheConfig(1024 * 1024, 4, 128, 10))


def test_machine_line_holds_at_least_one_word():
    # the hit path takes a line number from a word number by a shift
    with pytest.raises(ValueError, match="8-byte word"):
        MachineConfig(l1=CacheConfig(64, 2, 4, 1), l2=CacheConfig(256, 4, 4, 10))
    MachineConfig(l1=CacheConfig(64, 2, 8, 1), l2=CacheConfig(256, 4, 8, 10))


def test_with_replaces_fields():
    small = PAPER_MACHINE.with_(n_cmps=4)
    assert small.n_cmps == 4
    assert small.l2 == PAPER_MACHINE.l2
    assert PAPER_MACHINE.n_cmps == 16  # original untouched


def test_describe_contains_table1_rows():
    d = PAPER_MACHINE.describe()
    assert d["BusTime (ns)"] == 30
    assert d["local miss (ns)"] == 170
    assert d["remote miss (ns)"] == 290


def test_unknown_placement_rejected():
    with pytest.raises(ValueError):
        MachineConfig(placement="random")
