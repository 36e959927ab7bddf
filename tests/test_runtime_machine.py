"""Integration tests: compiled images running on the simulated machine.

Every test checks the timed machine against the functional reference
(same values in every mode), plus mode-specific properties: breakdown
accounting, job dispatch, scheduling, and the single-binary runtime
mode selection the paper emphasizes.
"""

import gc

import numpy as np
import pytest

from repro import Machine, compile_source, run_program
from repro.config import PAPER_MACHINE
from repro.interp import FunctionalRunner
from repro.mem import CacheLine
from repro.mem.directory import DirEntry
from repro.runtime import RuntimeEnv

CFG4 = PAPER_MACHINE.with_(n_cmps=4)

STENCIL = """
double a[2048];
double b[2048];
double total;
int i;
void main() {
    int it;
    #pragma omp parallel for
    for (i = 0; i < 2048; i = i + 1) a[i] = i * 0.5;
    for (it = 0; it < 2; it = it + 1) {
        #pragma omp parallel for
        for (i = 1; i < 2047; i = i + 1) b[i] = (a[i-1] + a[i+1]) * 0.5;
        #pragma omp parallel for
        for (i = 1; i < 2047; i = i + 1) a[i] = b[i];
    }
    total = 0.0;
    #pragma omp parallel for reduction(+: total)
    for (i = 0; i < 2048; i = i + 1) total = total + a[i];
}
"""


@pytest.fixture(scope="module")
def stencil_image():
    return compile_source(STENCIL)


@pytest.fixture(scope="module")
def stencil_ref(stencil_image):
    return FunctionalRunner(stencil_image).run()


@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_modes_match_functional_reference(stencil_image, stencil_ref, mode):
    r = run_program(stencil_image, cfg=CFG4, mode=mode)
    assert r.store.value("total") == pytest.approx(
        stencil_ref.store.value("total"))
    assert np.allclose(r.store.array("a"), stencil_ref.store.array("a"))


@pytest.mark.parametrize("sched", [("static", None), ("static", 16),
                                   ("dynamic", 32), ("guided", 16)])
def test_runtime_schedules_match_reference(sched):
    src = STENCIL.replace("#pragma omp parallel for",
                          "#pragma omp parallel for schedule(runtime)")
    img = compile_source(src)
    ref = FunctionalRunner(img).run()
    env = RuntimeEnv(schedule=sched)
    for mode in ("single", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode, env=env)
        assert r.store.value("total") == pytest.approx(
            ref.store.value("total")), (mode, sched)


def test_single_binary_runs_all_modes(stencil_image):
    """§5.1: 'the same binary' -- one image, mode chosen at run time."""
    cycles = {}
    for mode in ("single", "double", "slipstream"):
        cycles[mode] = run_program(stencil_image, cfg=CFG4, mode=mode).cycles
    assert len(set(cycles.values())) >= 2   # the modes actually differ


def test_slipstream_sync_switchable_via_env(stencil_image):
    g0 = run_program(stencil_image, cfg=CFG4, mode="slipstream",
                     env=RuntimeEnv(slipstream=("GLOBAL_SYNC", 0),
                                    slipstream_set=True))
    l1 = run_program(stencil_image, cfg=CFG4, mode="slipstream",
                     env=RuntimeEnv(slipstream=("LOCAL_SYNC", 1),
                                    slipstream_set=True))
    assert g0.store.value("total") == pytest.approx(
        l1.store.value("total"))
    # L1 lets the A-stream run a session ahead: token traffic must exist
    # in both, and the two policies must differ somewhere observable.
    assert sum(s["tokens_consumed"] for s in g0.channel_stats.values()) > 0
    assert sum(s["tokens_consumed"] for s in l1.channel_stats.values()) > 0
    assert g0.cycles != l1.cycles


def test_env_none_disables_slipstream(stencil_image):
    r = run_program(stencil_image, cfg=CFG4, mode="slipstream",
                    env=RuntimeEnv(slipstream=("NONE", 0),
                                   slipstream_set=True))
    assert sum(s["tokens_consumed"] for s in r.channel_stats.values()) == 0
    # No A-stream fills should be classified at all.
    assert r.classes.total("read") == 0 or all(
        r.classes.get("A", k, o) == 0
        for k in ("read", "rdex") for o in ("timely", "late", "only"))


def test_slipstream_prefetches_classified(stencil_image):
    r = run_program(stencil_image, cfg=CFG4, mode="slipstream")
    c = r.classes
    total_reads = c.total("read")
    assert total_reads > 0
    a_any = sum(c.get("A", "read", o) for o in ("timely", "late", "only"))
    assert a_any > 0                       # the A-stream really prefetches
    assert c.get("A", "rdex", "timely") > 0  # store->prefetch conversion


def test_breakdown_sums_to_elapsed(stencil_image):
    r = run_program(stencil_image, cfg=CFG4, mode="single")
    n_r = CFG4.n_cmps
    total = sum(r.r_breakdown.values())
    assert total == pytest.approx(n_r * r.cycles, rel=1e-6)
    assert r.r_breakdown.get("memory", 0) > 0
    assert r.r_breakdown.get("jobwait", 0) > 0
    assert r.r_breakdown.get("barrier", 0) > 0


def test_double_mode_uses_both_cpus():
    src = """
double a[512];
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 512; i = i + 1) a[i] = i;
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="double")
    names = set(r.breakdowns)
    assert any("c1" in n for n in names)
    assert sum(1 for n in names if n.startswith("R")) == 8


def test_dynamic_scheduling_has_scheduling_time(stencil_image):
    env = RuntimeEnv(schedule=("dynamic", 64))
    src = STENCIL.replace("#pragma omp parallel for",
                          "#pragma omp parallel for schedule(runtime)")
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="single", env=env)
    assert r.r_breakdown.get("scheduling", 0) > 0


def test_static_scheduling_negligible_scheduling_time(stencil_image):
    r = run_program(stencil_image, cfg=CFG4, mode="single")
    total = sum(r.r_breakdown.values())
    assert r.r_breakdown.get("scheduling", 0) / total < 0.02


def test_if_clause_serializes_region():
    src = """
double a[64];
int i, nt;
void main() {
    #pragma omp parallel for if(0)
    for (i = 0; i < 64; i = i + 1) a[i] = omp_get_num_threads();
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="single")
    assert np.all(r.store.array("a") == 1.0)  # team of one


def test_thread_ids_cover_team():
    src = """
double seen[8];
int i;
void main() {
    #pragma omp parallel for schedule(static, 1)
    for (i = 0; i < 8; i = i + 1) seen[i] = omp_get_thread_num();
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=PAPER_MACHINE.with_(n_cmps=8), mode="single")
    assert sorted(r.store.array("seen").tolist()) == list(range(8))


def test_a_stream_shares_task_id():
    """§3.1: 'the same ID should be returned to processes sharing a CMP'
    -- checked indirectly: slipstream results equal single-mode results
    even for id-dependent work partitioning."""
    src = """
double a[64];
int i;
void main() {
    int t;
    #pragma omp parallel private(t)
    {
        t = omp_get_thread_num();
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) a[i] = t;
    }
}
"""
    img = compile_source(src)
    rs = run_program(img, cfg=CFG4, mode="single")
    rp = run_program(img, cfg=CFG4, mode="slipstream")
    assert np.array_equal(rs.store.array("a"), rp.store.array("a"))


def test_io_and_inputs_across_modes():
    src = """
double x;
void main() {
    x = read_input();
    print("got", x);
    print("twice", x * 2.0);
}
"""
    img = compile_source(src)
    for mode in ("single", "double", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode, inputs=[21.0])
        assert r.output == [("got", 21.0), ("twice", 42.0)], mode


def test_output_not_duplicated_by_a_stream():
    """I/O is irreversible: the A-stream must skip it (§3.1)."""
    src = """
int i;
double a[32];
void main() {
    print("start");
    #pragma omp parallel for
    for (i = 0; i < 32; i = i + 1) a[i] = i;
    print("end");
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="slipstream")
    assert r.output == [("start",), ("end",)]


def test_critical_and_atomic_serialize():
    src = """
double counter;
int i;
void main() {
    counter = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 64; i = i + 1) {
        #pragma omp critical
        { counter = counter + 1.0; }
    }
    #pragma omp parallel for
    for (i = 0; i < 64; i = i + 1) {
        #pragma omp atomic
        counter = counter + 1.0;
    }
}
"""
    img = compile_source(src)
    for mode in ("single", "double", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode)
        assert r.store.value("counter") == 128.0, mode
        assert r.r_breakdown.get("lock", 0) > 0


def test_single_construct_executes_once_per_encounter():
    src = """
double count;
int i;
void main() {
    int it;
    count = 0.0;
    for (it = 0; it < 3; it = it + 1) {
        #pragma omp parallel
        {
            #pragma omp single
            { count = count + 1.0; }
        }
    }
}
"""
    img = compile_source(src)
    for mode in ("single", "double", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode)
        assert r.store.value("count") == 3.0, mode


def test_sections_across_modes():
    src = """
double a, b, c;
void main() {
    #pragma omp parallel
    {
        #pragma omp sections
        {
            #pragma omp section
            { a = 1.0; }
            #pragma omp section
            { b = 2.0; }
            #pragma omp section
            { c = 3.0; }
        }
    }
}
"""
    img = compile_source(src)
    for mode in ("single", "double", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode)
        vals = (r.store.value("a"), r.store.value("b"), r.store.value("c"))
        assert vals == (1.0, 2.0, 3.0), mode


def test_master_construct_runs_on_master_only():
    src = """
double who;
int i;
void main() {
    #pragma omp parallel
    {
        #pragma omp master
        { who = omp_get_thread_num() + 100.0; }
    }
}
"""
    img = compile_source(src)
    for mode in ("single", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode)
        assert r.store.value("who") == 100.0, mode


def test_explicit_barrier_and_flush():
    src = """
double a[16];
double b[16];
int i;
void main() {
    #pragma omp parallel
    {
        #pragma omp for nowait
        for (i = 0; i < 16; i = i + 1) a[i] = i;
        #pragma omp barrier
        #pragma omp flush
        #pragma omp for
        for (i = 0; i < 16; i = i + 1) b[i] = a[15 - i];
    }
}
"""
    img = compile_source(src)
    for mode in ("single", "double", "slipstream"):
        r = run_program(img, cfg=CFG4, mode=mode)
        assert np.array_equal(r.store.array("b"),
                              np.arange(15, -1, -1.0)), mode


def test_guided_chunks_shrink():
    src = """
double a[512];
int i;
void main() {
    #pragma omp parallel for schedule(guided)
    for (i = 0; i < 512; i = i + 1) a[i] = 1.0;
}
"""
    img = compile_source(src)
    r = run_program(img, cfg=CFG4, mode="single")
    assert float(np.sum(r.store.array("a"))) == 512.0


def test_deadlock_detection():
    # A program whose master waits on input that never arrives.
    src = """
double x;
void main() { x = read_input(); }
"""
    img = compile_source(src)
    with pytest.raises(RuntimeError):
        run_program(img, cfg=CFG4, mode="single")  # no inputs provided


def test_sections_static_option():
    """The sections-assignment policy ablation (§3.1 item 6): static
    assignment lets A-streams execute sections independently."""
    src = """
double a, b, c, d;
void main() {
    #pragma omp parallel
    {
        #pragma omp sections
        {
            #pragma omp section
            { a = 1.0; }
            #pragma omp section
            { b = 2.0; }
            #pragma omp section
            { c = 3.0; }
            #pragma omp section
            { d = 4.0; }
        }
    }
}
"""
    img = compile_source(src)
    for static in (False, True):
        for mode in ("single", "slipstream"):
            r = run_program(img, cfg=CFG4, mode=mode,
                            sections_static=static)
            vals = tuple(r.store.value(n) for n in "abcd")
            assert vals == (1.0, 2.0, 3.0, 4.0), (static, mode)


# ------------------------------------------- a unit costs what it touches

def test_building_a_paper_machine_allocates_no_l2_sets(stencil_image):
    """Counted, not timed: with the collector off, ``gc.get_count()[0]``
    is container allocations minus frees.  An empty dict is untracked
    (``gc.get_objects()`` never shows it) but still advances that count,
    which is what schedules collections: an L2 of 2 048 dict sets was
    +2 034 a node, 36 708 for this build.  What is left is one tracked
    list per L1 set (64 a CPU, measured at about 8 us a CPU and left
    alone) and, beside those, 1 892: shells, VMs, engine, probes --
    held under a tenth of what the sixteen L2s alone used to add."""
    cfg = PAPER_MACHINE
    assert cfg.n_cmps == 16 and cfg.l2.num_sets == 2048
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        machine = Machine(stencil_image, cfg)
        made = gc.get_count()[0] - before
    finally:
        gc.enable()
    l1_lists = cfg.n_cmps * cfg.cpus_per_cmp * cfg.l1.num_sets
    assert made - l1_lists < 2500 < cfg.n_cmps * cfg.l2.num_sets // 10
    for nm in machine.memsys.nodes:
        assert len({id(s) for s in nm.l2._sets}) == 1


def test_a_run_materialises_no_more_sets_than_it_fills(stencil_image):
    """After a run a node's L2 holds a dict for a set only if a line was
    filled into it, and a directly built ``Machine`` keeps its caches
    for whoever built it to inspect."""
    machine = Machine(stencil_image, CFG4, "slipstream")
    machine.run()
    for nm in machine.memsys.nodes:
        l2 = nm.l2
        made = sum(type(s) is dict for s in l2._sets)
        fills = l2.resident_count() + l2.evictions + l2.invalidations
        assert 0 < made <= fills < l2.cfg.num_sets
        lines = list(l2.lines())
        assert len(lines) == l2.resident_count() > 0
        assert all(l2.peek(ln.line_addr) is ln for ln in lines)
    assert machine.memsys.directory.n_entries > 0


@pytest.mark.parametrize("mode", ["single", "slipstream"])
def test_run_program_hands_its_lines_back_without_the_collector(
        stencil_image, mode):
    """``run_program``'s machine is a local no caller can see, and a
    cyclic graph only a full collection frees; its lines and directory
    entries are not part of any cycle once the sets and the directory
    let go of them, so with the collector *off* none survives the call."""
    gc.collect()
    gc.disable()
    try:
        result = run_program(stencil_image, cfg=CFG4, mode=mode)
        alive = [type(o) for o in gc.get_objects()
                 if type(o) in (CacheLine, DirEntry)]
    finally:
        gc.enable()
    assert alive == []
    assert result.mem_stats.get("cache.l2.misses") > 0
