"""Reference-vs-default benchmark: the ``REPRO_HOTPATH`` switch.

Runs the test-size static suite serially on the reference interpreter
(``REPRO_HOTPATH=``) and on generated code (``compile``, the default)
-- **interleaved** and min-of-reps (CPU time) so host noise and cache
drift hit both arms equally, then:

* asserts the simulated cycle map is bit-identical across the two
  (the cycle-exactness contract of the generated code);
* records the speedup, on the suite and on a bare VM, and an
  explanatory note to ``BENCH_hotpath.json`` at the repository root,
  and prints the table (host timings stay out of
  ``benchmarks/results/``, which holds deterministic numbers only).

The suite here is pinned to test size / 4 CMPs (the CI smoke scale)
so the recorded trajectory stays comparable across hosts and PRs.
"""

import json
import os
import pathlib
import platform
import time

from repro.config import PAPER_MACHINE
from repro.harness import render_table, run_static_suite
from repro.hotpath import reset_for_tests

BASELINE_PATH = pathlib.Path(__file__).parent.parent / "BENCH_hotpath.json"

#: ``REPRO_HOTPATH`` values: the reference interpreter, the default.
ARMS = ("", "compile")
REPS = int(os.environ.get("REPRO_BENCH_HOTPATH_REPS", "3"))


def _suite():
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    return run_static_suite(cfg=cfg, size="test")


def _vm_only_bench():
    """Dispatch-only microbenchmark: a compute-bound kernel driven as a
    bare VM (events serviced from a flat store), so the measurement
    isolates what generated code actually touches -- fetch/decode/
    dispatch -- from the memory-system and engine work that dominates
    the machine-level suite."""
    from repro.compiler import compile_source
    from repro.interp import VM, Done, MemRead, MemWrite
    prog = compile_source("""
double acc;
void main() {
    int i;
    int k;
    double x;
    double y;
    acc = 0.0;
    k = 0;
    while (k < 60) {
        x = 1.0; y = 0.5; i = 0;
        while (i < 4000) {
            x = x + y * 0.25 - min(x, y);
            y = max(y, x / 3.0) + fabs(x - y) * 0.125;
            i = i + 1;
        }
        acc = acc + x + y;
        k = k + 1;
    }
    print(acc);
}
""")
    t0 = time.process_time()
    vm = VM(prog, prog.main_index)
    store = {}
    for g in prog.globals:
        store[g.index] = [0.0] * g.size if g.dims else (g.init or 0)
    while True:
        ev = vm.run()
        vm.take_cycles()
        k = type(ev)
        if k is MemRead:
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif k is MemWrite:
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
        elif k is Done:
            return time.process_time() - t0
        else:
            vm.push(0)


def _cycle_map(suite):
    return {f"{b}/{c}": run.cycles
            for b, row in suite.items() for c, run in row.items()}


def _measure():
    prior = os.environ.get("REPRO_HOTPATH")
    try:
        cycle_maps = {}

        def arm(tiers):
            os.environ["REPRO_HOTPATH"] = tiers
            reset_for_tests()           # tiers latch once per process
            t0 = time.process_time()
            suite = _suite()
            dt = time.process_time() - t0
            cycle_maps.setdefault(tiers, _cycle_map(suite))
            return dt

        for tiers in ARMS:                      # warm compile caches
            arm(tiers)
        cpu = {tiers: [] for tiers in ARMS}
        vm_cpu = {tiers: [] for tiers in ARMS}
        for _ in range(REPS):                   # interleaved reps
            for tiers in ARMS:
                cpu[tiers].append(arm(tiers))
                vm_cpu[tiers].append(_vm_only_bench())

        base = cycle_maps[""]
        for tiers, cmap in cycle_maps.items():
            assert cmap == base, f"cycle drift with REPRO_HOTPATH={tiers!r}"
        t_off = min(cpu[""])
        vm_off = min(vm_cpu[""])
        arms_out = {}
        for tiers in ARMS:
            t = min(cpu[tiers])
            arms_out[tiers or "off"] = {
                "cpu_min_s": round(t, 3),
                "speedup_vs_off": round(t_off / t, 3),
                "cpu_reps": [round(x, 3) for x in cpu[tiers]],
                "vm_dispatch_speedup_vs_off": round(
                    vm_off / min(vm_cpu[tiers]), 3),
            }
        return {
            "sweep": {"suite": "static", "size": "test", "n_cmps": 4,
                      "runs": len(base), "reps": REPS,
                      "timer": "process_time, min of interleaved reps",
                      "vm_dispatch": "per-arm compute-bound bare-VM "
                                     "microbenchmark isolating what "
                                     "generated code touches"},
            "cycles": base,
            "cycles_bit_identical_across_arms": True,
            "arms": arms_out,
            "host": {"cpu_count": os.cpu_count(),
                     "platform": platform.platform(),
                     "python": platform.python_version()},
            "notes": {
                "compile": "Generated code removes dispatch outright "
                           "(see vm_dispatch_speedup_vs_off on the "
                           "compute-bound VM-only microbenchmark).  The "
                           "suite-level gain is Amdahl-capped: the "
                           "interpreter, running the base-op bytecode "
                           "every image holds, is well over half of the "
                           "reference arm's CPU, the rest being the "
                           "memory system, coherence bookkeeping and the "
                           "event engine.",
            },
        }
    finally:
        if prior is None:
            os.environ.pop("REPRO_HOTPATH", None)
        else:
            os.environ["REPRO_HOTPATH"] = prior
        reset_for_tests()


def test_hotpath_ablation(once):
    data = once(_measure)
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    rows = [[tiers, f"{d['cpu_min_s']:.2f}", f"{d['speedup_vs_off']:.3f}"]
            for tiers, d in data["arms"].items()]
    print("\n" + render_table(
        ["REPRO_HOTPATH", "cpu s (min)", "speedup vs off"], rows,
        f"reference interpreter (off) vs generated code, "
        f"{data['sweep']['runs']}-run static suite (test size, 4 CMPs, "
        f"{data['sweep']['reps']} interleaved reps)"))
    # The exactness contract is the hard gate; the wall-clock floors
    # sit deliberately below the recorded speedups so noisy hosts
    # don't flake.
    assert data["cycles_bit_identical_across_arms"]
    assert data["arms"]["compile"]["speedup_vs_off"] > 1.5, data["arms"]
    assert data["arms"]["compile"]["vm_dispatch_speedup_vs_off"] > 3.0, \
        data["arms"]
