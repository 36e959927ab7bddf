"""Per-layer rows of the traced run.

Five sources, none of which touches the program's own code:

* spans the benchmark recorded around its calls into each layer;
* the work counts the simulator reports on every ``RunResult``;
* direct-drive microbenchmarks of single classes, on seeded streams;
* the harness phases of ``harness_roundtrip`` (a short probe of it on
  the other workloads);
* one ``cProfile`` pass, self time grouped by package.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import repro
from repro import FunctionalRunner, PAPER_MACHINE, compile_source
from repro.compiler import compile_program
from repro.harness import RunSpec, atomic_pickle, execute_spec, load_verified
from repro.interp import VM, Done, MemRead, MemWrite
from repro.lang import analyze, parse, tokenize
from repro.mem import Cache, CoherentMemorySystem, Directory, MESIState
from repro.npb import cache_stats
from repro.sim import Engine, Server
from repro.slipstream.channel import PairChannel

from metrics import CALL_PACKAGES, CYCLE_CATEGORIES, PACKAGES, RUN_KINDS
from spans import Tracer
from workloads import (HarnessRoundtrip, dense_constants, dense_reference,
                       dense_source)

Rows = Dict[str, float]

# ---------------------------------------------------------------- spans


def frontend_rows(tr: Tracer, sources: List[str]) -> Rows:
    """Front end and code generator on every source of the workload."""
    with tr.span("frontend"):
        for src in sources:
            with tr.span("lang.frontend"):
                tokenize(src)
                program = parse(src)
                analyze(program)
            with tr.span("compiler.codegen"):
                compile_program(program)
    own = tr.self_times(tr.roots("frontend")[-1])
    return {"lang.frontend_s": own["lang.frontend"],
            "compiler.codegen_s": own["compiler.codegen"]}


def span_rows(tr: Tracer, walls: List[float]) -> Rows:
    """Self seconds per traced pass, by layer; ``walls`` are the wall
    clocks the passes measured around their root spans."""
    roots = tr.roots("pass")
    total: Dict[str, float] = {}
    for root in roots:
        for name, secs in tr.self_times(root).items():
            total[name] = total.get(name, 0.0) + secs
    per_pass = {name: secs / len(roots) for name, secs in total.items()}
    get = per_pass.get
    rows = {f"runtime.run_s.{k}": get("runtime.run." + k, 0.0)
            for k in RUN_KINDS}
    rows["runtime.run_s"] = sum(rows.values())
    rows.update({
        "npb.cache.lookup_s": get("npb.cache.lookup", 0.0),
        "runtime.build_s": get("runtime.build", 0.0),
        "npb.verify_s": get("npb.verify", 0.0),
        "harness.plan_s": get("harness.plan", 0.0),
        "harness.store_s": get("harness.store", 0.0),
        "harness.figures_s": get("harness.figures", 0.0),
        "harness.pipeline_s": sum(
            secs for name, secs in per_pass.items()
            if name.startswith("harness.") and name not in (
                "harness.plan", "harness.store", "harness.figures")),
        "interp.functional_pass_s": get("interp.functional_pass", 0.0),
        "bench.self_s": get("pass", 0.0) + get("unit", 0.0),
        # the clock's calibrations sit inside the pass span but are no
        # part of the wall clock it reports
        "trace.self_sum_over_wall": (
            sum(total.values()) - total.get("bench.calibrate", 0.0))
        / sum(walls),
    })
    return rows

# ----------------------------------------------------------- work counts


def count_rows(results: List[tuple], run_s: float) -> Rows:
    """Exact work counts of one pass, summed over its units, and the
    host microseconds of ``runtime.run_s`` each one cost."""
    mem: Dict[str, float] = {}
    team: Dict[str, float] = {}
    engine: Dict[str, float] = {}
    cycles_by: Dict[str, float] = {}
    cycles = tokens = recoveries = 0
    a_fills = {"read": [0, 0], "rdex": [0, 0]}      # [timely, all]
    for _, res in results:
        cycles += res.cycles
        for key, n in res.mem_stats.as_dict().items():
            mem[key] = mem.get(key, 0) + n
        for track, into in (("team", team), ("engine", engine)):
            for key, n in res.rt_stats.get(track, {}).items():
                into[key] = into.get(key, 0) + n
        for cat, n in res.r_breakdown.items():
            cat = cat if cat in CYCLE_CATEGORIES else "other"
            cycles_by[cat] = cycles_by.get(cat, 0.0) + n
        tokens += sum(c["tokens_consumed"]
                      for c in res.channel_stats.values())
        recoveries += len(res.recoveries)
        for kind, acc in a_fills.items():
            acc[0] += res.classes.get("A", kind, "timely")
            acc[1] += sum(res.classes.get("A", kind, o)
                          for o in ("timely", "late", "only"))

    def frac(part, whole):
        return part / whole if whole else 0.0

    accesses = mem.get("cache.l1.hits", 0) + mem.get("cache.l1.misses", 0)
    events = engine.get("engine.events", 0)
    rows = {
        "runtime.sim_cycles": cycles,
        "sim.engine.events": events,
        "sim.engine.processes": engine.get("engine.processes", 0),
        "mem.l1.accesses": accesses,
        "mem.l1.misses": mem.get("cache.l1.misses", 0),
        "mem.l2.misses": mem.get("cache.l2.misses", 0),
        "mem.miss_transactions": sum(mem.get(k, 0) for k in
                                     ("local", "remote", "remote3")),
        "mem.prefetch_ex": mem.get("prefetch_ex", 0),
        "mem.invs_sent": mem.get("invs_sent", 0),
        "mem.mshr_merges": mem.get("mshr_merges", 0),
        "runtime.barrier_episodes": team.get("barrier.episodes", 0),
        "runtime.lock_acquisitions": team.get("lock.acquisitions", 0),
        "runtime.lock_contended_frac": frac(
            team.get("lock.contended", 0), team.get("lock.acquisitions", 0)),
        "slipstream.tokens_consumed": tokens,
        "slipstream.recoveries": recoveries,
        "slipstream.a_timely_frac.read": frac(*a_fills["read"]),
        "slipstream.a_timely_frac.rdex": frac(*a_fills["rdex"]),
        "runtime.host_us_per_kcycle": frac(run_s * 1e6, cycles / 1e3),
        "mem.host_us_per_access": frac(run_s * 1e6, accesses),
        "sim.host_us_per_event": frac(run_s * 1e6, events),
    }
    all_cycles = sum(cycles_by.values())
    for cat in CYCLE_CATEGORIES:
        rows[f"runtime.cycles_frac.{cat}"] = frac(
            cycles_by.get(cat, 0.0), all_cycles)
    return rows


def cache_hit_frac(before: Dict[str, int]) -> float:
    """Share of kernel-cache lookups since ``before`` that were served."""
    now = cache_stats()
    served = sum(now[k] - before[k] for k in ("hits", "disk_hits"))
    missed = now["misses"] - before["misses"]
    return served / (served + missed) if served + missed else 0.0

# ---------------------------------------------------- microbenchmarks


def per_op(rep: Callable[[], tuple], scale: float, reps: int = 5) -> float:
    """Median over ``reps`` of seconds per operation, times ``scale``."""
    samples = []
    for _ in range(reps):
        secs, ops = rep()
        samples.append(secs / ops * scale)
    return statistics.median(samples)


def timed(engine: Engine, ops: int, *bodies) -> tuple:
    """Run generator bodies as processes to completion; (seconds, ops)."""
    for body in bodies:
        engine.process(body)
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0, ops


def micro_vm(seed: int) -> Rows:
    """The dense loop of ``vm_dense`` at a fixed small size: a serial
    twin on a bare ``VM`` over a flat store, and the functional runner."""
    n, trips = 16, 2000
    args = (n, trips) + dense_constants(random.Random(seed))
    want = dense_reference(*args)
    serial = compile_source(dense_source(*args, parallel=False))
    team = compile_source(dense_source(*args))

    def bare():
        flat: Dict[tuple, float] = {}
        vm = VM(serial, serial.main_index)
        t0 = time.perf_counter()
        while True:
            ev = vm.run()
            if isinstance(ev, MemWrite):
                flat[ev.gidx, ev.flat] = ev.value
            elif isinstance(ev, MemRead):
                vm.push(flat.get((ev.gidx, ev.flat), 0.0))
            elif isinstance(ev, Done):
                break
        secs = time.perf_counter() - t0
        if [flat[0, i] for i in range(n)] != want.tolist():
            raise RuntimeError("bare VM: out[] differs from the reference")
        return secs, 1

    def functional():
        t0 = time.perf_counter()
        runner = FunctionalRunner(team).run()
        secs = time.perf_counter() - t0
        if not np.array_equal(runner.store.array("out"), want):
            raise RuntimeError("functional runner: out[] differs")
        return secs, 1

    return {"interp.vm.bare_s": per_op(bare, 1.0),
            "interp.functional_s": per_op(functional, 1.0)}


def micro_mem(seed: int) -> Rows:
    rng = random.Random(seed)
    l1 = PAPER_MACHINE.l1
    line = l1.line_bytes
    resident = [i * line for i in range(l1.assoc * 4)]
    hits = [rng.choice(resident) for _ in range(20000)]
    stream = [i * line for i in range(l1.num_lines, l1.num_lines + 20000)]

    def cache_hit():
        cache = Cache(l1)
        for addr in resident:
            cache.insert(addr, MESIState.SHARED)
        t0 = time.perf_counter()
        for addr in hits:
            cache.lookup(addr)
        secs = time.perf_counter() - t0
        if cache.hits != len(hits):
            raise RuntimeError("cache micro: expected every lookup to hit")
        return secs, len(hits)

    def cache_fill():
        cache = Cache(l1)
        for i in range(l1.num_lines):
            cache.insert(i * line, MESIState.SHARED)
        t0 = time.perf_counter()
        for addr in stream:
            cache.insert(addr, MESIState.SHARED)
        secs = time.perf_counter() - t0
        if cache.evictions != len(stream):
            raise RuntimeError("cache micro: expected every fill to evict")
        return secs, len(stream)

    lines = [i * line for i in range(256)]

    def directory():
        d = Directory(Engine())
        t0 = time.perf_counter()
        for _ in range(8):
            for la in lines:
                d.add_sharer(la, 1)
                d.add_sharer(la, 2)
                d.sharers_excluding(la, 1)
                d.set_exclusive(la, 3)
                d.demote_to_shared(la, 4)
                d.drop_node(la, 3)
                d.drop_node(la, 4)
        return time.perf_counter() - t0, 8 * 7 * len(lines)

    def system(n_cmps, n_lines):
        engine = Engine()
        cfg = PAPER_MACHINE.with_(n_cmps=n_cmps)
        ms = CoherentMemorySystem(engine, cfg)
        base = ms.allocator.alloc(n_lines * cfg.line_bytes,
                                  align=cfg.line_bytes)
        return engine, ms, [base + i * cfg.line_bytes
                            for i in range(n_lines)]

    def loads(ms, node, addrs, want=None):
        for addr in addrs:
            res = yield from ms.load(node, 0, addr)
            if want is not None and res.level != want:
                raise RuntimeError(f"memsys micro: load served from "
                                   f"{res.level}, expected {want}")

    def l2_hit():
        engine, ms, addrs = system(1, 64)
        engine.process(loads(ms, 0, addrs))
        engine.run()
        return timed(engine, 64 * 30, loads(ms, 0, addrs * 30, "l2"))

    def local_miss():
        engine, ms, addrs = system(1, 1500)
        return timed(engine, len(addrs), loads(ms, 0, addrs, "local"))

    picks = [[(rng.randrange(256), rng.random() < 0.3) for _ in range(200)]
             for _ in range(8)]

    def shared_rw():
        engine, ms, addrs = system(8, 256)

        def node_body(node):
            for idx, is_store in picks[node]:
                access = ms.store if is_store else ms.load
                yield from access(node, 0, addrs[idx])

        return timed(engine, 8 * 200, *(node_body(n) for n in range(8)))

    def prefetch_ex():
        engine, ms, addrs = system(8, 64)
        for node in range(8):
            engine.process(loads(ms, node, addrs))
        engine.run()

        def node_body(node):
            for addr in addrs:
                ms.prefetch_exclusive(node, addr)
                yield 400.0

        return timed(engine, 8 * 64, *(node_body(n) for n in range(8)))

    return {
        "mem.cache.hit_ns": per_op(cache_hit, 1e9),
        "mem.cache.fill_evict_ns": per_op(cache_fill, 1e9),
        "mem.directory.op_ns": per_op(directory, 1e9),
        "mem.memsys.l2hit_us": per_op(l2_hit, 1e6),
        "mem.memsys.local_miss_us": per_op(local_miss, 1e6),
        "mem.memsys.shared_rw_us": per_op(shared_rw, 1e6),
        "mem.memsys.prefetch_ex_us": per_op(prefetch_ex, 1e6),
    }


def micro_sim() -> Rows:
    def timeouts():
        engine = Engine()

        def sleeper():
            for _ in range(2500):
                yield 1.0

        return timed(engine, 4 * 2500, *(sleeper() for _ in range(4)))

    def event_fires():
        engine = Engine()
        events = [engine.event() for _ in range(5000)]

        def waiter():
            for ev in events:
                yield ev

        def firer():
            for ev in events:
                ev.fire()
                yield 1.0

        return timed(engine, len(events), waiter(), firer())

    def serves():
        engine = Engine()
        server = Server(engine, "micro")

        def client():
            for _ in range(300):
                yield from server.serve(10.0)

        return timed(engine, 8 * 300, *(client() for _ in range(8)))

    def tokens():
        engine = Engine()
        chan = PairChannel(engine, 0)
        chan.begin_region("GLOBAL_SYNC", 0)

        def r_stream():
            for _ in range(2000):
                chan.insert_token()
                yield 5.0

        def a_stream():
            for _ in range(2000):
                yield from chan.consume_token()

        out = timed(engine, 2000, a_stream(), r_stream())
        if chan.tokens_consumed != 2000:
            raise RuntimeError("channel micro: tokens went missing")
        return out

    return {"sim.engine.timeout_ns": per_op(timeouts, 1e9),
            "sim.engine.event_fire_ns": per_op(event_fires, 1e9),
            "sim.server.serve_ns": per_op(serves, 1e9),
            "slipstream.channel.token_us": per_op(tokens, 1e6)}


def micro_obs() -> Rows:
    """The cg units of ``exhibits_test`` (all four static
    configurations) under each ``obs=`` sink: three interleaved sweeps,
    ratio of the medians."""
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    configs = ("single", "double", "G0", "L1")
    walls: Dict[str, List[float]] = {}
    events = 0
    for _ in range(3):
        for sink in ("aggregate", "null", "trace", "profile"):
            t0 = time.perf_counter()
            for config in configs:
                run = execute_spec(RunSpec.make(
                    "cg", config, size="test", cfg=cfg, obs=sink))
                if sink == "trace":
                    events = events + len(run.result.trace)
            walls.setdefault(sink, []).append(time.perf_counter() - t0)
    base = statistics.median(walls["aggregate"])
    rows = {f"obs.sink.{sink}_over_aggregate":
            statistics.median(walls[sink]) / base
            for sink in ("null", "trace", "profile")}
    rows["obs.trace.events_per_unit"] = events / (3 * len(configs))
    return rows

# ------------------------------------------------------------- harness


def harness_rows(phases: Rows, probe: HarnessRoundtrip, work: Path) -> Rows:
    """Harness rows from the phases of a ``harness_roundtrip`` pass,
    plus the two that need a run of their own: telemetry cost (publish
    again with the null session) and the integrity frame round trip."""
    wall, published = probe.publish(Tracer(False), work / "quiet",
                                    live=False)
    quiet_ms = (wall - sum(r.timing["total_s"] for r in published)) \
        / len(published) * 1e3
    path = work / "integrity.run"

    def roundtrip():
        t0 = time.perf_counter()
        atomic_pickle(published[0], path)
        back = load_verified(path)
        secs = time.perf_counter() - t0
        if back.cycles != published[0].cycles:
            raise RuntimeError("integrity micro: round trip changed cycles")
        return secs, 1

    return {
        "harness.publish.overhead_ms": phases["publish_overhead_ms"],
        "harness.resume.ms": phases["resume_ms"],
        "harness.memo.ms": phases["memo_ms"],
        "harness.memo.hit_frac": phases["memo_hit_frac"],
        "harness.spool.overhead_ms": phases["spool_overhead_ms"],
        "harness.pool.wall_s": phases["pool_s"],
        "harness.telemetry.overhead_ms":
            phases["publish_overhead_ms"] - quiet_ms,
        "harness.integrity.roundtrip_us": per_op(roundtrip, 1e6, reps=25),
        "harness.integrity.bytes_per_unit": path.stat().st_size,
    }

# -------------------------------------------------------------- cProfile


def package_of(filename: str, root: Path) -> str:
    if filename.startswith("<repro-compiled:"):
        return "interp"
    try:
        parts = Path(filename).relative_to(root).parts
    except ValueError:
        return "other"
    if parts[:2] == ("obs", "telemetry"):
        return "harness"
    if parts[0] in ("lang", "compiler"):
        return "frontend"
    return parts[0] if parts[0] in PACKAGES else "other"


def profile_by_package(fn: Callable[[], object]) -> tuple:
    """Run ``fn`` under cProfile; (self seconds, calls) by package.

    C functions are not profiled separately, so their time stays with
    the Python function that called them.  Library code outside
    ``repro`` (pathlib, pickle hooks, NumPy) is charged to the packages
    that called it, in proportion to the time cProfile saw under each
    caller; what no package called stays under ``other``.  Calls are
    counted where they land.  The cyclic collector is off meanwhile: when
    it closes a stranded generator depends on how much ran before, and
    every such close is a call, so the counts would not repeat."""
    prof = cProfile.Profile(builtins=False)
    gc.collect()
    gc.disable()
    try:
        prof.runcall(fn)
    finally:
        gc.enable()
    stats = pstats.Stats(prof).stats
    root = Path(repro.__file__).resolve().parent
    home = {func: package_of(func[0], root) for func in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def owners(func, path=()):
        """Package shares of one function's self time."""
        if home[func] != "other":
            return {home[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4]
        under = sum(c[2] for c in callers.values())
        if under <= 0 or func in path:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, c in callers.items():
            for pkg, part in owners(caller, path + (func,)).items():
                out[pkg] = out.get(pkg, 0.0) + part * c[2] / under
        shares[func] = out
        return out

    secs = dict.fromkeys(PACKAGES, 0.0)
    calls = dict.fromkeys(PACKAGES, 0)
    for func, (_, ncalls, tottime, _, _) in stats.items():
        calls[home[func]] += ncalls
        for pkg, part in owners(func).items():
            secs[pkg] += tottime * part
    return secs, calls


def profile_rows(fn: Callable[[], object]) -> Rows:
    secs, calls = profile_by_package(fn)
    total = sum(secs.values())
    rows = {f"prof.{p}.self_frac": secs[p] / total for p in PACKAGES}
    rows.update({f"prof.{p}.calls": calls[p] for p in CALL_PACKAGES})
    return rows


def replay_profile_row(probe: HarnessRoundtrip, work: Path) -> Rows:
    """Share of the replay phases' self time spent in harness code."""
    secs, _ = profile_by_package(
        lambda: probe.replay(Tracer(False), work, 1, tag="prof"))
    return {"prof.harness.replay_self_frac":
            secs["harness"] / sum(secs.values())}
