"""The four workloads: inputs made from a seed, and one pass of each.

Every workload is a closed loop driven from one process: a pass runs
its units one after another (the pool phase of ``harness_roundtrip``
excepted) and the next pass starts when the previous one has ended.
The modelled caches start empty in every unit, as in the paper's runs.

The program is driven through public names only; ``check_surface.py``
enforces that.  Untraced passes take the path a user takes
(``ExecutionPipeline`` over ``SerialTransport``, ``run_program``);
traced passes split the same steps so that a span can sit on each
layer boundary, and must reproduce the untraced cycles exactly.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (FunctionalRunner, Machine, PAPER_MACHINE, RuntimeEnv,
                   compile_source, run_program)
from repro.harness import (NULL_TELEMETRY, SLIP_CONFIGS, BenchRun,
                           CheckpointJournal, DirQueueTransport,
                           ExecutionPipeline, MemoStore, PoolTransport,
                           RunSpec, SerialTransport, SweepPlan, Telemetry,
                           Transport, dynamic_specs, execute_spec,
                           render_breakdowns, render_classification,
                           render_speedups, static_specs, summary_gains)
from repro.npb import REGISTRY

from metrics import WORKLOADS
from spans import Tracer

#: name -> (size, CMPs, static benchmarks, dynamic benchmarks)
EXHIBITS = {
    "exhibits_test": ("test", 4, ("bt", "cg", "lu", "mg", "sp"),
                      ("bt", "cg", "mg", "sp")),
    "exhibits_bench": ("bench", 16, ("cg", "lu", "mg"), ("mg", "sp")),
}
STATIC_CONFIGS = ("single", "double", "G0", "L1")
DYNAMIC_CONFIGS = ("single", "G0")

#: Gains the paper reports (percent over the best baseline) for the
#: kernels EXPERIMENTS.md compares: Fig 2 (static) and Fig 4 (dynamic).
PAPER_GAIN_PCT = {"static": {"lu": 5.0, "mg": 20.0},
                  "dynamic": {"mg": 5.0, "sp": 20.0}}


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    #: unit id -> (simulated cycles, digest of the unit's outputs)
    units: Dict[str, Tuple[float, str]]
    #: (kind, RunResult) of every simulated unit; kind is the row its
    #: host time is filed under: single, double, slipstream or dynamic.
    results: List[tuple] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: harness_roundtrip: per-phase figures of this pass
    phases: Dict[str, float] = field(default_factory=dict)
    #: exhibits: average slipstream gain per suite, and gap to the paper
    gains: Dict[str, float] = field(default_factory=dict)
    #: raw and reference-host seconds of the pass, set by its caller
    #: from the ``HostClock`` that timed it
    wall_s: float = 0.0
    ref_s: float = 0.0


def output_digest(store, output) -> str:
    """Digest of everything a unit computed: its globals and prints."""
    h = hashlib.sha256()
    for arr in store.arrays:
        h.update(arr.tobytes())
    h.update(repr(output).encode())
    return h.hexdigest()[:16]


def mode_env(spec: RunSpec):
    """Machine mode, runtime environment and host-time kind of a spec."""
    kw = {}
    if spec.schedule is not None:
        kw["schedule"] = spec.schedule
    if spec.config in SLIP_CONFIGS:
        kw["slipstream"] = SLIP_CONFIGS[spec.config]
        kw["slipstream_set"] = True
    mode = spec.config if spec.config in ("single", "double") else "slipstream"
    kind = "dynamic" if spec.schedule is not None else mode
    return mode, (RuntimeEnv(**kw) if kw else None), kind


def simulate(tr: Tracer, image, cfg, mode, env, kind, **machine_kw):
    """One simulated run; traced, machine build and run are two spans."""
    if not tr.enabled:
        return run_program(image, cfg=cfg, mode=mode, env=env, **machine_kw)
    with tr.span("runtime.build"):
        machine = Machine(image, cfg, mode, env, **machine_kw)
    with tr.span("runtime.run." + kind):
        return machine.run()


#: Boundaries inside a pass calibrate the host at most this often.
LAP_GAP_S = 1.5


def lap(tr: Tracer, clock, min_gap: float = 0.0) -> None:
    """A boundary inside a pass, or its end: the clock closes the
    segment and calibrates the host.  Every ``run_pass`` ends with one,
    before it digests its outputs."""
    if clock is not None:
        with tr.span("bench.calibrate"):
            clock.lap(min_gap)


class LapJournal(CheckpointJournal):
    """The checkpoint journal of an exhibit sweep; the one place where
    the benchmark's code runs between two units of a real transport,
    so a finished unit is also a boundary for the host clock."""

    def __init__(self, root, tr: Tracer, clock):
        super().__init__(root)
        self.tracer, self.clock = tr, clock

    def record(self, key, run) -> bool:
        done = super().record(key, run)
        lap(self.tracer, self.clock, LAP_GAP_S)
        return done


class SpanTransport(Transport):
    """Serial transport of the traced exhibit passes: the steps of
    ``execute_spec`` one by one, a span around each call into a layer."""

    name = "serial+spans"

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def run(self, units, on_result) -> None:
        tr, tel = self.tracer, self.telemetry
        for unit in units:
            spec = unit.spec
            kernel = REGISTRY[spec.bench]
            overrides = dict(spec.params)
            mode, env, kind = mode_env(spec)
            with tr.span("unit", unit=str(spec)):
                tel.emit("unit.started", unit=unit.key, spec=spec)
                t0 = time.perf_counter()
                with tr.span("npb.cache.lookup"):
                    image = kernel.compile(spec.size, **overrides)
                t1 = time.perf_counter()
                result = simulate(tr, image, spec.cfg, mode, env, kind,
                                  **dict(spec.machine_kw))
                t2 = time.perf_counter()
                with tr.span("npb.verify"):
                    kernel.verify(result.store, spec.size, **overrides)
                t3 = time.perf_counter()
                run = BenchRun(spec.bench, spec.config, result,
                               kernel.params(spec.size, **overrides))
                run.timing = {"compile_s": t1 - t0, "sim_s": t2 - t1,
                              "verify_s": t3 - t2, "total_s": t3 - t0}
                tel.emit("unit.finished", unit=unit.key, spec=spec,
                         wall_s=round(t3 - t0, 6), cycles=run.cycles)
                with tr.span("harness.store"):
                    on_result(unit, run)


def compile_kernels(specs) -> None:
    """Every image the specs use, through the kernel compile cache."""
    for spec in specs:
        REGISTRY[spec.bench].compile(spec.size, **dict(spec.params))


def sources_of(specs) -> List[str]:
    """The distinct SlipC sources behind the specs, in first-use order."""
    seen: Dict[str, None] = {}
    for spec in specs:
        params = REGISTRY[spec.bench].params(spec.size, **dict(spec.params))
        seen.setdefault(REGISTRY[spec.bench].source(**params))
    return list(seen)


class Workload:
    """What child.py asks of a workload: ``sources()``, ``prepare()``
    (set-up), ``warm()``, ``units_per_pass`` and ``run_pass(tracer,
    work_dir, clock, subset=None)``, which ends with a ``lap``."""

    def profile_subset(self) -> Optional[List[int]]:
        """Unit positions the cProfile pass covers; None for all."""
        return None


class Exhibits(Workload):
    """Fig 2/3 static and Fig 4/5 dynamic sweeps at one problem size;
    the seed shuffles the order in which the units run."""

    def __init__(self, name: str, seed: int):
        size, n_cmps, static_b, dynamic_b = EXHIBITS[name]
        self.bench_size = size == "bench"
        cfg = PAPER_MACHINE.with_(n_cmps=n_cmps)
        tagged = (
            [("static", s) for s in static_specs(
                cfg, size, static_b, STATIC_CONFIGS)]
            + [("dynamic", s) for s in dynamic_specs(
                cfg, size, dynamic_b, DYNAMIC_CONFIGS)])
        random.Random(seed).shuffle(tagged)
        self.suites = [suite for suite, _ in tagged]
        self.specs = [spec for _, spec in tagged]
        self.ids = [f"{suite}/{s.bench}/{s.config}" for suite, s in tagged]
        self.units_per_pass = len(self.specs)

    def sources(self) -> List[str]:
        return sources_of(self.specs)

    def prepare(self) -> None:
        compile_kernels(self.specs)
        SweepPlan(self.specs)

    def warm(self) -> None:
        self.prepare()
        cfg = PAPER_MACHINE.with_(n_cmps=4)
        for bench in sorted({s.bench for s in self.specs}):
            execute_spec(RunSpec.make(bench, "single", size="test", cfg=cfg))

    def profile_subset(self) -> Optional[List[int]]:
        """All units at test size; at bench size the four G0 units
        other than dynamic MG."""
        if not self.bench_size:
            return None
        return [i for i, (suite, s) in enumerate(zip(self.suites, self.specs))
                if s.config == "G0" and (suite, s.bench) != ("dynamic", "mg")]

    def run_pass(self, tr: Tracer, work: Path, clock=None,
                 subset: Optional[List[int]] = None) -> PassResult:
        """The static sweep, then the dynamic sweep, through one
        pipeline; then the figures."""
        chosen = range(len(self.specs)) if subset is None else subset
        runs: Dict[int, BenchRun] = {}
        gains: Dict[str, float] = {}
        with tr.span("pass"):
            telemetry = Telemetry(root=work / "telemetry")
            pipe = ExecutionPipeline(
                transport=SpanTransport(tr) if tr.enabled
                else SerialTransport(),
                journal=LapJournal(work / "journal", tr, clock),
                memo=MemoStore(work / "memo"), telemetry=telemetry)
            for suite in ("static", "dynamic"):
                part = [i for i in chosen if self.suites[i] == suite]
                with tr.span("harness.plan"):
                    plan = SweepPlan([self.specs[i] for i in part])
                with tr.span("harness.pipeline"):
                    runs.update(zip(part, pipe.run_plan(plan)))
                lap(tr, clock, LAP_GAP_S)
            telemetry.close()
            if subset is None:
                with tr.span("harness.figures"):
                    gains = self.figures([runs[i] for i in chosen])
        lap(tr, clock)
        return PassResult(
            units={self.ids[i]: (run.cycles, output_digest(run.result.store,
                                                      run.result.output))
                   for i, run in runs.items()},
            results=[(mode_env(self.specs[i])[2], run.result)
                     for i, run in runs.items()],
            attempted=len(runs), gains=gains)

    def figures(self, runs) -> Dict[str, float]:
        """The tables and renders behind Fig 2-5, and the headline
        gains with their distance to the paper's."""
        gains: Dict[str, float] = {}
        for suite, slip, base in (
                ("static", ("G0", "L1"), ("single", "double")),
                ("dynamic", ("G0",), ("single",))):
            table: Dict[str, Dict[str, BenchRun]] = {}
            for tag, spec, run in zip(self.suites, self.specs, runs):
                if tag == suite:
                    table.setdefault(spec.bench, {})[spec.config] = run
            rendered = (render_speedups(table), render_breakdowns(table),
                        render_classification(table, configs=slip))
            if not all(rendered):
                raise RuntimeError(f"{suite}: an exhibit rendered empty")
            pct = {b: (g - 1.0) * 100.0 for b, g in summary_gains(
                table, slip_configs=slip, base_configs=base).items()}
            gains[f"gain.{suite}_avg"] = sum(pct.values()) / len(pct) / 100.0
            if self.bench_size:
                paper = PAPER_GAIN_PCT[suite]
                gains[f"paper_gap_pts.{suite}"] = (
                    sum(pct[b] - paper[b] for b in paper) / len(paper))
        return gains


def dense_source(n: int, trips: int, a, b, c, d, e, f,
                 parallel: bool = True) -> str:
    """A compute-bound SlipC loop: ``n`` iterations, each a private
    scalar recurrence of ``trips`` steps writing one shared element."""
    pragma = "#pragma omp for" if parallel else ""
    body = f"""
        {pragma}
        for (i = 0; i < {n}; i = i + 1) {{
            int k;  double x;  double y;
            x = {a!r} + i * {b!r};
            y = {c!r};
            k = 0;
            while (k < {trips}) {{
                x = min(max(x * {d!r} + y, -{e!r}), {e!r});
                y = fabs(y - x * {f!r}) * 0.5 + 0.125;
                k = k + 1;
            }}
            out[i] = x + y;
        }}"""
    if parallel:
        return (f"double out[{n}];\nint i;\nvoid main() {{\n"
                f"    #pragma omp parallel\n    {{{body}\n    }}\n}}\n")
    return f"double out[{n}];\nvoid main() {{\n    int i;{body}\n}}\n"


def dense_reference(n: int, trips: int, a, b, c, d, e, f) -> np.ndarray:
    """The same arithmetic in NumPy, one lane per loop iteration."""
    x = a + np.arange(n, dtype=float) * b
    y = np.full(n, c)
    for _ in range(trips):
        x = np.minimum(np.maximum(x * d + y, -e), e)
        y = np.abs(y - x * f) * 0.5 + 0.125
    return x + y


def dense_constants(rng: random.Random) -> tuple:
    return (rng.uniform(0.5, 1.5), rng.uniform(0.01, 0.02),
            rng.uniform(0.1, 0.9), rng.uniform(1.01, 1.2),
            rng.uniform(2.0, 4.0), rng.uniform(0.3, 0.7))


class VmDense(Workload):
    """One seed-made dense program run as single, double and
    slipstream(G0) on 16 CMPs, and once on the functional runner."""

    ITERATIONS = 64
    BASE_TRIPS = 30000          # about 3.4 s a pass on a 2-core sandbox

    def __init__(self, seed: int, quick: bool = False):
        rng = random.Random(seed)
        base = self.BASE_TRIPS // 20 if quick else self.BASE_TRIPS
        trips = round(base * rng.uniform(0.98, 1.02))
        self.args = (self.ITERATIONS, trips) + dense_constants(rng)
        self.source = dense_source(*self.args)
        self.cfg = PAPER_MACHINE
        self.image = None
        self.want: Optional[np.ndarray] = None
        slip = RuntimeEnv(slipstream=SLIP_CONFIGS["G0"], slipstream_set=True)
        self.modes = (("single", "single", None), ("double", "double", None),
                      ("G0", "slipstream", slip))
        self.units_per_pass = len(self.modes) + 1

    def sources(self) -> List[str]:
        return [self.source]

    def prepare(self) -> None:
        self.image = compile_source(self.source)

    def warm(self) -> None:
        self.prepare()
        self.want = dense_reference(*self.args)
        small = (self.ITERATIONS, max(1, self.args[1] // 50)) + self.args[2:]
        run_program(compile_source(dense_source(*small)), cfg=self.cfg)

    def run_pass(self, tr: Tracer, work: Path, clock=None,
                 subset=None) -> PassResult:
        units: Dict[str, Tuple[float, str]] = {}
        stores, results, errors = {}, [], []
        with tr.span("pass"):
            for config, mode, env in self.modes:
                uid = f"dense/{config}"
                with tr.span("unit", unit=uid):
                    result = simulate(tr, self.image, self.cfg, mode, env,
                                      kind=mode)
                stores[uid] = (result.cycles, result.store, result.output)
                results.append((mode, result))
                lap(tr, clock, LAP_GAP_S)
            uid = "dense/functional"
            with tr.span("unit", unit=uid):
                with tr.span("interp.functional_pass"):
                    runner = FunctionalRunner(self.image).run()
            stores[uid] = (0.0, runner.store, runner.output)
        lap(tr, clock)
        for uid, (cycles, store, output) in stores.items():
            self.check(uid, store, errors)
            units[uid] = (cycles, output_digest(store, output))
        return PassResult(units=units, results=results,
                          attempted=len(units), errors=errors)

    def check(self, uid: str, store, errors: List[str]) -> None:
        got = np.asarray(store.array("out"), dtype=float)
        if not np.array_equal(got, self.want):
            errors.append(f"{uid}: out[] differs from the reference by "
                          f"{np.max(np.abs(got - self.want)):g}")


class HarnessRoundtrip(Workload):
    """Distinct tiny units through every way the harness stores and
    moves a result.  Phases of one pass:

    publish  serial, journal + memo + live telemetry, everything cold
    resume   fresh pipeline over the publish journal, ``REPLAYS`` times
    memo     fresh journal over the warm memo store, ``REPLAYS`` times
    spool    ``DirQueueTransport`` cold, the driver executing every unit
    pool     ``PoolTransport(jobs=min(2, nproc))`` cold
    """

    UNITS = 120
    #: Ten replays of each kind put the read path at about a fifth of
    #: the pass, so that a slower replay moves ``wall_s`` visibly.
    REPLAYS = 10

    def __init__(self, seed: int, quick: bool = False,
                 units: Optional[int] = None):
        rng = random.Random(seed)
        n_sets = (units or (24 if quick else self.UNITS)) // 2
        n_cg = max(1, n_sets // 5)
        cfg = PAPER_MACHINE.with_(n_cmps=4)
        # One unit in five is a cg (about 22 ms, barriers and locks),
        # the rest ep (about 10 ms): small enough that two or three
        # passes fit in a run, distinct so that every content key differs.
        ep = rng.sample([dict(n=n, steps=s) for n in range(48, 96)
                         for s in range(2, 5)], n_sets - n_cg)
        cg = rng.sample([dict(n=n, nnz=z, iters=1) for n in range(24, 48)
                         for z in range(2, 4)], n_cg)
        params = [("ep", p) for p in ep] + [("cg", p) for p in cg]
        rng.shuffle(params)
        self.specs = [RunSpec.make(bench, config, size="test", params=p,
                                   cfg=cfg)
                      for bench, p in params for config in ("single", "G0")]
        self.units_per_pass = len(self.specs)
        self.jobs = min(2, os.cpu_count() or 1)

    def sources(self) -> List[str]:
        return sources_of(self.specs)

    def prepare(self) -> None:
        compile_kernels(self.specs)
        SweepPlan(self.specs)

    def warm(self) -> None:
        self.prepare()
        execute_spec(self.specs[0])

    def phase(self, tr: Tracer, name: str, pipe: ExecutionPipeline,
              counter: str, want: Optional[List[float]] = None,
              errors: Optional[List[str]] = None) -> tuple:
        """One sweep of every unit through ``pipe``: (wall, runs).
        All units must be counted under ``counter`` and merge to the
        cycles in ``want``."""
        n = len(self.specs)
        t0 = time.perf_counter()
        with tr.span("harness." + name):
            runs = pipe.run(self.specs)
        wall = time.perf_counter() - t0
        if errors is not None:
            if want is not None and [r.cycles for r in runs] != want:
                errors.append(f"{name}: merged cycles differ from publish")
            if pipe.counters.get(counter) != n:
                errors.append(f"{name}: {pipe.counters.get(counter)} of "
                              f"{n} units counted as {counter}")
        return wall, runs

    def publish(self, tr: Tracer, work: Path, live: bool = True,
                errors: Optional[List[str]] = None, clock=None) -> tuple:
        """The cold write path: (wall, runs)."""
        telemetry = (Telemetry(root=work / "telemetry") if live
                     else NULL_TELEMETRY)
        out = self.phase(tr, "publish", ExecutionPipeline(
            journal=LapJournal(work / "journal", tr, clock),
            memo=MemoStore(work / "memo"), telemetry=telemetry),
            "unit.executed", errors=errors)
        telemetry.close()
        return out

    def replay(self, tr: Tracer, work: Path, replays: int, tag: str = "r",
               want: Optional[List[float]] = None,
               errors: Optional[List[str]] = None) -> tuple:
        """The read path over what ``publish`` left in ``work``: walls
        of the resume sweeps, walls of the memo sweeps, memo hit share."""
        resume, memo = [], []
        hits = lookups = 0
        for k in range(replays):
            resume.append(self.phase(tr, "resume", ExecutionPipeline(
                journal=CheckpointJournal(work / "journal")),
                "unit.resumed", want, errors)[0])
            pipe = ExecutionPipeline(
                journal=CheckpointJournal(work / f"journal-{tag}{k}"),
                memo=MemoStore(work / "memo"))
            memo.append(self.phase(tr, "memo", pipe, "memo.hit",
                                   want, errors)[0])
            hits += pipe.counters.get("memo.hit")
            lookups += (pipe.counters.get("memo.hit")
                        + pipe.counters.get("memo.miss"))
        return resume, memo, hits / lookups

    def run_pass(self, tr: Tracer, work: Path, clock=None,
                 subset=None) -> PassResult:
        n = len(self.specs)
        errors: List[str] = []
        with tr.span("pass"):
            publish_s, published = self.publish(tr, work, errors=errors,
                                                clock=clock)
            want = [r.cycles for r in published]
            lap(tr, clock)
            resume, memo, hit_frac = self.replay(
                tr, work, self.REPLAYS, want=want, errors=errors)
            lap(tr, clock)
            spool_s, spooled = self.phase(tr, "spool", ExecutionPipeline(
                transport=DirQueueTransport(work / "spool")),
                "unit.executed", want, errors)
            lap(tr, clock)
            pool_s, _ = self.phase(tr, "pool", ExecutionPipeline(
                transport=PoolTransport(jobs=self.jobs)),
                "unit.executed", want, errors)
        lap(tr, clock)

        def overhead_ms(wall, runs):
            return (wall - sum(r.timing["total_s"] for r in runs)) / n * 1e3

        phases = {
            "publish_overhead_ms": overhead_ms(publish_s, published),
            "resume_ms": statistics.median(resume) / n * 1e3,
            "memo_ms": statistics.median(memo) / n * 1e3,
            "memo_hit_frac": hit_frac,
            # the stages execute_spec timed inside the publish phase
            "lookup_s": sum(r.timing["compile_s"] for r in published),
            "sim_s": sum(r.timing["sim_s"] for r in published),
            "verify_s": sum(r.timing["verify_s"] for r in published),
            "spool_overhead_ms": overhead_ms(spool_s, spooled),
            "pool_s": pool_s,
        }
        return PassResult(
            units={str(s): (run.cycles, output_digest(run.result.store,
                                                      run.result.output))
                   for s, run in zip(self.specs, published)},
            results=[(mode_env(s)[2], run.result)
                     for s, run in zip(self.specs, published)],
            attempted=n * (3 + 2 * self.REPLAYS), errors=errors,
            phases=phases)


def make_workload(name: str, seed: int, quick: bool = False):
    if name in EXHIBITS:
        return Exhibits(name, seed)
    if name == "vm_dense":
        return VmDense(seed, quick)
    if name == "harness_roundtrip":
        return HarnessRoundtrip(seed, quick)
    raise SystemExit(f"unknown workload {name!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
