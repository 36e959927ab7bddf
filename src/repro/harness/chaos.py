"""Chaos harness: seeded fault matrices, the output oracle, reports.

This is the adversarial proof of the paper's correctness claim: a
matrix of seeded :class:`~repro.faults.FaultConfig` campaigns is run
over the mini-NPB kernels, and every faulted run's R-stream results are
checked against a fault-free serial reference execution of the same
compiled image (the **output oracle**).  A-stream corruption may cost
recovery cycles but must never change program output -- a scenario can
end "clean" or "recovered", never "wrong-output" or "hang".

The reference chain has two links: faulted runs must reproduce a
fault-free machine run of the same spec (to within reduction-order
ULPs -- see the oracle section below), and that baseline is anchored
to an independent serial :class:`~repro.interp.FunctionalRunner` pass.
Both references are memoized and compiled through the content-
addressed compile cache, so a 30-scenario matrix pays for at most a
handful of reference executions.

Everything here is deterministic: the same ``(benchmarks, seeds,
classes)`` arguments build the same spec list, and each spec's
injection schedule derives only from its config seed -- a chaos matrix
can be regression-gated exactly like cycle counts.

The second half of this module is the **harness** chaos matrix
(``repro chaos --harness``, :func:`run_harness_chaos`): the same
adversarial discipline pointed at the execution pipeline itself.
Seeded :class:`~repro.harness.hazards.HazardConfig` campaigns corrupt
published pickles, fail publishes with ENOSPC/EIO, plant stale claims,
skew lease clocks and kill workers, across the serial / pool / spool
transports -- and every scenario must still merge cycles bit-identical
to a hazard-free sweep, with the telemetry event log validating and
every anomaly explained by a ``hazard.injected`` record.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config.machine import MachineConfig, PAPER_MACHINE
from ..faults import CLASS_KINDS, FAULT_CLASSES, FaultConfig
from ..interp.funcrunner import FunctionalRunner
from ..npb import REGISTRY
from ..obs.telemetry import Telemetry, read_events, validate_events
from . import hazards
from .checkpoint import CheckpointJournal, MemoStore
from .jobs import RunSpec, execute_spec
from .pipeline import ExecutionPipeline
from .runner import BenchRun
from .transport import (DirQueueTransport, PoolTransport, SerialTransport,
                        telemetry_area)

__all__ = ["CHAOS_BENCHMARKS", "SCENARIO_CLASS_SETS", "ChaosOutcome",
           "ChaosReport", "chaos_specs", "run_chaos", "oracle_check",
           "render_chaos",
           "HARNESS_TRANSPORTS", "HARNESS_CLASS_SETS",
           "HarnessChaosOutcome", "HarnessChaosReport",
           "run_harness_chaos", "render_harness_chaos"]

#: Default kernels of the chaos matrix: CG and MG exercise the dynamic-
#: scheduling mailbox, LU the static path.
CHAOS_BENCHMARKS = ("cg", "lu", "mg")

#: One scenario per fault class plus an everything-armed scenario.
SCENARIO_CLASS_SETS: Tuple[Tuple[str, ...], ...] = (
    ("vm",), ("channel",), ("kill",), ("net",), FAULT_CLASSES)

#: Watchdog budget for chaos runs.  Test-size runs finish well under
#: 5e5 cycles, so a 5e6 ceiling converts any injected hang into a
#: structured SimDeadlockError in bounded wall time.
DEFAULT_TIMEOUT_CYCLES = 5e6

#: Oracle tolerances: the machine's reductions associate differently
#: from the serial reference, so allow slightly more slack than the
#: NPB verifiers' 1e-9 (both paths already pass those).
_ORACLE_RTOL = 1e-8
_ORACLE_ATOL = 1e-10


def chaos_specs(benchmarks: Iterable[str] = CHAOS_BENCHMARKS,
                seeds: int = 2, base_seed: int = 0,
                classes: Optional[Sequence[Sequence[str]]] = None,
                size: str = "test",
                cfg: MachineConfig = PAPER_MACHINE,
                timeout_cycles: float = DEFAULT_TIMEOUT_CYCLES
                ) -> List[RunSpec]:
    """Build the seeded fault matrix: every benchmark x ``seeds`` seeds
    x scenario class set, all under the G0 slipstream configuration.

    Scenarios arming the ``channel`` class run with dynamic scheduling
    (where supported) so the mailbox actually carries traffic for
    ``mailbox_stale`` to corrupt.
    """
    class_sets = [tuple(c) for c in (classes or SCENARIO_CLASS_SETS)]
    specs: List[RunSpec] = []
    for bench in benchmarks:
        for s in range(seeds):
            for j, cls in enumerate(class_sets):
                seed = base_seed * 10_000 + s * 100 + j
                schedule = (("dynamic", 4)
                            if "channel" in cls and bench != "lu"
                            else None)
                specs.append(RunSpec.make(
                    bench, "G0", size=size, schedule=schedule, cfg=cfg,
                    verify=True, faults=FaultConfig(seed, classes=cls),
                    timeout_cycles=timeout_cycles, capture_errors=True))
    return specs


# -- output oracle ----------------------------------------------------------
#
# The oracle is a two-link chain:
#
#   faulted machine run  ~=  fault-free machine run of the same spec
#   fault-free machine run  ~=  serial FunctionalRunner reference
#
# The first link compares *every* global (including scratch state like
# LU's pipeline flags, which a serial reference legitimately leaves at
# different values) and all output rows.  It is tolerance-based, not
# bit-exact, for one reason only: the runtime merges OpenMP reduction
# partials in arrival order, and OpenMP leaves that order unspecified
# -- so a legal timing perturbation (even pure network jitter) may
# re-associate a reduction and drift the result a few ULPs.  Any
# genuine value corruption leaking out of the A-stream is orders of
# magnitude beyond these tolerances.  The second link anchors the
# chain to an independent serial execution of the same compiled image.

#: baseline spec.key -> (global arrays, output rows) of the fault-free
#: machine run.  Compilation inside goes through the content-addressed
#: compile cache, so this memo only saves re-execution.
_BASE_CACHE: Dict[Tuple, Tuple] = {}

#: (bench, size, params) -> serial-anchor verdict (None = ok).
_ANCHOR_CACHE: Dict[Tuple, Optional[str]] = {}


def _baseline(spec: RunSpec) -> Tuple:
    """Fault-free machine run of the same spec (memoized by identity)."""
    base = replace(spec, faults=None, timeout_cycles=None,
                   capture_errors=False)
    hit = _BASE_CACHE.get(base.key)
    if hit is None:
        result = execute_spec(base).result
        hit = _BASE_CACHE[base.key] = (
            list(result.store.arrays), list(result.output))
    return hit


def _serial_anchor(spec: RunSpec, base_output) -> Optional[str]:
    """Check the fault-free machine baseline against an independent
    serial FunctionalRunner pass of the same compiled image."""
    key = (spec.bench, spec.size, spec.params)
    if key not in _ANCHOR_CACHE:
        image = REGISTRY[spec.bench].compile(spec.size,
                                             **dict(spec.params))
        ref = FunctionalRunner(image).run()
        verdict = None
        if len(base_output) != len(ref.output):
            verdict = (f"serial anchor: output rows {len(base_output)}"
                       f" != reference {len(ref.output)}")
        else:
            for i, (got, want) in enumerate(zip(base_output, ref.output)):
                if len(got) != len(want) or not all(
                        _cell_close(a, b) for a, b in zip(got, want)):
                    verdict = (f"serial anchor: output row {i}: machine "
                               f"{tuple(got)!r} vs serial {tuple(want)!r}")
                    break
        _ANCHOR_CACHE[key] = verdict
    return _ANCHOR_CACHE[key]


def _cell_close(a, b) -> bool:
    """Output rows mix labels and numbers; floats get tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        return bool(np.isclose(a, b, rtol=_ORACLE_RTOL,
                               atol=_ORACLE_ATOL))
    return a == b


def oracle_check(spec: RunSpec, result) -> Optional[str]:
    """Compare a (possibly faulted) run's architectural results against
    the fault-free reference chain.  Returns a mismatch description, or
    None when the paper's invariant holds."""
    base_arrays, base_output = _baseline(spec)
    anchor = _serial_anchor(spec, base_output)
    if anchor is not None:
        return anchor
    for gidx, g in enumerate(result.store.globals):
        got = result.store.arrays[gidx]
        want = base_arrays[gidx]
        close = np.isclose(got, want, rtol=_ORACLE_RTOL,
                           atol=_ORACLE_ATOL, equal_nan=True)
        if not close.all():
            bad = int(np.argmax(~close))
            return (f"global {g.name!r}[{bad}]: got {got[bad]!r}, "
                    f"fault-free machine {want[bad]!r}")
    if len(result.output) != len(base_output):
        return (f"output row count: got {len(result.output)}, "
                f"fault-free machine {len(base_output)}")
    for i, (got, want) in enumerate(zip(result.output, base_output)):
        if len(got) != len(want) or not all(
                _cell_close(a, b) for a, b in zip(got, want)):
            return (f"output row {i}: got {tuple(got)!r}, "
                    f"fault-free machine {tuple(want)!r}")
    return None


# -- outcomes ---------------------------------------------------------------

@dataclass
class ChaosOutcome:
    """One scenario's verdict."""

    bench: str
    config: str
    seed: int
    classes: Tuple[str, ...]
    #: "clean" | "recovered" | "hang" | "wrong-output" | "crash"
    status: str
    oracle: str                       # "ok" | "skipped" | mismatch text
    recoveries: int = 0
    #: Barrier sites divergence was detected at (source-attributable
    #: via the image's site table; negative ids = end-of-region joins).
    recovery_sites: List[Optional[int]] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    cycles: float = float("nan")
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Did the paper's invariant hold for this scenario?"""
        return self.status in ("clean", "recovered")

    def to_json(self) -> dict:
        return {"bench": self.bench, "config": self.config,
                "seed": self.seed, "classes": list(self.classes),
                "status": self.status, "oracle": self.oracle,
                "recoveries": self.recoveries,
                "recovery_sites": self.recovery_sites,
                "injected": dict(self.injected),
                "cycles": None if self.cycles != self.cycles
                else self.cycles,
                "error": self.error}


@dataclass
class ChaosReport:
    """A whole matrix's outcomes plus harness-health notes."""

    outcomes: List[ChaosOutcome]
    events: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Zero hangs, zero wrong outputs, zero crashes."""
        return all(o.ok for o in self.outcomes)

    @property
    def total_recoveries(self) -> int:
        return sum(o.recoveries for o in self.outcomes)

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return counts

    def class_recovery(self) -> Dict[str, bool]:
        """Per fault class: did any scenario arming it both fire one of
        its kinds and trigger at least one recovery?  (``net`` jitter is
        protocol-legal and can only co-occur with recoveries via the
        all-classes scenarios -- see DESIGN.md §7.)"""
        cov = {}
        for cls in FAULT_CLASSES:
            kinds = set(CLASS_KINDS[cls])
            cov[cls] = any(
                cls in o.classes and o.recoveries > 0
                and any(k in kinds for k in o.injected)
                for o in self.outcomes)
        return cov

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "summary": {"scenarios": len(self.outcomes),
                            "statuses": self.status_counts(),
                            "recoveries": self.total_recoveries,
                            "class_recovery": self.class_recovery()},
                "events": list(self.events),
                "scenarios": [o.to_json() for o in self.outcomes]}


def _classify(spec: RunSpec, run: BenchRun) -> ChaosOutcome:
    seed = spec.faults.seed if spec.faults is not None else 0
    classes = spec.faults.classes if spec.faults is not None else ()
    if run.error is not None:
        return ChaosOutcome(spec.bench, spec.config, seed, classes,
                            status=run.error_kind or "crash",
                            oracle="skipped", error=run.error)
    result = run.result
    mismatch = oracle_check(spec, result)
    injected: Dict[str, int] = {}
    if result.faults is not None:
        for f in result.faults["fired"]:
            injected[f["kind"]] = injected.get(f["kind"], 0) + 1
    if mismatch is not None:
        status, oracle = "wrong-output", mismatch
    else:
        status = "recovered" if result.recoveries else "clean"
        oracle = "ok"
    return ChaosOutcome(
        spec.bench, spec.config, seed, classes, status=status,
        oracle=oracle, recoveries=len(result.recoveries),
        recovery_sites=[site for _, _, site in result.recoveries],
        injected=injected, cycles=result.cycles)


def run_chaos(specs: Sequence[RunSpec],
              context=None) -> ChaosReport:
    """Execute a fault matrix and classify every scenario.

    ``context`` is an :class:`~repro.harness.pipeline.
    ExecutionPipeline` with any transport/journal/memo combination;
    default serial pipeline."""
    specs = list(specs)
    context = context or ExecutionPipeline()
    runs = context.run(specs)
    return ChaosReport(
        outcomes=[_classify(s, r) for s, r in zip(specs, runs)],
        events=list(context.events))


def render_chaos(report: ChaosReport, title: str = "chaos matrix") -> str:
    """Human-readable scenario table plus the summary verdict."""
    lines = [title, "=" * len(title),
             f"{'scenario':<22} {'classes':<24} {'fired':>5} "
             f"{'recov':>5}  status"]
    for o in report.outcomes:
        name = f"{o.bench}/{o.config} seed={o.seed}"
        fired = sum(o.injected.values())
        status = o.status if o.ok else f"** {o.status} **"
        lines.append(f"{name:<22} {','.join(o.classes):<24} "
                     f"{fired:>5} {o.recoveries:>5}  {status}")
        if o.error:
            lines.append(f"    {o.error}")
        elif o.oracle not in ("ok", "skipped"):
            lines.append(f"    oracle: {o.oracle}")
    counts = ", ".join(f"{v} {k}" for k, v in
                       sorted(report.status_counts().items()))
    lines.append(f"{len(report.outcomes)} scenarios: {counts}; "
                 f"{report.total_recoveries} recoveries")
    cov = report.class_recovery()
    lines.append("recovery coverage: " + ", ".join(
        f"{c}={'yes' if ok else 'no'}" for c, ok in sorted(cov.items())))
    for ev in report.events:
        lines.append(f"harness: {ev}")
    lines.append("oracle verdict: "
                 + ("OK -- faults never changed program output"
                    if report.ok else "FAILED"))
    return "\n".join(lines)


# -- harness chaos matrix (``repro chaos --harness``) ------------------------
#
# The pipeline-side mirror of the fault matrix above.  Each scenario
# arms a seeded hazard campaign (:mod:`repro.harness.hazards`) over one
# transport, runs the same small sweep twice -- a **cold** leg with
# hazards firing (corrupted publishes, ENOSPC, stale claims, killed
# workers), then a disarmed **resume** leg over the surviving
# journal/memo/spool state -- and demands:
#
# * both legs' merged cycle vectors are *bit-identical* to a
#   hazard-free serial baseline (zero silent data loss, zero wrong
#   results);
# * the shared telemetry event log validates (every started unit
#   reaches a terminal, every abandoned execution is explained);
# * every driver-side injection shows up as a ``hazard.injected``
#   event (each observed anomaly is explained by the log).
#
# The resume leg is what proves corrupt-entry recovery: entries the
# cold leg corrupted must be quarantined into ``corrupt/`` and
# recomputed, never crash the driver or leak wrong bytes into a merge.

HARNESS_TRANSPORTS: Tuple[str, ...] = ("serial", "pool", "spool")

#: Hazard-class scenario sets per transport: only the classes whose
#: injection sites the transport actually has (a serial sweep holds no
#: leases and kills no workers), plus an everything-armed scenario on
#: the spool -- the transport with the most moving parts.
HARNESS_CLASS_SETS: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "serial": (("corrupt",), ("disk",)),
    "pool": (("corrupt",), ("disk",), ("kill",)),
    "spool": (("corrupt",), ("disk",), ("lease",), ("kill",),
              hazards.HAZARD_CLASSES),
}


@dataclass
class HarnessChaosOutcome:
    """One harness-chaos scenario's verdict."""

    transport: str
    classes: Tuple[str, ...]
    seed: int
    #: hazard kind -> times applied (from ``hazard.injected`` events).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Both legs merged bit-identical to the hazard-free baseline?
    cycles_identical: bool = False
    #: Units the resume leg had to deliver again (re-executions plus
    #: spool harvests) -- nonzero whenever corruption landed.
    reexecuted: int = 0
    quarantined: int = 0
    telemetry_problems: List[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.cycles_identical
                and not self.telemetry_problems)

    def to_json(self) -> dict:
        return {"transport": self.transport,
                "classes": list(self.classes), "seed": self.seed,
                "injected": dict(self.injected),
                "cycles_identical": self.cycles_identical,
                "reexecuted": self.reexecuted,
                "quarantined": self.quarantined,
                "telemetry_problems": list(self.telemetry_problems),
                "error": self.error}


@dataclass
class HarnessChaosReport:
    """The whole harness-chaos matrix's outcomes."""

    baseline: List[float]
    outcomes: List[HarnessChaosOutcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def total_injected(self) -> int:
        return sum(sum(o.injected.values()) for o in self.outcomes)

    @property
    def total_quarantined(self) -> int:
        return sum(o.quarantined for o in self.outcomes)

    def class_injection(self) -> Dict[str, bool]:
        """Per hazard class: did any scenario arming it actually apply
        one of its kinds?  (Coverage visibility -- a seed whose draws
        all land past the sweep's opportunity count injects nothing.)"""
        cov = {}
        for cls in hazards.HAZARD_CLASSES:
            kinds = set(hazards.HAZARD_CLASS_KINDS[cls])
            cov[cls] = any(cls in o.classes
                           and any(k in kinds for k in o.injected)
                           for o in self.outcomes)
        return cov

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "summary": {"scenarios": len(self.outcomes),
                            "injected": self.total_injected,
                            "quarantined": self.total_quarantined,
                            "class_injection": self.class_injection()},
                "baseline_cycles": list(self.baseline),
                "scenarios": [o.to_json() for o in self.outcomes]}


def _cycles_equal(got: Sequence[float], want: Sequence[float]) -> bool:
    """Bit-identical cycle vectors (NaN -- a quarantined placeholder --
    never compares equal, so a lost unit always fails the scenario)."""
    return (len(got) == len(want)
            and all(a == b for a, b in zip(got, want)))


def _build_harness_pipeline(transport: str, sdir: Path, spool_dir: Path,
                            jobs: int, lease_s: float,
                            tel) -> ExecutionPipeline:
    if transport == "serial":
        t = SerialTransport()
    elif transport == "pool":
        t = PoolTransport(jobs=jobs)
    elif transport == "spool":
        t = DirQueueTransport(spool_dir, lease_s=lease_s, poll_s=0.02)
    else:
        raise ValueError(f"unknown transport {transport!r}; known: "
                         f"{HARNESS_TRANSPORTS}")
    return ExecutionPipeline(transport=t,
                             journal=CheckpointJournal(sdir / "journal"),
                             memo=MemoStore(sdir / "memo"),
                             telemetry=tel)


def _spawn_spool_worker(spool_dir: Path, lease_s: float):
    """An external ``repro worker`` attached to the scenario spool; it
    inherits ``REPRO_HAZARDS`` from the environment, so it arms itself
    worker-side (kill hazards may SIGKILL/SIGTERM it mid-sweep)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", str(spool_dir),
         "--wait", "--poll", "0.05", "--lease", str(lease_s)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _stop_worker(proc) -> None:
    """SIGTERM (graceful drain), escalating to SIGKILL only if the
    worker fails to exit -- which would itself be a drain bug."""
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:    # pragma: no cover - drain bug
        proc.kill()
        proc.wait(timeout=15)


def _run_harness_scenario(transport: str, cls: Tuple[str, ...], seed: int,
                          specs: Sequence[RunSpec],
                          baseline: Sequence[float], workdir: Path,
                          rate: int, jobs: int, lease_s: float,
                          spawn_worker: bool) -> HarnessChaosOutcome:
    sdir = Path(workdir) / f"{transport}-{'+'.join(cls)}-s{seed}"
    spool_dir = sdir / "spool"
    tel_root = (telemetry_area(spool_dir) if transport == "spool"
                else sdir / "telemetry")
    config = hazards.HazardConfig(seed, classes=cls, rate=rate)
    outcome = HarnessChaosOutcome(transport=transport, classes=tuple(cls),
                                  seed=seed)
    proc = None
    try:
        # Leg A (cold): armed driver; subprocess workers and pool
        # children arm themselves worker-side from the environment.
        hazards.export_env(config, state_dir=sdir / "hazard-state",
                           telemetry_root=tel_root)
        tel = Telemetry(root=tel_root, role="driver")
        plan = hazards.arm(config, state_dir=sdir / "hazard-state",
                           telemetry=tel)
        try:
            if transport == "spool" and spawn_worker:
                proc = _spawn_spool_worker(spool_dir, lease_s)
                if "kill" in cls:
                    # Head start: the worker must attach (and start
                    # hitting kill boundaries) before the driver can
                    # drain the spool inline, or the scenario is
                    # vacuously kill-free.
                    time.sleep(1.0)
            pipe = _build_harness_pipeline(transport, sdir, spool_dir,
                                           jobs, lease_s, tel)
            cold = [r.cycles for r in pipe.run(specs)]
            outcome.quarantined += len(pipe.quarantined_units)
        finally:
            hazards.disarm()
            hazards.clear_env()
            if proc is not None:
                _stop_worker(proc)
            tel.close()
        # Leg B (resume, disarmed): same journal/memo/spool.  Every
        # entry the cold leg corrupted must quarantine as a logged
        # miss and recompute to the identical result.
        tel = Telemetry(root=tel_root, role="driver")
        try:
            pipe = _build_harness_pipeline(transport, sdir, spool_dir,
                                           jobs, lease_s, tel)
            resumed = [r.cycles for r in pipe.run(specs)]
            outcome.reexecuted = int(pipe.counters.get("unit.executed"))
            outcome.quarantined += len(pipe.quarantined_units)
        finally:
            tel.close()
        outcome.cycles_identical = (_cycles_equal(cold, baseline)
                                    and _cycles_equal(resumed, baseline))
        if not outcome.cycles_identical:
            outcome.error = (f"cycles diverged: baseline {list(baseline)}"
                             f" vs cold {cold} vs resumed {resumed}")
        problems: List[str] = []
        events = read_events(tel_root, problems)
        problems.extend(validate_events(events))
        for ev in events:
            if ev.get("event") == "hazard.injected":
                kind = str(ev.get("kind"))
                outcome.injected[kind] = outcome.injected.get(kind, 0) + 1
        if sum(outcome.injected.values()) < len(plan.injected):
            problems.append(
                f"{len(plan.injected)} driver-side injection(s) but only "
                f"{sum(outcome.injected.values())} hazard.injected "
                f"event(s) in the log")
        outcome.telemetry_problems = problems
    except Exception as e:   # noqa: BLE001 - the matrix reports, not dies
        outcome.error = f"{type(e).__name__}: {e}"
    finally:
        hazards.disarm()
        hazards.clear_env()
        if proc is not None:
            _stop_worker(proc)
    return outcome


def run_harness_chaos(workdir,
                      benchmarks: Sequence[str] = ("cg",),
                      configs: Sequence[str] = ("single", "G0"),
                      size: str = "test",
                      cfg: MachineConfig = PAPER_MACHINE,
                      transports: Sequence[str] = HARNESS_TRANSPORTS,
                      classes: Optional[Sequence[Sequence[str]]] = None,
                      base_seed: int = 0, rate: int = 2, jobs: int = 2,
                      lease_s: float = 2.0,
                      spawn_worker: bool = True) -> HarnessChaosReport:
    """Run the seeded hazard matrix over the execution pipeline.

    Per ``(transport, class set)`` scenario: a cold hazardous sweep,
    then a disarmed resume sweep over the surviving state, both checked
    bit-identical against one hazard-free serial baseline (see the
    section comment).  ``classes`` overrides the per-transport default
    scenario sets (:data:`HARNESS_CLASS_SETS`); ``rate`` is injections
    scheduled per hazard kind -- it is also the kill-token budget per
    kill kind, sized so a kill-armed fleet always runs out of kills
    before a unit crosses the poison threshold.
    """
    workdir = Path(workdir)
    specs = [RunSpec.make(b, c, size=size, cfg=cfg)
             for b in benchmarks for c in configs]
    if hazards.current() is not None:
        raise RuntimeError(
            "refusing to measure the baseline with hazards armed")
    baseline = [r.cycles for r in ExecutionPipeline().run(specs)]
    outcomes: List[HarnessChaosOutcome] = []
    for ti, transport in enumerate(transports):
        if transport not in HARNESS_CLASS_SETS:
            raise ValueError(f"unknown transport {transport!r}; known: "
                             f"{HARNESS_TRANSPORTS}")
        sets = ([tuple(c) for c in classes] if classes is not None
                else HARNESS_CLASS_SETS[transport])
        for ci, cls in enumerate(sets):
            seed = base_seed * 10_000 + ti * 100 + ci
            outcomes.append(_run_harness_scenario(
                transport, tuple(cls), seed, specs, baseline, workdir,
                rate, jobs, lease_s, spawn_worker))
    return HarnessChaosReport(baseline=list(baseline), outcomes=outcomes)


def render_harness_chaos(report: HarnessChaosReport,
                         title: str = "harness chaos matrix") -> str:
    """Human-readable scenario table plus the summary verdict."""
    lines = [title, "=" * len(title),
             f"{'scenario':<18} {'classes':<28} {'fired':>5} "
             f"{'re-ex':>5} {'quar':>4}  verdict"]
    for o in report.outcomes:
        name = f"{o.transport} seed={o.seed}"
        fired = sum(o.injected.values())
        verdict = "ok" if o.ok else "** FAILED **"
        lines.append(f"{name:<18} {','.join(o.classes):<28} {fired:>5} "
                     f"{o.reexecuted:>5} {o.quarantined:>4}  {verdict}")
        if o.error:
            lines.append(f"    {o.error[:240]}")
        for p in o.telemetry_problems[:4]:
            lines.append(f"    telemetry: {p}")
    cov = report.class_injection()
    lines.append(f"{len(report.outcomes)} scenario(s): "
                 f"{report.total_injected} hazard(s) injected, "
                 f"{report.total_quarantined} unit(s) quarantined")
    lines.append("injection coverage: " + ", ".join(
        f"{c}={'yes' if hit else 'no'}" for c, hit in sorted(cov.items())))
    lines.append("harness verdict: "
                 + ("OK -- every hazardous sweep merged bit-identical to "
                    "the hazard-free baseline"
                    if report.ok else "FAILED"))
    return "\n".join(lines)
