"""Work-unit layer: what one run *is*, and how a sweep shards and merges.

First stage of the execution pipeline (jobs -> transport -> checkpoint
-> merge).  This module owns the two identities everything downstream
keys on:

* :class:`RunSpec` -- a picklable, hashable description of one run
  (bench, config, size, schedule, parameter and machine overrides,
  fault campaign).  ``spec.key`` is the spec's *full* identity: two
  specs with equal keys must produce interchangeable results, so every
  field that can change a run's outcome or the way its failure is
  reported participates (including ``verify`` and ``capture_errors``).

* :class:`WorkUnit` / :class:`SweepPlan` -- a sweep sharded into
  content-keyed units.  The unit key extends the spec's by-value
  identity with the things the process environment contributes: a
  fingerprint of the simulator's own sources and the latched
  ``REPRO_HOTPATH`` tier set.  Cycle counts are a pure function of
  that triple, which is what lets the checkpoint journal and the
  run-result memo store treat a unit key as a full content address
  (same scheme as :mod:`repro.npb.cache` uses for compiled images).

The **bit-identical-merge contract** lives here: a transport may
complete units in any order, on any process or host, but
:meth:`SweepPlan.merge` reassembles results strictly in submission
order, so every downstream table is independent of scheduling.  The
contract is property-tested in isolation in ``tests/test_jobs.py``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from ..config.machine import MachineConfig, PAPER_MACHINE
from ..faults import FaultConfig
from ..hotpath import hotpath_tiers
from ..npb import REGISTRY
from ..runtime import SimDeadlockError, run_program
from .runner import BenchRun, _env_for, _mode_for

__all__ = ["RunSpec", "WorkUnit", "SweepPlan", "execute_spec",
           "failure_run", "quarantined_run", "code_fingerprint",
           "unit_key", "static_specs", "dynamic_specs"]


@dataclass(frozen=True)
class RunSpec:
    """One benchmark run, described by value.

    Everything here is hashable and picklable: the spec is both the job
    description shipped to transport workers and the merge key results
    are collated by.  ``params`` and ``machine_kw`` are stored as
    sorted item tuples (dicts are neither hashable nor order-canonical).
    """

    bench: str
    config: str                               # "single"|"double"|"G<n>"|"L<n>"
    size: str = "bench"
    schedule: Optional[Tuple[str, Optional[int]]] = None
    params: Tuple[Tuple[str, int], ...] = ()
    cfg: MachineConfig = PAPER_MACHINE
    verify: bool = True
    machine_kw: Tuple[Tuple[str, Any], ...] = ()
    #: Seeded fault campaign (chaos runs); the FaultPlan is rebuilt
    #: from this inside each worker, so schedules are identical for
    #: serial and distributed execution.
    faults: Optional[FaultConfig] = None
    #: Watchdog cycle budget (None = machine default).
    timeout_cycles: Optional[float] = None
    #: Capture failures as BenchRun.error instead of raising (chaos
    #: matrices must survive a hanging or wrong run and keep sweeping).
    capture_errors: bool = False

    @staticmethod
    def make(bench: str, config: str, size: str = "bench",
             schedule: Optional[Tuple[str, Optional[int]]] = None,
             params: Optional[Dict[str, int]] = None,
             cfg: MachineConfig = PAPER_MACHINE,
             verify: bool = True,
             faults: Optional[FaultConfig] = None,
             timeout_cycles: Optional[float] = None,
             capture_errors: bool = False, **machine_kw) -> "RunSpec":
        """Build a spec from the :func:`run_benchmark` argument shapes."""
        return RunSpec(
            bench=bench, config=config, size=size, schedule=schedule,
            params=tuple(sorted((params or {}).items())),
            cfg=cfg, verify=verify,
            machine_kw=tuple(sorted(machine_kw.items())),
            faults=faults, timeout_cycles=timeout_cycles,
            capture_errors=capture_errors)

    @property
    def key(self) -> Tuple:
        """Full by-value identity, used to merge and memoize results.

        Covers *every* field: ``verify`` decides whether a wrong result
        raises at all, and ``capture_errors`` decides whether a failure
        comes back as data or an exception -- results produced either
        way are not interchangeable, so both are part of the identity
        (two specs differing only there must not collide).
        """
        return (self.bench, self.config, self.size, self.schedule,
                self.params, self.cfg, self.machine_kw, self.faults,
                self.timeout_cycles, self.verify, self.capture_errors)

    def __str__(self) -> str:
        extra = f" {dict(self.params)}" if self.params else ""
        return f"{self.bench}/{self.config}({self.size}){extra}"


# -- content addressing ------------------------------------------------------

_code_fp: Optional[str] = None


def code_fingerprint() -> str:
    """Hex digest over every ``repro`` source file (memoized).

    The run-result memo store serves *simulated results* across
    process invocations, so its keys must miss on any change to the
    code that produces them -- not just the compiler (the compile
    cache's scope) but the engine, memory system, runtime and harness
    too.  Hashing the whole package is coarse but sound: an edit
    anywhere invalidates everything, and a fresh run repopulates the
    store in one sweep.
    """
    global _code_fp
    if _code_fp is None:
        h = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _code_fp = h.hexdigest()
    return _code_fp


def unit_key(spec: RunSpec) -> str:
    """Content address of one work unit's result.

    ``repr`` of a frozen dataclass tree (spec, nested MachineConfig /
    CacheConfig / FaultConfig, tuples) is canonical and deterministic,
    so it serves as the serialized identity; the code fingerprint and
    the latched hot-path tier set fold in everything else a simulated
    cycle count depends on.  Equal keys => bit-identical results, on
    any host, in any process.
    """
    h = hashlib.sha256()
    h.update(code_fingerprint().encode())
    h.update(",".join(sorted(hotpath_tiers())).encode())
    h.update(repr(spec).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class WorkUnit:
    """One shard of a sweep: a spec plus its submission slot and
    content key.  What transports dispatch and checkpoints journal."""

    index: int                   # submission position within the plan
    spec: RunSpec
    key: str                     # content address (:func:`unit_key`)

    def __str__(self) -> str:
        return f"unit[{self.index}] {self.spec} {self.key[:12]}"


class SweepPlan:
    """A spec matrix sharded into content-keyed work units.

    The plan is the keeper of the bit-identical-merge contract:
    results arrive keyed by unit key, in whatever order the transport
    completed them, and :meth:`merge` reassembles the submission-order
    list every consumer (suites, figures, regression gates) relies on.
    Identical specs shard to the same key, so a transport executes
    each distinct unit once and the merge fans the shared result back
    out to every submission slot.
    """

    def __init__(self, specs: Sequence[RunSpec]):
        self.specs: List[RunSpec] = list(specs)
        self.units: List[WorkUnit] = [
            WorkUnit(i, s, unit_key(s)) for i, s in enumerate(self.specs)]

    def distinct(self) -> List[WorkUnit]:
        """First unit of each content key, in submission order -- the
        work a transport actually has to execute."""
        seen = set()
        out = []
        for u in self.units:
            if u.key not in seen:
                seen.add(u.key)
                out.append(u)
        return out

    @property
    def keys(self) -> List[str]:
        """Distinct unit keys, in first-submission order."""
        return [u.key for u in self.distinct()]

    def merge(self, results: Mapping[str, BenchRun]) -> List[BenchRun]:
        """Reassemble transport results into submission order.

        ``results`` maps unit key -> finished run; a missing key means
        the transport lost a unit, which is always a harness bug (a
        lost executor's unit runs again, it is never dropped), so it
        raises instead of returning a short list.
        """
        missing = [u for u in self.units if u.key not in results]
        if missing:
            raise KeyError(
                f"merge is missing {len(missing)} of {len(self.units)} "
                f"unit result(s): {', '.join(str(u) for u in missing[:3])}"
                + ("..." if len(missing) > 3 else ""))
        return [results[u.key] for u in self.units]

    def __len__(self) -> int:
        return len(self.units)


# -- single-unit execution ---------------------------------------------------

def execute_spec(spec: RunSpec) -> BenchRun:
    """Run one spec to completion (compile, simulate, verify).

    This is the single execution path shared by every transport -- and
    by :func:`repro.harness.run_benchmark` -- so serial and distributed
    sweeps cannot drift apart.  Per-stage wall-clock timings are
    recorded on the returned run for the perf baseline.

    With ``spec.capture_errors``, failures (watchdog expiry, a wrong
    result, a crash) come back as ``BenchRun.error``/``error_kind``
    instead of raising, so a chaos sweep records the outcome and keeps
    going.
    """
    try:
        return _execute(spec)
    except Exception as e:                    # noqa: BLE001 - classified
        if not spec.capture_errors:
            raise
        if isinstance(e, SimDeadlockError):
            kind, msg = "hang", e.summary
        elif isinstance(e, AssertionError):
            kind, msg = "wrong-output", f"verification failed: {e}"
        else:
            kind, msg = "crash", f"{type(e).__name__}: {e}"
        return failure_run(spec, kind, msg)


def failure_run(spec: RunSpec, kind: str, msg: str) -> BenchRun:
    """A resultless :class:`BenchRun` carrying a classified failure --
    the shape every captured-error and quarantine path returns, so
    merges and tables stay total (``cycles`` reads as NaN)."""
    run = BenchRun(spec.bench, spec.config, None, {})
    run.error = msg
    run.error_kind = kind
    return run


def quarantined_run(spec: RunSpec, attempts: int) -> BenchRun:
    """The stand-in result for a poison unit.

    A unit whose execution *process* died ``attempts`` times in a row
    (a spool or pool worker SIGKILLed mid-unit) without ever
    publishing a result is quarantined rather than retried forever:
    the sweep completes, the merge carries this loud placeholder
    (``error_kind == "quarantined"``), and the CLI exits 5.  Never
    journaled as a real result by the memo store (``crash``-adjacent:
    a poison unit may be environmental and must stay retryable after
    the operator clears the quarantine).
    """
    return failure_run(
        spec, "quarantined",
        f"poison unit: {attempts} execution attempt(s) died without a "
        f"result; quarantined")


def _execute(spec: RunSpec) -> BenchRun:
    ks = REGISTRY[spec.bench]
    overrides = dict(spec.params)
    full_params = ks.params(spec.size, **overrides)
    run_kw: Dict[str, Any] = dict(spec.machine_kw)
    if spec.faults is not None:
        run_kw["faults"] = spec.faults
    if spec.timeout_cycles is not None:
        run_kw["max_cycles"] = spec.timeout_cycles
    t0 = time.perf_counter()
    image = ks.compile(spec.size, **overrides)
    t1 = time.perf_counter()
    result = run_program(image, cfg=spec.cfg, mode=_mode_for(spec.config),
                         env=_env_for(spec.config, spec.schedule),
                         **run_kw)
    t2 = time.perf_counter()
    if spec.verify:
        ks.verify(result.store, spec.size, **overrides)
    t3 = time.perf_counter()
    run = BenchRun(spec.bench, spec.config, result, full_params)
    run.timing = {"compile_s": t1 - t0, "sim_s": t2 - t1,
                  "verify_s": t3 - t2, "total_s": t3 - t0}
    return run


# -- suite spec builders (used by runner.py and the perf baseline) ----------

def static_specs(cfg: MachineConfig, size: str,
                 benchmarks: Iterable[str], configs: Iterable[str],
                 verify: bool = True, **machine_kw) -> List[RunSpec]:
    """Specs of the Figure-2/3 static-scheduling sweep, in suite order."""
    return [RunSpec.make(b, c, size=size, cfg=cfg, verify=verify,
                         **machine_kw)
            for b in benchmarks for c in configs]


def dynamic_specs(cfg: MachineConfig, size: str,
                  benchmarks: Iterable[str], configs: Iterable[str],
                  verify: bool = True, **machine_kw) -> List[RunSpec]:
    """Specs of the Figure-4/5 dynamic-scheduling sweep, in suite order."""
    from .runner import DYNAMIC_PARAMS, dynamic_chunk
    specs = []
    for b in benchmarks:
        chunk = dynamic_chunk(b, cfg, size)
        params = DYNAMIC_PARAMS.get(b) if size == "bench" else None
        for c in configs:
            specs.append(RunSpec.make(
                b, c, size=size, schedule=("dynamic", chunk),
                params=params, cfg=cfg, verify=verify, **machine_kw))
    return specs
