"""Experiment runner: executes mini-NPB benchmarks in the paper's
configurations and collects the data behind each figure.

Terminology follows §5: *single* = one task per CMP (second CPU idle);
*double* = two tasks per CMP; *slipstream* runs are named by their A-R
synchronization -- ``G0`` (zero-token global) and ``L1`` (one-token
local) are the two policies of Figure 2, ``G<n>``/``L<n>`` any other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..config.machine import MachineConfig, PAPER_MACHINE
from ..npb import REGISTRY
from ..runtime import RunResult, RuntimeEnv, run_program

__all__ = ["BenchRun", "run_benchmark", "run_static_suite",
           "run_dynamic_suite", "SLIP_CONFIGS", "STATIC_BENCHMARKS",
           "DYNAMIC_BENCHMARKS", "dynamic_chunk"]

#: Benchmarks of the static-scheduling study (Fig 2/3).
STATIC_BENCHMARKS = ("bt", "cg", "lu", "mg", "sp")
#: LU is excluded from the dynamic study: "static scheduling is
#: programatically specified in this benchmark" (§5.2).
DYNAMIC_BENCHMARKS = ("bt", "cg", "mg", "sp")

#: The two A-R synchronization policies of Figure 2.
SLIP_CONFIGS: Dict[str, Tuple[str, int]] = {
    "G0": ("GLOBAL_SYNC", 0),
    "L1": ("LOCAL_SYNC", 1),
}


@dataclass
class BenchRun:
    """One benchmark executed under one configuration."""

    bench: str
    config: str                  # "single" | "double" | "G<n>" | "L<n>"
    result: Optional[RunResult]
    params: Dict[str, int] = field(default_factory=dict)
    #: wall-clock stage split recorded by the execution layer
    #: ({"compile_s", "sim_s", "verify_s", "total_s"})
    timing: Dict[str, float] = field(default_factory=dict)
    #: Captured failure (chaos runs with ``capture_errors`` only):
    #: one-line description and its kind ("hang"|"wrong-output"|
    #: "crash").  ``result`` is None when set.
    error: Optional[str] = None
    error_kind: Optional[str] = None

    @property
    def cycles(self) -> float:
        """Simulated execution time of this run (cycles; NaN when the
        run failed and the error was captured)."""
        if self.result is None:
            return float("nan")
        return self.result.cycles


_SYNC = {"G": "GLOBAL_SYNC", "L": "LOCAL_SYNC"}


def _env_for(config: str, schedule=None) -> Optional[RuntimeEnv]:
    """Runtime environment of a configuration.  A slipstream
    configuration is ``G<n>`` or ``L<n>``: n initial tokens, inserted
    at barrier exit (global) or entry (local); ``G0`` and ``L1`` are
    :data:`SLIP_CONFIGS`."""
    kw = {}
    if schedule is not None:
        kw["schedule"] = schedule
    if config not in ("single", "double"):
        m = re.fullmatch(r"([GL])([0-9]+)", config)
        if m is None:
            raise ValueError(f"unknown run configuration {config!r}: want "
                             f"single, double, G<tokens> or L<tokens>")
        kw["slipstream"] = (_SYNC[m[1]], int(m[2]))
        kw["slipstream_set"] = True
    return RuntimeEnv(**kw) if kw else None


def _mode_for(config: str) -> str:
    if config in ("single", "double"):
        return config
    return "slipstream"


def run_benchmark(bench: str, config: str,
                  cfg: MachineConfig = PAPER_MACHINE,
                  size: str = "bench",
                  schedule: Optional[Tuple[str, Optional[int]]] = None,
                  verify: bool = True,
                  params: Optional[Dict[str, int]] = None,
                  **machine_kw) -> BenchRun:
    """Run one mini-NPB benchmark in one configuration and verify the
    computed values against the NumPy reference.

    Thin wrapper over the execution layer: the spec/execute split in
    :mod:`repro.harness.jobs` is the single execution path, shared
    with every pipeline transport."""
    from .jobs import RunSpec, execute_spec
    return execute_spec(RunSpec.make(
        bench, config, size=size, schedule=schedule, params=params,
        cfg=cfg, verify=verify, **machine_kw))


def dynamic_chunk(bench: str, cfg: MachineConfig, size: str = "bench"
                  ) -> Optional[int]:
    """§5.2 chunk policy: compiler defaults except CG, where the chunk
    is half the static block assignment.  For MG the mini-kernel's
    loops are far finer-grained than real NPB-MG's (whose iterations
    each carry a plane of work), so a chunk of a few rows is the
    work-equivalent of the paper's default chunk of one."""
    if bench == "cg":
        n = REGISTRY["cg"].params(size)["n"]
        return max(1, n // (2 * cfg.n_cmps))
    if bench == "mg" and size == "bench":
        return 3
    return None


#: Benchmark-parameter overrides for the dynamic study.  Mini-MG runs a
#: coarser hierarchy under dynamic scheduling so that each scheduling
#: decision carries work comparable to the paper's coarse-grained loops
#: (see EXPERIMENTS.md).
DYNAMIC_PARAMS: Dict[str, Dict[str, int]] = {
    "mg": dict(g=96, levels=3, cycles=2),
}


def _merge_suite(specs, runs) -> Dict[str, Dict[str, BenchRun]]:
    """Collate context results into {bench: {config: BenchRun}}, keyed
    by spec so the nesting is identical for any execution order."""
    out: Dict[str, Dict[str, BenchRun]] = {}
    for spec, run in zip(specs, runs):
        out.setdefault(spec.bench, {})[spec.config] = run
    return out


def run_static_suite(cfg: MachineConfig = PAPER_MACHINE,
                     size: str = "bench",
                     benchmarks=STATIC_BENCHMARKS,
                     configs=("single", "double", "G0", "L1"),
                     verify: bool = True,
                     context=None,
                     **machine_kw) -> Dict[str, Dict[str, BenchRun]]:
    """All Figure-2/3 runs: {bench: {config: BenchRun}}.

    ``context`` selects how the independent runs execute: an
    :class:`~repro.harness.pipeline.ExecutionPipeline` (serial by
    default; give it a pool or spool transport, a checkpoint journal,
    a memo store).  Results are bit-identical through any of them."""
    from .jobs import static_specs
    from .pipeline import ExecutionPipeline
    specs = static_specs(cfg, size, benchmarks, configs, verify=verify,
                         **machine_kw)
    runs = (context or ExecutionPipeline()).run(specs)
    return _merge_suite(specs, runs)


def run_dynamic_suite(cfg: MachineConfig = PAPER_MACHINE,
                      size: str = "bench",
                      benchmarks=DYNAMIC_BENCHMARKS,
                      configs=("single", "G0"),
                      verify: bool = True,
                      context=None,
                      **machine_kw) -> Dict[str, Dict[str, BenchRun]]:
    """All Figure-4/5 runs.  §5.2: comparison against one task/CMP only,
    zero-token-global synchronization only (scheduling points make any
    looser policy converge to G0)."""
    from .jobs import dynamic_specs
    from .pipeline import ExecutionPipeline
    specs = dynamic_specs(cfg, size, benchmarks, configs, verify=verify,
                          **machine_kw)
    runs = (context or ExecutionPipeline()).run(specs)
    return _merge_suite(specs, runs)
