"""Experiment harness: the execution pipeline (jobs -> transport ->
checkpoint -> merge), paper-figure runners and renderers."""

from .figures import (BREAKDOWN_CATEGORIES, benchmark_inventory,
                      breakdown_table, classification_table,
                      render_breakdowns, render_classification,
                      render_speedups, render_table, speedup_table,
                      summary_gains)
from .report import profile_table
from .runner import (DYNAMIC_BENCHMARKS, SLIP_CONFIGS, STATIC_BENCHMARKS,
                     BenchRun, dynamic_chunk, run_benchmark,
                     run_dynamic_suite, run_static_suite)
from .jobs import (RunSpec, SweepPlan, WorkUnit, code_fingerprint,
                   dynamic_specs, execute_spec, failure_run,
                   quarantined_run, static_specs, unit_key)
from .transport import (DirQueueTransport, PoolTransport, SerialTransport,
                        Transport, run_worker)
from .checkpoint import CheckpointJournal, MemoStore, default_memo_dir
from .pipeline import ExecutionPipeline
from .hazards import (HAZARD_CLASS_KINDS, HAZARD_CLASSES, HAZARD_KINDS,
                      HazardConfig, HazardPlan)
from .integrity import IntegrityError, atomic_pickle, load_verified
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from .chaos import (CHAOS_BENCHMARKS, ChaosOutcome, ChaosReport,
                    HarnessChaosOutcome, HarnessChaosReport, chaos_specs,
                    oracle_check, render_chaos, render_harness_chaos,
                    run_chaos, run_harness_chaos)

__all__ = [
    "BREAKDOWN_CATEGORIES", "benchmark_inventory", "breakdown_table",
    "classification_table", "render_breakdowns", "render_classification",
    "render_speedups", "render_table", "speedup_table", "summary_gains",
    "DYNAMIC_BENCHMARKS", "SLIP_CONFIGS", "STATIC_BENCHMARKS", "BenchRun",
    "dynamic_chunk", "run_benchmark", "run_dynamic_suite",
    "run_static_suite", "profile_table",
    "RunSpec", "SweepPlan", "WorkUnit", "code_fingerprint",
    "dynamic_specs", "execute_spec", "failure_run", "quarantined_run",
    "static_specs", "unit_key",
    "Transport", "SerialTransport", "PoolTransport", "DirQueueTransport",
    "run_worker", "CheckpointJournal", "MemoStore", "default_memo_dir",
    "ExecutionPipeline",
    "HAZARD_KINDS", "HAZARD_CLASSES", "HAZARD_CLASS_KINDS",
    "HazardConfig", "HazardPlan",
    "IntegrityError", "atomic_pickle", "load_verified",
    "NULL_TELEMETRY", "Telemetry",
    "CHAOS_BENCHMARKS", "ChaosOutcome", "ChaosReport", "chaos_specs",
    "oracle_check", "render_chaos", "run_chaos",
    "HarnessChaosOutcome", "HarnessChaosReport", "run_harness_chaos",
    "render_harness_chaos",
]
