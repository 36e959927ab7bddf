"""Shared infrastructure for the paper-figure benchmarks.

Figures 2 and 3 come from the same set of static-scheduling runs, and
Figures 4 and 5 from the same dynamic-scheduling runs, so the suites
are computed once and memoized across benchmark files.

Environment knobs (for quicker exploratory runs):

* ``REPRO_BENCH_SIZE``  -- "bench" (default, paper-scale) or "test";
* ``REPRO_BENCH_CMPS``  -- number of CMPs (default 16, the paper's);
* ``REPRO_BENCH_JOBS``  -- worker processes for the suite's independent
  simulations (default 1 = serial; results are bit-identical either
  way, only wall-clock changes);
* ``REPRO_BENCH_MEMO``  -- "1" to serve repeated units from the shared
  run-result memo store (bit-identical; useful when iterating on the
  figure code rather than the simulator).

Rendered outputs are also written to ``benchmarks/results/*.txt`` so
EXPERIMENTS.md can reference a stable artifact.  That directory holds
deterministic numbers only: host-timing tables are printed, not
published.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.config import PAPER_MACHINE
from repro.harness import (ExecutionPipeline, MemoStore, PoolTransport,
                           SerialTransport, run_dynamic_suite,
                           run_static_suite)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_cache = {}


def bench_size() -> str:
    return os.environ.get("REPRO_BENCH_SIZE", "bench")


def bench_cfg():
    n = int(os.environ.get("REPRO_BENCH_CMPS", "16"))
    return PAPER_MACHINE.with_(n_cmps=n)


def bench_context():
    """Execution pipeline for the suites (REPRO_BENCH_JOBS workers,
    optional REPRO_BENCH_MEMO run-result store)."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    transport = PoolTransport(jobs=jobs) if jobs > 1 else SerialTransport()
    memo = (MemoStore()
            if os.environ.get("REPRO_BENCH_MEMO", "") == "1" else None)
    return ExecutionPipeline(transport=transport, memo=memo)


def get_static_suite():
    key = ("static", bench_size(), bench_cfg().n_cmps)
    if key not in _cache:
        _cache[key] = run_static_suite(cfg=bench_cfg(), size=bench_size(),
                                       context=bench_context())
    return _cache[key]


def get_dynamic_suite():
    key = ("dynamic", bench_size(), bench_cfg().n_cmps)
    if key not in _cache:
        _cache[key] = run_dynamic_suite(cfg=bench_cfg(), size=bench_size(),
                                        context=bench_context())
    return _cache[key]


def at_paper_scale() -> bool:
    """Shape assertions (who wins, by how much) only hold in the paper's
    configuration: 16 CMPs, bench-size problems.  Reduced-scale runs
    (REPRO_BENCH_SIZE=test / REPRO_BENCH_CMPS<16) still regenerate the
    tables but skip the shape checks."""
    return bench_size() == "bench" and bench_cfg().n_cmps == 16


def publish(name: str, text: str) -> None:
    """Print a figure's rows and persist them under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (simulations are long
    and deterministic; statistical repetition adds nothing)."""
    def run(fn, *args, **kw):
        return benchmark.pedantic(fn, args=args, kwargs=kw,
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)
    return run
