"""Off-switch guards: what is off must cost nothing.

Three things in the run path can be switched off or are off until
armed -- observability (``NullSink``), harness telemetry
(``NULL_TELEMETRY``, the default) and harness hazard injection
(disarmed, the default).  Each guard times the CI smoke sweep with the
switch off and with it on, warm compile cache, the two arms interleaved
and min-of-reps, and demands that

* simulated cycles are bit-identical in both positions, every rep;
* the off position costs at most 2% over the on position.

The sweep is pinned to test size / 4 CMPs regardless of
``REPRO_BENCH_SIZE`` so the tables under ``benchmarks/results/`` stay
comparable across hosts and PRs.  Wall-clock of the harness itself is
``benchmarks/e2e``'s ``harness_roundtrip`` workload, not this file.
"""

import time

from conftest import publish
from repro.config import PAPER_MACHINE
from repro.harness import (CheckpointJournal, ExecutionPipeline, HazardConfig,
                           MemoStore, Telemetry, hazards, render_table,
                           static_specs)

#: The CI smoke sweep: every execution mode, both sync policies, on the
#: two benchmarks with the most distinct communication patterns.
SMOKE_BENCHMARKS = ("bt", "cg")
SMOKE_CONFIGS = ("single", "double", "G0", "L1")

REPS = 4
#: Off may cost at most this factor of on.
BOUND = 1.02


def _specs(**machine_kw):
    return static_specs(PAPER_MACHINE.with_(n_cmps=4), "test",
                        SMOKE_BENCHMARKS, SMOKE_CONFIGS, **machine_kw)


def _timed(pipe, specs):
    t0 = time.perf_counter()
    runs = pipe.run(specs)
    return runs, time.perf_counter() - t0


def _interleave(off, on):
    """Best-of-``REPS`` sweep seconds of the two arms (callables taking
    the rep number, returning ``(runs, seconds)``)."""
    baseline = [r.cycles                # also warms the compile cache
                for r in ExecutionPipeline().run(_specs())]
    best = {off: float("inf"), on: float("inf")}
    for rep in range(REPS):
        # Alternate arm order per rep so slow-drift noise (cache
        # pressure, scheduler) cannot bias one arm systematically.
        for arm in ((off, on) if rep % 2 == 0 else (on, off)):
            runs, dt = arm(rep)
            assert [r.cycles for r in runs] == baseline
            best[arm] = min(best[arm], dt)
    return best[off], best[on]


def _guard(once, name, title, column, off_label, on_label, off, on):
    off_s, on_s = once(_interleave, off, on)
    publish(name, render_table(
        [column, "wall s", "vs on"],
        [[off_label, f"{off_s:.2f}", f"{off_s / on_s:.3f}"],
         [on_label, f"{on_s:.2f}", "1.000"]],
        f"{title} (test size, 4 CMPs)"))
    assert off_s <= BOUND * on_s, (off_s, on_s)


def test_null_sink_overhead(once):
    # The off switch must actually be an off switch: disabling
    # observability may not cost more than the default AggregateSink
    # (in practice it is faster -- no span/counter bookkeeping).
    aggregate, null = _specs(), _specs(obs="null")
    _guard(once, "null_sink_overhead", "observability-off cost, 8-run static sweep", "sink",
           "null (observability off)", "aggregate (default)",
           off=lambda rep: _timed(ExecutionPipeline(), null),
           on=lambda rep: _timed(ExecutionPipeline(), aggregate))


def test_telemetry_overhead(once, tmp_path):
    # Zero-cost-off, NullSink discipline: if the disabled path (the
    # default everywhere) costs more than a live on-disk session, the
    # no-op hooks are not actually no-ops.
    specs = _specs()

    def live(rep):
        tel = Telemetry(root=tmp_path / f"telemetry-{rep}")
        try:
            return _timed(ExecutionPipeline(telemetry=tel), specs)
        finally:
            tel.close()

    _guard(once, "telemetry_overhead",
           "harness-telemetry cost, 8-run static sweep", "telemetry",
           "off (default)", "on (event log + metrics)",
           off=lambda rep: _timed(ExecutionPipeline(), specs), on=live)


def test_hazards_disarmed_overhead(once, tmp_path):
    # The injector must be invisible until armed: the disarmed check is
    # one cached pid comparison per site, against an armed plan whose
    # every publish/claim site consults a schedule that never fires.
    specs = _specs()

    def sweep(tag):
        # fresh journal/memo per arm+rep: every run pays the full
        # publish path (atomic_pickle x2 per unit), where the hazard
        # seam lives
        return _timed(ExecutionPipeline(
            journal=CheckpointJournal(tmp_path / f"j-{tag}"),
            memo=MemoStore(tmp_path / f"m-{tag}")), specs)

    def disarmed(rep):
        hazards.disarm()
        return sweep(f"off-{rep}")

    def armed(rep):
        plan = hazards.arm(HazardConfig(0))
        plan.schedule = {k: {} for k in plan.schedule}  # fires nothing
        plan._seen = {k: 0 for k in plan.schedule}
        try:
            return sweep(f"on-{rep}")
        finally:
            hazards.disarm()

    _guard(once, "hazards_disarmed_overhead",
           "hazard-site cost, 8-run checkpointed sweep", "hazard sites",
           "disarmed (default)", "armed, empty schedule",
           off=disarmed, on=armed)
