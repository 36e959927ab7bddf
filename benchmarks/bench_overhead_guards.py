"""Off-switch guards: what is off must cost nothing.

Three things in the run path can be switched off or are off until
armed -- observability (``NullSink``), harness telemetry
(``NULL_TELEMETRY``, the default) and harness hazard injection
(disarmed, the default).  Each guard runs the CI smoke sweep with the
switch off and with it on, warm compile cache, and demands that

* simulated cycles are bit-identical in both positions, every sweep;
* the off position costs at most 2% over the on position.

One sweep is about half a second of CPU, and on a shared host the same
sweep costs 0.43-0.72 s from one minute to the next (EXPERIMENTS.md),
so no two timings taken apart can be compared to 2 %.  What is compared
is two sweeps taken back to back: a guard times adjacent (off, on)
pairs -- CPU time, ``time.process_time``, every arm runs in this
process; who goes first alternates -- until it has ``PAIRS`` of them
and ``MIN_ARM_S`` of CPU in each arm, and bounds the median of the
pairs' off/on ratios.

The sweep is pinned to test size / 4 CMPs so the printed tables stay
comparable across hosts and PRs.  They are host timings, so they are printed, not written
under ``benchmarks/results/`` (which holds deterministic numbers only).
Wall-clock of the harness itself is ``benchmarks/e2e``'s
``harness_roundtrip`` workload, not this file.
"""

import statistics
import time

from repro.config import PAPER_MACHINE
from repro.harness import (CheckpointJournal, ExecutionPipeline, HazardConfig,
                           MemoStore, SerialTransport, Telemetry, hazards,
                           render_table, static_specs)

#: The CI smoke sweep: every execution mode, both sync policies, on the
#: two benchmarks with the most distinct communication patterns.
SMOKE_BENCHMARKS = ("bt", "cg")
SMOKE_CONFIGS = ("single", "double", "G0", "L1")

#: Adjacent sweep pairs behind one verdict: a single pair's ratio
#: spreads about +-6 %, the median of two dozen about +-1 %.
PAIRS = 24
#: ... and the least CPU seconds in each arm, whatever a sweep costs.
MIN_ARM_S = 2.0
#: Off may cost at most this factor of on.
BOUND = 1.02


def _specs(**machine_kw):
    return static_specs(PAPER_MACHINE.with_(n_cmps=4), "test",
                        SMOKE_BENCHMARKS, SMOKE_CONFIGS, **machine_kw)


def _serial(**kw):
    """A pipeline that runs every unit in this process, where
    ``time.process_time`` sees it."""
    return ExecutionPipeline(transport=SerialTransport(), **kw)


def _interleave(off, on):
    """Time adjacent sweeps of the two arms (callables taking a number
    unique to the call, returning the sweep's runs).  Returns the
    median off/on ratio over the pairs and each arm's CPU seconds."""
    baseline = [r.cycles                # also warms the compile cache
                for r in _serial().run(_specs())]
    total = {off: 0.0, on: 0.0}
    ratios = []
    while len(ratios) < PAIRS or min(total.values()) < MIN_ARM_S:
        spent = {}
        # Alternate who goes first so that a drift within the pair
        # cannot favour one arm.
        for arm in ((off, on) if len(ratios) % 2 == 0 else (on, off)):
            t0 = time.process_time()
            runs = arm(len(ratios))
            spent[arm] = time.process_time() - t0
            assert [r.cycles for r in runs] == baseline
            total[arm] += spent[arm]
        ratios.append(spent[off] / spent[on])
    return statistics.median(ratios), total[off], total[on]


def _guard(once, title, column, off_label, on_label, off, on):
    ratio, off_s, on_s = once(_interleave, off, on)
    print("\n" + render_table(
        [column, "cpu s", "vs on (median of pairs)"],
        [[off_label, f"{off_s:.2f}", f"{ratio:.3f}"],
         [on_label, f"{on_s:.2f}", "1.000"]],
        f"{title} (test size, 4 CMPs)"))
    assert ratio <= BOUND, (ratio, off_s, on_s)


def test_null_sink_overhead(once):
    # The off switch must actually be an off switch: disabling
    # observability may not cost more than the default AggregateSink
    # (in practice it is faster -- no span/counter bookkeeping).
    aggregate, null = _specs(), _specs(obs="null")
    _guard(once, "observability-off cost, 8-run static sweep", "sink",
           "null (observability off)", "aggregate (default)",
           off=lambda tag: _serial().run(null),
           on=lambda tag: _serial().run(aggregate))


def test_telemetry_overhead(once, tmp_path):
    # Zero-cost-off, NullSink discipline: if the disabled path (the
    # default everywhere) costs more than a live on-disk session, the
    # no-op hooks are not actually no-ops.
    specs = _specs()

    def live(tag):
        tel = Telemetry(root=tmp_path / f"telemetry-{tag}")
        try:
            return _serial(telemetry=tel).run(specs)
        finally:
            tel.close()

    _guard(once, "harness-telemetry cost, 8-run static sweep", "telemetry",
           "off (default)", "on (event log)",
           off=lambda tag: _serial().run(specs), on=live)


def test_hazards_disarmed_overhead(once, tmp_path):
    # The injector must be invisible until armed: the disarmed check is
    # one cached pid comparison per site, against an armed plan whose
    # every publish/claim site consults a schedule that never fires.
    specs = _specs()

    def sweep(tag):
        # fresh journal/memo per sweep: every run pays the full
        # publish path (atomic_pickle x2 per unit), where the hazard
        # seam lives
        return _serial(
            journal=CheckpointJournal(tmp_path / f"j-{tag}"),
            memo=MemoStore(tmp_path / f"m-{tag}")).run(specs)

    def disarmed(tag):
        hazards.disarm()
        return sweep(f"off-{tag}")

    def armed(tag):
        plan = hazards.arm(HazardConfig(0))
        plan.schedule = {k: {} for k in plan.schedule}  # fires nothing
        plan._seen = {k: 0 for k in plan.schedule}
        try:
            return sweep(f"on-{tag}")
        finally:
            hazards.disarm()

    _guard(once, "hazard-site cost, 8-run checkpointed sweep",
           "hazard sites",
           "disarmed (default)", "armed, empty schedule",
           off=disarmed, on=armed)
