"""Chaos harness: matrix composition, the output oracle, captured
failures, and the chaos/bench CLI surfaces."""

import io
import json

import pytest

from repro.cli import main
from repro.config import PAPER_MACHINE
from repro.faults import FAULT_CLASSES, FaultConfig
from repro.harness.chaos import (CHAOS_BENCHMARKS, chaos_specs,
                                 oracle_check, render_chaos, run_chaos)
from repro.harness import (ExecutionPipeline, PoolTransport, RunSpec,
                           execute_spec)

SUBSET = ("cg", "mg")


def _subset_specs():
    return chaos_specs(benchmarks=SUBSET, seeds=1)


@pytest.fixture(scope="module")
def serial_report():
    return run_chaos(_subset_specs())


# ---------------------------------------------------------- composition

def test_default_matrix_composition():
    specs = chaos_specs()
    assert len(specs) >= 20
    assert len({s.bench for s in specs}) >= 3
    assert set(CHAOS_BENCHMARKS) == {s.bench for s in specs}
    armed = {c for s in specs for c in s.faults.classes}
    assert armed == set(FAULT_CLASSES)
    # channel scenarios get dynamic scheduling so the mailbox carries
    # traffic (except LU, whose scheduling is programmatically static)
    for s in specs:
        if "channel" in s.faults.classes and s.bench != "lu":
            assert s.schedule == ("dynamic", 4)
    assert all(s.capture_errors and s.timeout_cycles for s in specs)


def test_matrix_seeds_are_distinct():
    specs = chaos_specs()
    seeds = [(s.bench, s.faults.seed) for s in specs]
    assert len(seeds) == len(set(seeds))


# ------------------------------------------------------- invariant holds

def test_subset_matrix_holds_the_invariant(serial_report):
    rep = serial_report
    assert rep.ok, render_chaos(rep)
    assert rep.total_recoveries >= 1
    cov = rep.class_recovery()
    assert all(cov.values()), f"missing recovery coverage: {cov}"
    statuses = rep.status_counts()
    assert statuses.get("hang", 0) == 0
    assert statuses.get("wrong-output", 0) == 0
    assert statuses.get("crash", 0) == 0


def test_chaos_is_deterministic_across_contexts(serial_report):
    pooled = run_chaos(
        _subset_specs(),
        context=ExecutionPipeline(transport=PoolTransport(jobs=2)))
    key = lambda o: (o.bench, o.seed, o.classes, o.status, o.recoveries,
                     o.cycles, tuple(sorted(o.injected.items())),
                     tuple(o.recovery_sites))
    assert list(map(key, serial_report.outcomes)) == \
        list(map(key, pooled.outcomes))


def test_report_is_json_serializable(serial_report):
    blob = json.dumps(serial_report.to_json())
    back = json.loads(blob)
    assert back["ok"] is True
    assert back["summary"]["scenarios"] == len(serial_report.outcomes)


def test_fault_counters_survive_pool_merge():
    """Probe counters (``fault.*`` on the faults track, ``a.faults`` on
    the channel tracks) and the recovery log must come back identical
    from a pool worker and from in-process execution."""
    specs = [RunSpec.make("cg", "G0", size="test", verify=True,
                          faults=FaultConfig(seed, classes=("vm", "kill")),
                          timeout_cycles=5e6,
                          cfg=PAPER_MACHINE.with_(n_cmps=8))
             for seed in (4, 5)]
    pool = ExecutionPipeline(transport=PoolTransport(jobs=2))
    pooled = pool.run(specs)
    # Two distinct units: identical specs dedupe to one, and a one-unit
    # batch runs inline in the driver, never reaching a worker.
    assert pool.counters.get("unit.deduped") == 0
    assert pool.counters.get("unit.executed") == 2
    for spec, run in zip(specs, pooled):
        serial, r = execute_spec(spec).result, run.result
        assert r.rt_stats == serial.rt_stats
        assert r.recoveries == serial.recoveries
        assert r.faults == serial.faults
        fired = {f["kind"] for f in serial.faults["fired"]}
        assert fired, "campaign must actually inject"
        fault_counts = serial.rt_stats.get("faults", {})
        assert {f"fault.{k}" for k in fired} <= set(fault_counts)
        assert sum(fault_counts.values()) == len(serial.faults["fired"])
        assert any("a.faults" in counts
                   for counts in serial.rt_stats.values())


# ---------------------------------------------------------------- oracle

def test_oracle_detects_tampered_results():
    spec = RunSpec.make("cg", "G0", size="test", verify=True)
    result = execute_spec(spec).result
    assert oracle_check(spec, result) is None
    gidx = next(i for i, g in enumerate(result.store.globals)
                if result.store.arrays[i].size)
    result.store.arrays[gidx][0] += 1.0           # simulate a leak
    mismatch = oracle_check(spec, result)
    assert mismatch is not None
    assert result.store.globals[gidx].name in mismatch


# ------------------------------------------------------ captured failures

def test_execute_spec_captures_watchdog_expiry():
    spec = RunSpec.make("cg", "G0", size="test", verify=True,
                        timeout_cycles=300, capture_errors=True)
    run = execute_spec(spec)
    assert run.result is None
    assert run.error_kind == "hang"
    assert "watchdog expired" in run.error
    assert "\n" not in run.error                  # one actionable line
    assert run.cycles != run.cycles               # NaN


def test_execute_spec_raises_without_capture():
    from repro.runtime import SimDeadlockError
    spec = RunSpec.make("cg", "G0", size="test", verify=True,
                        timeout_cycles=300)
    with pytest.raises(SimDeadlockError):
        execute_spec(spec)


# ------------------------------------------------------------------- CLI

def run_cli(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


def test_cli_chaos_writes_report(tmp_path):
    report = tmp_path / "chaos.json"
    rc, out = run_cli(["chaos", "cg", "--seeds", "1", "--cmps", "8",
                       "--report", str(report)])
    assert rc == 0
    assert "oracle verdict: OK" in out
    blob = json.loads(report.read_text())
    assert blob["ok"] is True
    assert blob["summary"]["recoveries"] >= 1
    assert all(c in blob["summary"]["class_recovery"]
               for c in FAULT_CLASSES)


def test_cli_chaos_rejects_unknown_class(capsys):
    rc, _ = run_cli(["chaos", "cg", "--classes", "gremlins"])
    assert rc == 2
    assert "unknown fault class" in capsys.readouterr().err


def test_cli_bench_watchdog_is_one_line_exit_4(capsys):
    rc, _ = run_cli(["bench", "cg", "--size", "test", "--cmps", "8",
                     "--timeout-cycles", "300"])
    assert rc == 4
    err = capsys.readouterr().err
    first = err.splitlines()[0]
    assert first.startswith("error: simulation watchdog expired")
    assert "Traceback" not in err


def test_cli_run_chaos_seed_reports_injections(tmp_path):
    f = tmp_path / "p.c"
    f.write_text("""
double a[512];
int i;
void main() {
    int it;
    for (it = 0; it < 30; it = it + 1) {
        #pragma omp parallel for
        for (i = 0; i < 512; i = i + 1) a[i] = a[i] + 1.0;
    }
}
""")
    rc, out = run_cli(["run", str(f), "--mode", "slipstream",
                       "--cmps", "4", "--chaos-seed", "3"])
    assert rc == 0
    assert "chaos: seed 3" in out
    assert "injection(s)" in out
