"""The workload's own process: ``run.py --phase setup|work`` lands here.

``setup`` gets the workload ready in a fresh interpreter and says when
it was.  ``work`` warms up, runs passes -- untraced, or alternately
untraced and traced -- checks every one of them, and prints one JSON
object for the driver process on its last line.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import layers
from hostclock import SLICE_MIN_S, HostClock, events_per_second
from metrics import DEFAULT_SEED
from spans import Tracer
from workloads import EXHIBITS, HarnessRoundtrip, make_workload

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"


def main(args) -> int:
    workload = make_workload(args.workload, args.seed, args.quick)
    if args.phase == "setup":
        workload.prepare()
        ready_at = time.monotonic()
        print(json.dumps({"ready_at": ready_at, "events_per_s":
                          events_per_second(SLICE_MIN_S)}))
        return 0
    workload.warm()
    work = Path(args.workdir)
    judge = Judge(None if args.record else expected_units(args))
    if args.trace:
        out = traced_run(workload, args, work, judge)
    else:
        out = {"passes": plain_passes(workload, args.seconds, work, judge)}
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    out.update(rss_mb=max(usage) / 1024.0, attempted=judge.attempted,
               failed=judge.failed, errors=judge.errors[:20])
    if args.record:
        out["units"] = judge.reference
    print(json.dumps(out))
    return 0


def expected_units(args):
    """Recorded (cycles, digest) per unit, or None when nothing is
    recorded for these inputs: the exhibit sweeps have the same units
    under every seed, the seed-made workloads only at full size under
    the recorded seed."""
    if args.workload in EXHIBITS or (args.seed == DEFAULT_SEED
                                     and not args.quick):
        return json.loads(EXPECTED.read_text())["units"][args.workload]
    return None


class Judge:
    """Checks every pass: no unit failed, every pass repeats the first
    one exactly, and cycles and output digests equal ``expected``."""

    def __init__(self, expected):
        self.expected = expected
        self.reference = None
        self.attempted = self.failed = self.golden_mismatch = 0
        self.errors = []

    def passed(self, res) -> None:
        self.attempted += res.attempted
        self.failed += len(res.errors)
        self.errors += res.errors
        if self.reference is None:
            self.reference = res.units
        else:
            self.compare(res.units, self.reference, "the first pass")
        if self.expected is not None:
            before = self.failed
            self.compare(res.units, self.expected, "expected.json")
            self.golden_mismatch += self.failed - before

    def compare(self, units, want, what) -> None:
        for uid, got in units.items():
            if uid not in want or list(got) != list(want[uid]):
                self.failed += 1
                self.errors.append(f"{uid}: cycles/digest {list(got)} differ "
                                   f"from {what} ({want.get(uid)})")

    def raised(self, exc, n_units) -> None:
        self.attempted += n_units
        self.failed += n_units
        self.errors.append("pass raised: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())


def one_pass(workload, tracer, work: Path, tag: str, judge: Judge,
             timed: bool = True, keep: bool = False, **kw):
    """Run one pass in a fresh directory; None if it raised.  A timed
    pass gets its raw and reference-host seconds from a ``HostClock``."""
    pass_dir = work / tag
    pass_dir.mkdir(parents=True)
    clock = HostClock() if timed else None
    try:
        if timed:
            clock.start()
        res = workload.run_pass(tracer, pass_dir, clock, **kw)
    except Exception as exc:            # noqa: BLE001 - counted as failures
        judge.raised(exc, workload.units_per_pass)
        return None
    finally:
        if not keep:
            shutil.rmtree(pass_dir, ignore_errors=True)
    if timed:
        res.wall_s, res.ref_s = clock.totals()
    judge.passed(res)
    return res


def plain_passes(workload, seconds: float, work: Path, judge: Judge) -> list:
    """Untraced passes, a new one starting as long as ``seconds`` have
    not gone by.  Returns (raw, reference-host) seconds of each."""
    off = Tracer(False)
    passes = []
    started = time.perf_counter()
    while True:
        res = one_pass(workload, off, work, f"pass-{len(passes)}", judge)
        if res is None:
            break
        passes.append((res.wall_s, res.ref_s))
        if time.perf_counter() - started >= seconds:
            break
    return passes


def traced_run(workload, args, work: Path, judge: Judge) -> dict:
    """The per-layer rows: alternating untraced and traced passes for
    half of ``--seconds`` (at least one pair), then the rows that need
    runs of their own."""
    tr, off = Tracer(True), Tracer(False)
    rows = layers.frontend_rows(tr, workload.sources())
    lookups_before = layers.cache_stats()
    plain, traced, first = [], [], None
    started = time.perf_counter()
    while True:
        k = len(traced)
        a = one_pass(workload, off, work, f"plain-{k}", judge)
        b = one_pass(workload, tr, work, f"traced-{k}", judge)
        if a is None or b is None:
            break
        plain.append((a.wall_s, a.ref_s))
        traced.append((b.wall_s, b.ref_s))
        first = first or b
        if time.perf_counter() - started >= args.seconds / 2:
            break
    if first is None:
        return {"passes": [], "rows": {}}
    rows["npb.cache.hit_frac"] = layers.cache_hit_frac(lookups_before)
    walls = [wall for wall, _ in traced]
    rows.update(layers.span_rows(tr, walls))
    rows["trace.overhead_ratio"] = (
        statistics.median(ref for _, ref in traced)
        / statistics.median(ref for _, ref in plain))
    if first.phases:
        # harness_roundtrip runs its units inside the real transports:
        # the stage split is the one execute_spec timed.
        rows.update({"npb.cache.lookup_s": first.phases["lookup_s"],
                     "runtime.run_s": first.phases["sim_s"],
                     "npb.verify_s": first.phases["verify_s"]})
    rows.update(layers.count_rows(first.results, rows["runtime.run_s"]))
    for key in ("gain.static_avg", "gain.dynamic_avg",
                "paper_gap_pts.static", "paper_gap_pts.dynamic"):
        rows["slipstream." + key] = first.gains.get(key, 0.0)

    # Harness rows come from an untimed pass of harness_roundtrip, so
    # that no calibration sits inside a phase: the workload itself, or
    # a 24-unit probe of it on the other workloads.
    probe = workload
    if not isinstance(workload, HarnessRoundtrip):
        probe = HarnessRoundtrip(args.seed, units=24)
        probe.prepare()
    probe_judge, profile_judge = Judge(None), Judge(None)
    probe_dir = work / "probe"
    res = one_pass(probe, off, work, "probe", probe_judge, timed=False,
                   keep=True)
    if res is not None:
        rows.update(layers.harness_rows(res.phases, probe, probe_dir))
        rows.update(layers.replay_profile_row(probe, probe_dir))
    shutil.rmtree(probe_dir, ignore_errors=True)
    rows.update(layers.profile_rows(lambda: one_pass(
        workload, off, work, "profile", profile_judge, timed=False,
        subset=workload.profile_subset())))
    for side in (probe_judge, profile_judge):
        judge.errors += side.errors
        judge.failed += side.failed

    rows.update(layers.micro_vm(args.seed))
    rows.update(layers.micro_mem(args.seed))
    rows.update(layers.micro_sim())
    rows.update(layers.micro_obs())
    rows.update({
        "bench.host_speed": statistics.median(
            ref / raw for raw, ref in traced),
        "check.units": first.attempted,
        "check.failed_frac": judge.failed / judge.attempted,
        "check.golden_mismatch_units": judge.golden_mismatch,
    })
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return {"passes": traced, "untraced_passes": plain, "rows": rows}
