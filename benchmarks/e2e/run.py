#!/usr/bin/env python3
"""The repository's one benchmark: exhibit-sweep wall clock end to end,
host cost layer by layer.  See README.md beside this file.

    python3 benchmarks/e2e/run.py                    every workload, untraced
    python3 benchmarks/e2e/run.py --traced           ... and the traced run
    python3 benchmarks/e2e/run.py --sets 2 --traced  noise report
    python3 benchmarks/e2e/run.py --quick            smoke, under 20 s
    python3 benchmarks/e2e/run.py --record           rewrite expected.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T
                                                     one run, as the driver
                                                     named in BENCHMARK.json
                                                     makes it

This process measures set-up time and starts the workload (child.py)
in a fresh subprocess with its caches, journal, memo, spool and
telemetry under one temporary directory; it imports nothing from
``repro`` itself.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
GOLDEN_TEST = ROOT / "tests" / "test_determinism.py"

sys.path.insert(0, str(HERE))
from hostclock import REFERENCE_EVENTS_PER_S  # noqa: E402
from metrics import (DEFAULT_SEED, END_TO_END, EXACT_ROWS,  # noqa: E402
                     PER_LAYER, WORKLOADS)

WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
#: Variables that would make the run measure something other than the
#: default configuration, or a run with faults armed.
REFUSED_ENV = ("REPRO_HOTPATH", "REPRO_DISK_CACHE", "REPRO_HAZARDS",
               "REPRO_FAULTS", "REPRO_MEMO_DIR", "REPRO_COMPILE_STRICT")
REFUSED_PREFIX = "REPRO_BENCH_"


# ------------------------------------------------------------ statistics

def summary(samples) -> dict:
    """Median, quartiles and count of a sample list."""
    out = {"value": statistics.median(samples), "n": len(samples),
           "samples": list(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


# -------------------------------------------------------- expected.json

def golden_table_disagreement():
    """Where expected.json's ``exhibits_test`` cycles differ from
    ``GOLDEN_CYCLES`` in tests/test_determinism.py (None if nowhere, or
    if that file is not part of this checkout)."""
    if not GOLDEN_TEST.is_file():
        return None
    golden = None
    for node in ast.parse(GOLDEN_TEST.read_text()).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", "") == "GOLDEN_CYCLES"):
            golden = ast.literal_eval(node.value)
    if golden is None:
        return None
    want = {"/".join(key): cycles for key, cycles in golden.items()}
    have = {uid: unit[0] for uid, unit in
            json.loads(EXPECTED.read_text())["units"]["exhibits_test"].items()}
    if want == have:
        return None
    return sorted(uid for uid in want.keys() | have.keys()
                  if want.get(uid) != have.get(uid))


# -------------------------------------------------------- driver process

def refuse_foreign_configuration() -> None:
    bad = [k for k in os.environ
           if k in REFUSED_ENV or k.startswith(REFUSED_PREFIX)]
    if bad:
        raise SystemExit(f"refusing to measure with {', '.join(sorted(bad))} "
                         f"set: the benchmark times the default "
                         f"configuration only")
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")


def run_child(argv, workdir: Path) -> tuple:
    """Start run.py again as a fresh interpreter with its caches under
    ``workdir``.  Returns the object on the last line of its output and
    the instant, on the monotonic clock, at which it was started."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    # Every fresh interpreter compiles the sources it imports, whether
    # or not an earlier run left bytecode behind: set-up time then does
    # not depend on which run came first.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py")] + argv, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{' '.join(argv)}: no result within "
                         f"{CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), spawned


def measure(name: str, args, trace: bool, work: Path) -> dict:
    """One run of one workload: the record written under out/."""
    common = ["--workload", name, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")
    setups, rates = [], []              # raw seconds, calibration rates
    for i in range(0 if trace else args.setup_runs):
        out, spawned = run_child(common + ["--phase", "setup"],
                                 work / f"setup-{i}")
        setups.append(out["ready_at"] - spawned)
        rates.append(out["events_per_s"])
    extra = ["--record"] if args.record else []
    child, _ = run_child(
        common + extra + ["--phase", "work", "--seconds", str(args.seconds),
                          "--trace", str(int(trace)),
                          "--workdir", str(work / "work")], work / "work")
    if not child["passes"]:
        raise SystemExit(f"{name}: no pass completed: {child['errors']}")
    if trace:
        units = {n: u for n, u, _ in PER_LAYER}
        missing = units.keys() ^ child["rows"].keys()
        if missing:
            raise SystemExit(f"{name}: per-layer rows out of step with "
                             f"metrics.py: {sorted(missing)}")
        metrics = {n: {"value": child["rows"][n], "unit": units[n]}
                   for n in units}
    else:
        # A set-up is too short to calibrate by itself: the run's
        # set-ups share the mean rate of the calibrations that follow them.
        host = statistics.mean(rates) / REFERENCE_EVENTS_PER_S
        metrics = {"wall_s": summary([ref for _, ref in child["passes"]]),
                   "setup_s": summary([raw * host for raw in setups]),
                   "peak_rss_mb": {"value": child["rss_mb"]}}
        for n, unit, _, _ in END_TO_END:
            metrics[n]["unit"] = unit
    raw_s = sum(raw for raw, _ in child["passes"])
    return {"workload": name, "trace": int(trace), "seed": args.seed,
            "seconds": args.seconds, "quick": args.quick,
            "correct": child["failed"] == 0,
            "attempted": child["attempted"], "failed": child["failed"],
            "errors": child["errors"], "metrics": metrics,
            "host_speed": sum(ref for _, ref in child["passes"]) / raw_s,
            "raw_seconds": {"wall_s": [raw for raw, _ in child["passes"]],
                            "setup_s": setups,
                            "untraced_passes": child.get("untraced_passes")},
            "units": child.get("units")}


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "argv": sys.argv[1:]}


def show(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"\n== {record['workload']}  seed {record['seed']}  {mode}  "
          f"{record['attempted']} units attempted, {record['failed']} failed"
          f"  (host at {record['host_speed']:.2f} of reference speed)")
    for name, m in record["metrics"].items():
        line = f"  {name:<36} {m['value']:>16.6g} {m['unit']}"
        if "q1" in m:
            line += f"   q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        if "n" in m:
            line += f"  n={m['n']}"
        print(line)
    for err in record["errors"]:
        print("  ERROR", err)


def contract_result(record: dict) -> dict:
    """The result object the driver reads from the last line."""
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in record["metrics"].items()}}


def noise_report(sets: list) -> bool:
    """Gap between back-to-back sets against each bound; exact rows
    must be identical.  True when everything holds."""
    ok = True
    bounds = {n: b for n, _, _, b in END_TO_END}
    print("\n== noise between sets (gap to the first set, share of it)")
    for key in sets[0]:
        name, trace = key
        base = sets[0][key]["metrics"]
        for other in sets[1:]:
            metrics = other[key]["metrics"]
            if not trace:
                for n, bound in bounds.items():
                    gap = abs(metrics[n]["value"] - base[n]["value"]) \
                        / base[n]["value"]
                    verdict = "ok" if gap <= bound else "MISSES ITS BOUND"
                    ok &= gap <= bound
                    print(f"  {name:<18} {n:<12} gap {gap:7.4f}  "
                          f"bound {bound:.2f}  {verdict}")
            else:
                drift = [n for n in EXACT_ROWS
                         if metrics[n]["value"] != base[n]["value"]]
                ok &= not drift
                print(f"  {name:<18} exact rows "
                      + (f"DIFFER: {drift}" if drift else "identical"))
    return ok


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="passes start until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run only (per-layer metrics)")
    p.add_argument("--traced", action="store_true",
                   help="the untraced run and then the traced run")
    p.add_argument("--sets", type=int, default=1,
                   help="run everything K times and report the gaps")
    p.add_argument("--quick", action="store_true",
                   help="smoke: surface check, one reduced pass of "
                        "exhibits_test and vm_dense")
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from this commit")
    p.add_argument("--phase", choices=("setup", "work"),
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    if args.phase:
        sys.path.insert(0, str(SRC))
        import child
        return child.main(args)
    refuse_foreign_configuration()
    args.setup_runs = SETUP_RUNS
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if args.quick:
        subprocess.run([sys.executable, str(HERE / "check_surface.py")],
                       check=True)
        names = names if args.workload else ["exhibits_test", "vm_dense"]
        args.seconds, args.setup_runs = 0.0, 1
    if args.record:
        args.seed, args.seconds, args.setup_runs = DEFAULT_SEED, 0.0, 1
    elif (diff := golden_table_disagreement()) is not None:
        raise SystemExit(f"refusing to time this commit: expected.json and "
                         f"GOLDEN_CYCLES disagree on {diff}")
    modes = [True] if args.trace else [False, True] if args.traced else [False]
    work = WORK / f"run-{os.getpid()}"
    sets = []
    try:
        for k in range(args.sets):
            records = {}
            for name in names:
                for trace in modes:
                    record = measure(name, args, trace,
                                     work / f"{k}-{name}-{int(trace)}")
                    records[name, trace] = record
                    show(record)
            sets.append(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        write_expected(sets[0])
        return 0
    OUT.mkdir(exist_ok=True)
    report = {"provenance": provenance(),
              "sets": [list(records.values()) for records in sets]}
    (OUT / "latest.json").write_text(json.dumps(report, indent=1))
    ok = all(r["correct"] for records in sets for r in records.values())
    if args.sets > 1:
        ok &= noise_report(sets)
    last = list(sets[-1].values())
    print(json.dumps(contract_result(last[0]) if len(last) == 1 else {
        "correct": ok, "results": [
            contract_result(r) | {"workload": r["workload"],
                                  "trace": r["trace"]} for r in last]}))
    return 0 if ok or args.workload else 1


def write_expected(records: dict) -> None:
    units = {name: rec["units"] for (name, _), rec in records.items()}
    if EXPECTED.is_file() and len(units) < len(WORKLOAD_NAMES):
        units = json.loads(EXPECTED.read_text())["units"] | units
    lines = [f'  {json.dumps(name)}: {{\n' + ",\n".join(
        f"   {json.dumps(uid)}: {json.dumps(unit)}"
        for uid, unit in sorted(units[name].items())) + "\n  }"
        for name in sorted(units)]
    EXPECTED.write_text(f'{{\n "seed": {DEFAULT_SEED},\n "units": {{\n'
                        + ",\n".join(lines) + "\n }\n}\n")
    if (diff := golden_table_disagreement()) is not None:
        raise SystemExit(f"recorded, but exhibits_test disagrees with "
                         f"GOLDEN_CYCLES on {diff}")
    print(f"recorded {sum(map(len, units.values()))} units in {EXPECTED}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
