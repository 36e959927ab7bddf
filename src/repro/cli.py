"""Command-line front end: compile and run SlipC/OpenMP programs on the
simulated machine.

Usage (also via ``python -m repro``)::

    python -m repro run prog.c --mode slipstream --cmps 16 \\
        --slipstream LOCAL_SYNC,1 --schedule dynamic,8
    python -m repro compile prog.c --disasm
    python -m repro check prog.c          # shared/private classification
    python -m repro bench cg mg --size test --cmps 4
    python -m repro run prog.c --mode slipstream --profile prog.folded
    python -m repro chaos --seeds 2 -j 2 --report chaos.json
    python -m repro chaos --harness       # pipeline crash-consistency

This is the analogue of driving the paper's toolchain: one compiled
image, execution mode and slipstream policy chosen at run time.

Exit codes (scripts and CI key off these)::

    0  success
    1  failure (compile error, oracle violation, failed chaos matrix)
    2  bad arguments / missing file / unknown benchmark or class
    4  watchdog deadlock (SimDeadlockError; see --timeout-cycles)
    5  sweep completed with quarantined poison units (their rows are
       loud placeholder failures, not results)
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from .compiler import compile_source, disassemble
from .config import PAPER_MACHINE
from .harness import render_speedups, run_static_suite
from .hotpath import hotpath_tiers
from .interp import FunctionalRunner
from .lang import analyze, parse
from .lang.errors import CompileError
from .runtime import RuntimeEnv, SimDeadlockError, run_program
from .runtime.env import parse_slipstream

__all__ = ["main"]


def _machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cmps", type=int, default=16,
                   help="number of dual-processor CMP nodes (default 16)")


def _pipeline_args(p: argparse.ArgumentParser) -> None:
    """Execution-pipeline knobs shared by the sweep verbs."""
    p.add_argument("--resume", metavar="DIR", default=None,
                   help="checkpoint every finished unit under DIR and "
                        "resume from whatever a previous (possibly "
                        "killed) sweep already completed there")
    p.add_argument("--memo", action="store_true",
                   help="serve repeat (program, config, seed, hotpath, "
                        "faults) runs from the content-addressed "
                        "run-result memo store (REPRO_MEMO_DIR, default "
                        "~/.cache/repro/results)")
    p.add_argument("--telemetry", metavar="DIR", default=None,
                   help="record the wall-clock telemetry event log "
                        "under DIR ('python -m repro.obs.telemetry DIR "
                        "--trace OUT.json' exports its wall-clock "
                        "timeline)")


def _verbosity_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiet", action="store_true",
                   help="errors only on the console")


def _chaos_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout-cycles", type=float, default=None,
                   metavar="N",
                   help="watchdog: abort the simulation with a blocked-"
                        "process report once N cycles elapse")
    p.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                   help="arm deterministic fault injection with this seed "
                        "(all fault classes)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Slipstream-OpenMP compiler + simulated CMP machine")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="compile and simulate a program")
    runp.add_argument("file")
    runp.add_argument("--mode", default="single",
                      choices=["single", "double", "slipstream",
                               "functional"])
    _machine_args(runp)
    runp.add_argument("--slipstream", metavar="TYPE[,TOKENS]",
                      help="OMP_SLIPSTREAM value (e.g. LOCAL_SYNC,1)")
    runp.add_argument("--schedule", metavar="KIND[,CHUNK]",
                      help="OMP_SCHEDULE value (for schedule(runtime))")
    runp.add_argument("--num-threads", type=int, help="OMP_NUM_THREADS")
    runp.add_argument("--inputs", type=float, nargs="*", default=None,
                      help="values consumed by read_input()")
    runp.add_argument("--stats", action="store_true",
                      help="print time breakdown and request classes")
    runp.add_argument("--selfinv", action="store_true",
                      help="enable slipstream self-invalidation")
    runp.add_argument("--trace", metavar="OUT.json",
                      help="write a Chrome trace-event timeline of the "
                           "run (open in Perfetto / chrome://tracing)")
    runp.add_argument("--profile", metavar="OUT.folded",
                      help="profile the run cycle-exactly per source "
                           "line; write collapsed stacks (flamegraph.pl "
                           "input) to OUT and print the hot-line table")
    _chaos_args(runp)

    comp = sub.add_parser("compile", help="compile only; report the image")
    comp.add_argument("file")
    comp.add_argument("--disasm", action="store_true",
                      help="print a bytecode listing")

    chk = sub.add_parser("check",
                         help="front-end analysis: per-region "
                              "shared/private classification")
    chk.add_argument("file")

    ben = sub.add_parser("bench", help="run mini-NPB benchmarks")
    ben.add_argument("names", nargs="*", default=[],
                     help="benchmarks (default: all of bt cg lu mg sp)")
    ben.add_argument("--size", default="test", choices=["test", "bench"])
    ben.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                     help="run the suite's independent simulations on a "
                          "process pool of N workers (results are "
                          "bit-identical to -j 1; default serial)")
    ben.add_argument("--trace", metavar="OUT.json",
                     help="write a merged Chrome trace-event timeline "
                          "(one process per benchmark run)")
    ben.add_argument("--profile", metavar="OUT.txt",
                     help="profile every run; write merged collapsed "
                          "stacks to OUT and print the hot-line table")
    _machine_args(ben)
    _chaos_args(ben)
    _pipeline_args(ben)
    _verbosity_args(ben)

    cha = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection matrix with the output oracle")
    cha.add_argument("names", nargs="*", default=[],
                     help="benchmarks (default: cg lu mg)")
    cha.add_argument("--size", default="test", choices=["test", "bench"])
    cha.add_argument("--seeds", type=int, default=None, metavar="N",
                     help="fault seeds per benchmark/scenario (default 2)")
    cha.add_argument("--chaos-seed", type=int, default=0, metavar="SEED",
                     help="base seed the matrix seeds derive from")
    cha.add_argument("--classes", default=None, metavar="C1,C2",
                     help="restrict to one scenario arming exactly these "
                          "fault classes (default: one scenario per class "
                          "plus all classes together)")
    cha.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                     help="process-pool workers (default serial)")
    cha.add_argument("--timeout-cycles", type=float, default=None,
                     metavar="N",
                     help="per-run watchdog budget (default 5e6)")
    cha.add_argument("--report", metavar="OUT.json",
                     help="write the full machine-readable report")
    cha.add_argument("--harness", action="store_true",
                     help="run the execution-harness hazard matrix "
                          "(corrupt publishes, disk-full, lease races, "
                          "worker kills) instead of the simulator fault "
                          "matrix; every sweep must merge bit-identical "
                          "to a hazard-free baseline")
    cha.add_argument("--workdir", metavar="DIR", default=None,
                     help="(--harness) scenario working directory "
                          "(default: a fresh temp dir)")
    _machine_args(cha)
    _pipeline_args(cha)
    _verbosity_args(cha)
    return ap


def _setup_logging(args) -> None:
    """Map --quiet onto the ``repro`` logger tree: the sweep verbs
    print warnings (reaped leases, dead workers, quarantines) unless
    quieted to errors."""
    logging.basicConfig(stream=sys.stderr, format="%(message)s")
    logging.getLogger("repro").setLevel(
        logging.ERROR if args.quiet else logging.WARNING)


def _pipeline_from_args(args):
    """Build the execution pipeline a sweep verb asked for: transport
    from --jobs, checkpoint journal from --resume, memo store from
    --memo, telemetry from --telemetry."""
    from .harness import (CheckpointJournal, ExecutionPipeline, MemoStore,
                          PoolTransport, SerialTransport, Telemetry)
    return ExecutionPipeline(
        transport=(PoolTransport(jobs=args.jobs)
                   if args.jobs and args.jobs > 1 else SerialTransport()),
        journal=CheckpointJournal(args.resume) if args.resume else None,
        memo=MemoStore() if args.memo else None,
        telemetry=Telemetry(root=args.telemetry) if args.telemetry else None)


def _reject_unread(args, flags, path: str) -> bool:
    """True -- after one line on stderr naming them -- when any of
    ``flags`` was given although ``path`` never reads it (the caller
    exits 2: a silently ignored flag is a wrong answer in waiting)."""
    given = [f for f in flags
             if getattr(args, f[2:].replace("-", "_")) not in (None, False)]
    if given:
        print(f"error: {path} does not read {', '.join(given)}",
              file=sys.stderr)
    return bool(given)


def _write_profile(path: str, profiles, title: str, out) -> None:
    """The one profile output of ``run`` and ``bench``: collapsed
    stacks (flamegraph.pl input) of every profile in ``profiles``
    ({label: profile}, the label as root frame) written to ``path``,
    and the top-20 hot-line table over all of them on ``out``."""
    from .harness import profile_table
    from .obs import collapsed_stacks, write_collapsed
    combined = {}
    stacks = []
    for label, profile in profiles.items():
        stacks.extend(collapsed_stacks(profile, label=label))
        for track, data in profile.items():
            combined[f"{label}:{track}"] = data
    write_collapsed(path, stacks)
    print(profile_table(combined, title=title), file=out)
    print(f"collapsed stacks written to {path} ({len(stacks)} lines, "
          f"{len(profiles)} run(s))", file=out)


def _env_from_args(args) -> RuntimeEnv:
    env = RuntimeEnv()
    if getattr(args, "slipstream", None):
        env.slipstream = parse_slipstream(args.slipstream)
        env.slipstream_set = True
    if getattr(args, "schedule", None):
        parts = args.schedule.split(",")
        env.schedule = (parts[0].strip().lower(),
                        int(parts[1]) if len(parts) > 1 else None)
    if getattr(args, "num_threads", None):
        env.num_threads = args.num_threads
    return env


def _cmd_run(args, out) -> int:
    source = open(args.file).read()
    image = compile_source(source)
    if args.mode == "functional":
        if _reject_unread(args, ("--slipstream", "--schedule",
                                 "--num-threads", "--stats", "--selfinv",
                                 "--trace", "--profile", "--timeout-cycles",
                                 "--chaos-seed"), "--mode functional"):
            return 2
        runner = FunctionalRunner(image, inputs=args.inputs).run()
        for row in runner.output:
            print(*row, file=out)
        return 0
    cfg = PAPER_MACHINE.with_(n_cmps=args.cmps)
    kw = {}
    if args.chaos_seed is not None:
        from .faults import FaultConfig
        kw["faults"] = FaultConfig(args.chaos_seed)
    if args.timeout_cycles is not None:
        kw["max_cycles"] = args.timeout_cycles
    result = run_program(image, cfg=cfg, mode=args.mode,
                         env=_env_from_args(args), inputs=args.inputs,
                         selfinv=args.selfinv,
                         obs=("trace" if args.trace else
                              "profile" if args.profile else "aggregate"),
                         **kw)
    for row in result.output:
        print(*row, file=out)
    if args.trace:
        from .obs import write_trace
        write_trace(args.trace, result.trace)
        print(f"trace written to {args.trace} "
              f"({len(result.trace)} events)", file=out)
    print(f"[{args.mode}] {result.cycles:,.0f} cycles on {args.cmps} CMPs",
          file=out)
    if args.profile:
        _write_profile(args.profile, {args.mode: result.profile},
                       f"hot lines ({args.file})", out)
    if result.faults is not None:
        print(f"  chaos: seed {args.chaos_seed}, "
              f"{len(result.faults['fired'])} injection(s), "
              f"{len(result.recoveries)} recovery(ies)", file=out)
    if args.stats:
        for cat, frac in sorted(result.breakdown_fractions().items(),
                                key=lambda kv: -kv[1]):
            print(f"  {cat:<12} {frac:6.3f}", file=out)
        if args.mode == "slipstream":
            for kind in ("read", "rdex"):
                brk = result.classes.breakdown(kind)
                row = " ".join(f"{k}={v:.2f}" for k, v in brk.items() if v)
                print(f"  {kind:<5} fills: {row}", file=out)
            if result.recoveries:
                print(f"  recoveries: {len(result.recoveries)}", file=out)
            if args.selfinv:
                print("  selfinv_drops: "
                      f"{result.mem_stats.get('selfinv_drops')}", file=out)
    return 0


def _cmd_compile(args, out) -> int:
    image = compile_source(open(args.file).read())
    print(f"{args.file}: {len(image.globals)} shared globals, "
          f"{len(image.funcs)} functions "
          f"({sum(1 for f in image.funcs if f.is_region)} outlined "
          f"regions), {image.n_instructions} instructions, "
          f"{len(image.sites)} synchronization sites", file=out)
    if args.disasm:
        for code in image.funcs:
            print(file=out)
            print(disassemble(code), file=out)
    return 0


def _cmd_check(args, out) -> int:
    program = parse(open(args.file).read())
    info = analyze(program)
    print(f"{args.file}: {len(info.globals)} shared globals, "
          f"{len(info.funcs)} functions, {len(info.regions)} parallel "
          f"regions", file=out)
    for i, region in enumerate(info.regions):
        print(f"  region {i} (in {region.func}, line {region.line}):",
              file=out)
        print(f"    shared refs : {sorted(region.shared_refs)}", file=out)
        print(f"    private     : {sorted(region.private)}", file=out)
        if region.firstprivate:
            print(f"    firstprivate: {sorted(region.firstprivate)}",
                  file=out)
        if region.captured:
            print(f"    captured    : {sorted(region.captured)}", file=out)
        for red in region.reductions:
            print(f"    reduction   : {red.op}: {red.names}", file=out)
        for s in region.schedules:
            print(f"    schedule    : {s.kind}"
                  f"{',' + str(s.chunk) if s.chunk else ''}", file=out)
    return 0


def _cmd_bench(args, out) -> int:
    from .npb import REGISTRY
    _setup_logging(args)
    names = args.names or sorted(REGISTRY)
    bad = [n for n in names if n not in REGISTRY]
    if bad:
        print(f"unknown benchmark(s): {bad}", file=sys.stderr)
        return 2
    cfg = PAPER_MACHINE.with_(n_cmps=args.cmps)
    kw = {}
    if args.trace:
        kw["obs"] = "trace"
    elif args.profile:
        kw["obs"] = "profile"
    if args.chaos_seed is not None:
        from .faults import FaultConfig
        kw["faults"] = FaultConfig(args.chaos_seed)
    if args.timeout_cycles is not None:
        kw["timeout_cycles"] = args.timeout_cycles
    context = _pipeline_from_args(args)
    suite = run_static_suite(cfg=cfg, size=args.size, benchmarks=names,
                             context=context, **kw)
    print(render_speedups(
        suite, title=f"mini-NPB ({args.size} size, {args.cmps} CMPs)"),
        file=out)
    print(context.summary(), file=out)
    if args.trace:
        from .obs import merge_traces, write_trace
        items = [(f"{bench}:{cfg_name}", run.result.trace)
                 for bench, runs in suite.items()
                 for cfg_name, run in runs.items()
                 if run.result.trace is not None]
        merged = merge_traces(items)
        write_trace(args.trace, merged)
        print(f"trace written to {args.trace} ({len(merged)} events, "
              f"{len(items)} runs)", file=out)
    if args.profile:
        _write_profile(args.profile,
                       {f"{bench}:{cfg_name}": run.result.profile
                        for bench, runs in suite.items()
                        for cfg_name, run in runs.items()
                        if run.result.profile},
                       "hot lines (all runs)", out)
    context.telemetry.close()
    return _report_health(context)


def _report_health(context) -> int:
    """Surface transport health as an exit code (see the module
    docstring's table): 5 when the sweep completed with quarantined
    poison units -- their merged rows are loud placeholder failures,
    not results.  A worker lost on the way costs a re-execution, not a
    result, so it only shows in the transport's notes."""
    if not getattr(context, "quarantined", False):
        return 0
    for ev in getattr(context, "events", []):
        print(f"warning: {ev}", file=sys.stderr)
    units = getattr(context, "quarantined_units", [])
    print(f"warning: sweep completed with {len(units) or 'some'} "
          f"quarantined poison unit(s); their rows are placeholder "
          f"failures, not results", file=sys.stderr)
    return 5


def _cmd_chaos(args, out) -> int:
    from .harness.chaos import (CHAOS_BENCHMARKS, DEFAULT_TIMEOUT_CYCLES,
                                chaos_specs, render_chaos, run_chaos)
    from .npb import REGISTRY
    _setup_logging(args)
    if args.harness:
        return _cmd_harness_chaos(args, out)
    if _reject_unread(args, ("--workdir",),
                      "the fault matrix (no --harness)"):
        return 2
    names = tuple(args.names) or CHAOS_BENCHMARKS
    bad = [n for n in names if n not in REGISTRY]
    if bad:
        print(f"unknown benchmark(s): {bad}", file=sys.stderr)
        return 2
    classes = ([tuple(args.classes.split(","))] if args.classes else None)
    if classes:
        from .faults import FAULT_CLASSES
        bad_cls = [c for c in classes[0] if c not in FAULT_CLASSES]
        if bad_cls:
            print(f"unknown fault class(es): {bad_cls} (choose from "
                  f"{', '.join(FAULT_CLASSES)})", file=sys.stderr)
            return 2
    specs = chaos_specs(
        benchmarks=names, seeds=2 if args.seeds is None else args.seeds,
        base_seed=args.chaos_seed,
        classes=classes, size=args.size,
        cfg=PAPER_MACHINE.with_(n_cmps=args.cmps),
        timeout_cycles=args.timeout_cycles or DEFAULT_TIMEOUT_CYCLES)
    context = _pipeline_from_args(args)
    report = run_chaos(specs, context=context)
    print(render_chaos(report, title=f"chaos matrix ({args.size} size, "
                                     f"{args.cmps} CMPs)"), file=out)
    print(context.summary(), file=out)
    if args.report:
        import json
        with open(args.report, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"report written to {args.report}", file=out)
    context.telemetry.close()
    if not report.ok:
        failed = [o for o in report.outcomes if not o.ok]
        print(f"error: {len(failed)} of {len(report.outcomes)} scenarios "
              f"violated the fault-tolerance invariant "
              f"({', '.join(sorted({o.status for o in failed}))})",
              file=sys.stderr)
        return 1
    return _report_health(context)


def _cmd_harness_chaos(args, out) -> int:
    """``repro chaos --harness``: the pipeline crash-consistency matrix
    (:func:`repro.harness.chaos.run_harness_chaos`).  Exit 1 when any
    scenario loses or corrupts a result, 5 when the matrix itself
    quarantined poison units, 0 on a clean pass."""
    import json
    import tempfile

    from .harness.chaos import render_harness_chaos, run_harness_chaos
    from .harness.hazards import HAZARD_CLASSES
    from .npb import REGISTRY
    if _reject_unread(args, ("--seeds", "--jobs", "--timeout-cycles",
                             "--resume", "--memo", "--telemetry"),
                      "chaos --harness"):
        return 2
    names = tuple(args.names) or ("cg",)
    bad = [n for n in names if n not in REGISTRY]
    if bad:
        print(f"unknown benchmark(s): {bad}", file=sys.stderr)
        return 2
    classes = ([tuple(args.classes.split(","))] if args.classes else None)
    if classes:
        bad_cls = [c for c in classes[0] if c not in HAZARD_CLASSES]
        if bad_cls:
            print(f"unknown hazard class(es): {bad_cls} (choose from "
                  f"{', '.join(HAZARD_CLASSES)})", file=sys.stderr)
            return 2
    workdir = args.workdir or tempfile.mkdtemp(
        prefix="repro-harness-chaos-")
    report = run_harness_chaos(
        workdir, benchmarks=names, size=args.size,
        cfg=PAPER_MACHINE.with_(n_cmps=args.cmps), classes=classes,
        base_seed=args.chaos_seed)
    print(render_harness_chaos(
        report, title=f"harness chaos matrix ({args.size} size, "
                      f"{args.cmps} CMPs)"), file=out)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"report written to {args.report}", file=out)
    if not report.ok:
        failed = [o for o in report.outcomes if not o.ok]
        print(f"error: {len(failed)} of {len(report.outcomes)} harness "
              f"scenario(s) violated the crash-consistency invariant",
              file=sys.stderr)
        return 1
    if report.total_quarantined:
        print(f"warning: {report.total_quarantined} poison unit(s) were "
              f"quarantined during the matrix", file=sys.stderr)
        return 5
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        hotpath_tiers()         # latch REPRO_HOTPATH; rejects unknown tiers
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "trace", None) and getattr(args, "profile", None):
        print("--trace and --profile are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        if args.cmd == "run":
            return _cmd_run(args, out)
        if args.cmd == "compile":
            return _cmd_compile(args, out)
        if args.cmd == "check":
            return _cmd_check(args, out)
        if args.cmd == "bench":
            return _cmd_bench(args, out)
        if args.cmd == "chaos":
            return _cmd_chaos(args, out)
    except CompileError as e:
        print(f"compile error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SimDeadlockError as e:
        # One actionable line, not a traceback: which run, how far it
        # got, and that --timeout-cycles / the deadlock detector fired.
        print(f"error: {e.summary}", file=sys.stderr)
        print("hint: raise --timeout-cycles if the run just needs more "
              "budget; e.blocked (SimDeadlockError) lists every blocked "
              "process and what it is waiting on", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
