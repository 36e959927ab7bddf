#!/usr/bin/env python3
"""Regenerate every paper exhibit: the 14 tables under ``results/``.

    PYTHONPATH=src python benchmarks/exhibits.py [-j N] [--memo]
                                                 [--size bench|test] [--cmps N]

An exhibit is a list of ``RunSpec``s and a renderer over the merged
runs.  Every exhibit's specs go into one ``SweepPlan`` run through one
``ExecutionPipeline``, so a row two exhibits share (Figure 2's SP
single and G0 are the latency ablation's 1.0x row) is simulated once;
``-j N`` is the pipeline's pool and ``--memo`` its run-result store, as
in ``repro bench``.  Figure 1 (an engine trace) and Table 1 (a latency
probe) simulate no machine: they are renderers without specs.  The
A-stream construct ablation runs a SlipC program that is not a
registry kernel; it is the one direct ``run_program`` call.

The defaults are the paper's scale (16 CMPs, ``bench`` size), and the
committed tables are their output: ``tests/test_paper_claims.py`` reads
them.  Any other scale rewrites the same files.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.harness import (DYNAMIC_BENCHMARKS, STATIC_BENCHMARKS,
                           ExecutionPipeline, MemoStore, PoolTransport,
                           RunSpec, SerialTransport, benchmark_inventory,
                           dynamic_specs, render_breakdowns,
                           render_classification, render_speedups,
                           render_table, static_specs, summary_gains)
from repro.mem import CoherentMemorySystem
from repro.mem.address import SHARED_BASE
from repro.npb import REGISTRY
from repro.runtime import run_program
from repro.sim import Engine
from repro.slipstream import PairChannel

RESULTS = pathlib.Path(__file__).parent / "results"


def suite(specs, runs):
    """{bench: {config: BenchRun}} of ``specs``, in spec order."""
    out = {}
    for spec in specs:
        out.setdefault(spec.bench, {})[spec.config] = runs[spec.key]
    return out


def sched_frac(run) -> float:
    """Share of the R-streams' time spent scheduling."""
    bd = run.result.r_breakdown
    return bd.get("scheduling", 0.0) / sum(bd.values())


def gain_line(label, gains):
    return f"{label}: " + ", ".join(f"{b.upper()}={g:.3f}"
                                   for b, g in sorted(gains.items()))


# -- Figures 2-5: the static and dynamic studies -----------------------------

def fig2_static(size, cfg):
    """§5.1: speedups over single mode and time breakdowns, static."""
    specs = static_specs(cfg, size, STATIC_BENCHMARKS,
                         ("single", "double", "G0", "L1"))

    def render(runs):
        s = suite(specs, runs)
        gains = summary_gains(s)
        return "\n".join([
            render_speedups(s, title=f"Figure 2a: speedup over single mode "
                                     f"(static scheduling, {cfg.n_cmps} "
                                     f"CMPs)"),
            "", gain_line("per-benchmark best-slip/best-base gains", gains),
            f"average gain: {sum(gains.values()) / len(gains):.3f}", "",
            render_breakdowns(s, title="Figure 2b: execution-time breakdown "
                                       "(normalized to single-mode total)")])
    return specs, render


def fig3_requests_static(size, cfg):
    """§5.1: shared-data fills as A/R x Timely/Late/Only, static."""
    specs, _ = fig2_static(size, cfg)

    def render(runs):
        s = suite(specs, runs)

        def avg(config, label):
            return sum(r[config].result.classes.breakdown("read")[label]
                       for r in s.values()) / len(s)

        cov = sum(r["G0"].result.classes.coverage("rdex")
                  for r in s.values()) / len(s)
        labels = ("A-Timely", "A-Late", "A-Only")
        return render_classification(
            s, configs=("G0", "L1"),
            title="Figure 3: shared-data request breakdown "
                  "(static scheduling, fraction of fills per kind)") + (
            "\n\naverages: " + "; ".join(
                f"{c} " + " ".join(f"{x}(read)={avg(c, x):.3f}"
                                   for x in labels) for c in ("G0", "L1"))
            + f"; G0 rdex coverage={cov:.3f}")
    return specs, render


def fig4_dynamic(size, cfg):
    """§5.2: dynamic scheduling, one task per CMP against G0."""
    specs = dynamic_specs(cfg, size, DYNAMIC_BENCHMARKS, ("single", "G0"))

    def render(runs):
        s = suite(specs, runs)
        gains = {b: r["single"].cycles / r["G0"].cycles for b, r in s.items()}
        scheds = {b: sched_frac(r["single"]) for b, r in s.items()}
        return "\n".join([
            render_speedups(s, title=f"Figure 4a: speedup over single mode "
                                     f"(dynamic scheduling, {cfg.n_cmps} "
                                     f"CMPs)"),
            "", gain_line("per-benchmark slipstream gain", gains),
            f"average gain: {sum(gains.values()) / len(gains):.3f}",
            gain_line("base scheduling-time fraction", scheds), "",
            render_breakdowns(s, title="Figure 4b: execution-time breakdown "
                                       "(dynamic scheduling)")])
    return specs, render


def fig5_requests_dynamic(size, cfg):
    """§5.2: shared-data fills under dynamic scheduling, G0."""
    specs, _ = fig4_dynamic(size, cfg)

    def render(runs):
        s = suite(specs, runs)
        reads = [r["G0"].result.classes.breakdown("read") for r in s.values()]
        cov = sum(r["G0"].result.classes.coverage("rdex")
                  for r in s.values()) / len(s)
        return render_classification(
            s, configs=("G0",),
            title="Figure 5: shared-data request breakdown "
                  "(dynamic scheduling, G0)") + (
            f"\n\naverages: "
            f"A-Timely(read)={sum(r['A-Timely'] for r in reads) / len(s):.3f} "
            f"A-Late(read)={sum(r['A-Late'] for r in reads) / len(s):.3f} "
            f"rdex coverage={cov:.3f}")
    return specs, render


# -- ablations and scaling ---------------------------------------------------

def grouped(specs, n):
    """``specs`` cut into consecutive groups of ``n``: one per row."""
    return [specs[i:i + n] for i in range(0, len(specs), n)]


def ablation_chunksize(size, cfg):
    """§3.2.2: CG under dynamic scheduling across chunk sizes."""
    n = REGISTRY["cg"].params(size)["n"]
    chunks = sorted({max(1, n // 64), max(1, n // 32),
                     max(1, n // (2 * cfg.n_cmps)), max(1, n // 8)})
    specs = [RunSpec.make("cg", c, size=size, schedule=("dynamic", chunk),
                          cfg=cfg)
             for chunk in chunks for c in ("single", "G0")]

    def render(runs):
        rows = [[single.schedule[1], f"{runs[single.key].cycles:.0f}",
                 f"{runs[g0.key].cycles:.0f}",
                 f"{runs[single.key].cycles / runs[g0.key].cycles:.3f}",
                 f"{sched_frac(runs[single.key]):.3f}"]
                for single, g0 in grouped(specs, 2)]
        return render_table(["chunk", "single cycles", "slip-G0 cycles",
                             "slip gain", "sched fraction (single)"], rows,
                            "Ablation: CG dynamic-scheduling chunk size")
    return specs, render


def ablation_ep_affinity(size, cfg):
    """§3.2.2: the dynamic/static penalty of EP (no reuse) and CG."""
    chunk = {"ep": REGISTRY["ep"].params(size)["n"] // (4 * cfg.n_cmps),
             "cg": REGISTRY["cg"].params(size)["n"] // (2 * cfg.n_cmps)}
    specs = [RunSpec.make(b, "single", size=size, schedule=sched, cfg=cfg)
             for b in ("ep", "cg")
             for sched in (None, ("dynamic", max(1, chunk[b])))]

    def render(runs):
        rows = [[static.bench.upper(), f"{runs[static.key].cycles:.0f}",
                 f"{runs[dynamic.key].cycles:.0f}",
                 f"{runs[dynamic.key].cycles / runs[static.key].cycles:.3f}"]
                for static, dynamic in grouped(specs, 2)]
        return render_table(["bench", "static cycles", "dynamic cycles",
                             "dynamic/static"], rows,
                            "Ablation: dynamic-scheduling penalty, "
                            "EP (no reuse) vs CG (iterative reuse)")
    return specs, render


NET_SCALES = (0.5, 1.0, 2.0)


def ablation_latency(size, cfg):
    """§1: SP's slipstream gain at 0.5x, 1x and 2x the Table-1 NetTime."""
    specs = [RunSpec.make("sp", c, size=size,
                          cfg=cfg.with_(net_time_ns=cfg.net_time_ns * scale))
             for scale in NET_SCALES for c in ("single", "G0")]

    def render(runs):
        rows = [[f"{scale:.1f}x", f"{single.cfg.remote_miss_ns:.0f}",
                 f"{runs[single.key].cycles:.0f}",
                 f"{runs[g0.key].cycles:.0f}",
                 f"{runs[single.key].cycles / runs[g0.key].cycles:.3f}"]
                for scale, (single, g0) in zip(NET_SCALES, grouped(specs, 2))]
        return render_table(["NetTime scale", "remote miss (ns)",
                             "single cycles", "slip-G0 cycles", "slip gain"],
                            rows, "Ablation: SP slipstream gain vs "
                                  "interconnect latency")
    return specs, render


def ablation_selfinv(size, cfg):
    """§2, §3.2.1: epoch-based self-invalidation under one-token global
    sync, off (the default) and on."""
    specs = [RunSpec.make(b, "G1", size=size, cfg=cfg, **on)
             for b in ("sp", "mg") for on in ({}, {"selfinv": True})]

    def render(runs):
        rows = [[off.bench.upper(), f"{runs[off.key].cycles:.0f}",
                 f"{runs[on.key].cycles:.0f}",
                 f"{runs[off.key].cycles / runs[on.key].cycles:.3f}"]
                for off, on in grouped(specs, 2)]
        return render_table(["bench", "selfinv OFF (cycles)",
                             "selfinv ON (cycles)", "ON speedup vs OFF"],
                            rows, "Ablation: epoch-based self-invalidation "
                                  "(one-token global sync)")
    return specs, render


#: The slipstream directive's parameter space: insertion point x tokens.
TOKEN_SWEEP = ([("GLOBAL_SYNC", t) for t in (0, 1, 2)]
               + [("LOCAL_SYNC", t) for t in (1, 2, 4)])


def ablation_tokens(size, cfg):
    """§2.2, §3.3: the token count and insertion point, CG and SP."""
    configs = ("single",) + tuple(f"{sync[0]}{tokens}"       # G<n>, L<n>
                                  for sync, tokens in TOKEN_SWEEP)
    specs = static_specs(cfg, size, ("cg", "sp"), configs)

    def render(runs):
        rows = []
        for single, *slips in grouped(specs, len(configs)):
            base = runs[single.key].cycles
            for (sync, tokens), s in zip(TOKEN_SWEEP, slips):
                rows.append([s.bench.upper(), sync, tokens,
                             f"{runs[s.key].cycles:.0f}",
                             f"{base / runs[s.key].cycles:.3f}"])
        return render_table(["bench", "sync", "tokens", "cycles",
                             "speedup vs single"], rows,
                            "Ablation: A-R synchronization policy sweep")
    return specs, render


#: A larger CG than the Figure-2 size, so the 4-CMP end of the curve
#: still scales and the 16-CMP end sits at the communication knee.
SCALING_PARAMS = dict(n=4096, nnz=8, iters=2)


def scaling(size, cfg):
    """§1, §7: fixed-size CG across 4, 8 and 16 CMPs."""
    params = SCALING_PARAMS if size == "bench" else None
    specs = [RunSpec.make("cg", c, size=size, params=params,
                          cfg=PAPER_MACHINE.with_(n_cmps=n))
             for n in (4, 8, 16) for c in ("single", "double", "G0")]

    def render(runs):
        rows = [[single.cfg.n_cmps] + [f"{runs[s.key].cycles:.0f}"
                                       for s in (single, double, g0)]
                + [f"{runs[single.key].cycles / runs[g0.key].cycles:.3f}"]
                for single, double, g0 in grouped(specs, 3)]
        return render_table(["CMPs", "single", "double", "slipstream (G0)",
                             "slip speedup vs single"], rows,
                            "CG fixed-size scaling across machine widths")
    return specs, render


CONSTRUCTS = """
double hist[64];
double counter;
int i;
void main() {
    int it;
    counter = 0.0;
    #pragma omp parallel for
    for (i = 0; i < 64; i = i + 1) hist[i] = 0.0;
    #pragma omp parallel private(it)
    {
        for (it = 0; it < 4; it = it + 1) {
            #pragma omp for
            for (i = 0; i < 512; i = i + 1) {
                #pragma omp atomic
                hist[(i * 37) % 64] = hist[(i * 37) % 64] + 1.0;
            }
            #pragma omp for
            for (i = 0; i < 128; i = i + 1) {
                #pragma omp critical
                { counter = counter + 1.0; }
            }
        }
    }
    print("counter", counter);
}
"""


def ablation_constructs(size, cfg):
    """§3.1: A-streams skip critical sections (the paper's policy) or
    execute them, on an atomic/critical-heavy program -- the one
    exhibit whose program is not a registry kernel, run directly."""
    def render(_runs):
        rows = []
        for a_exec, policy in ((False, "A skips critical (paper §3.1)"),
                               (True, "A executes critical (ablation)")):
            r = run_program(compile_source(CONSTRUCTS), cfg=cfg,
                            mode="slipstream", a_exec_critical=a_exec)
            if (r.store.value("counter") != 4 * 128.0
                    or float(sum(r.store.array("hist"))) != 4 * 512.0):
                raise AssertionError(f"{policy}: wrong counts")
            rows.append([policy, f"{r.cycles:.0f}",
                         f"{r.r_breakdown.get('lock', 0):.0f}"])
        return render_table(["policy", "cycles", "R lock time"], rows,
                            "Ablation: A-stream critical-section policy "
                            "(atomic/critical-heavy workload)")
    return [], render


# -- exhibits that simulate no machine ---------------------------------------

def table1_parameters(size, cfg):
    """Table 1, and the latencies the protocol engine composes from it:
    local and remote clean miss (170 and 290 ns in the paper), and a
    dirty three-hop miss (node 1 owns, node 2 reads, home is node 0)."""
    def render(_runs):
        probe = PAPER_MACHINE.with_(placement="round_robin")
        eng = Engine()
        ms = CoherentMemorySystem(eng, probe)
        line = SHARED_BASE + 2 * probe.line_bytes
        local = eng.run_process(ms.load(0, 0, SHARED_BASE))
        remote = eng.run_process(ms.load(0, 0, SHARED_BASE + probe.page_bytes))
        eng.run_process(ms.store(1, 0, line))
        dirty = eng.run_process(ms.load(2, 0, line))
        rows = [[k, v] for k, v in PAPER_MACHINE.describe().items()] + [
            ["measured local L2 miss", f"{probe.ns(local.cycles):.1f}"],
            ["measured remote clean miss", f"{probe.ns(remote.cycles):.1f}"],
            ["measured remote dirty (3-hop) miss",
             f"{probe.ns(dirty.cycles):.1f}"],
            ["measured L2 hit (cycles)", probe.l2.hit_cycles],
            ["measured L1 hit (cycles)", probe.l1.hit_cycles]]
        return render_table(["parameter", "value"], rows,
                            "Table 1: simulated system parameters "
                            "(paper values + measured latencies)")
    return [], render


def table2_benchmarks(size, cfg):
    """Table 2: the kernels, and one test-size run of each at 4 CMPs."""
    rows = benchmark_inventory()
    specs = [RunSpec.make(r["benchmark"].lower(), "single", size="test",
                          cfg=PAPER_MACHINE.with_(n_cmps=4)) for r in rows]

    def render(runs):
        cells = [list(r.values()) + [int(runs[s.key].cycles)]
                 for r, s in zip(rows, specs)]
        return render_table(list(rows[0]) + ["test cycles (4 CMPs)"], cells,
                            "Table 2: mini-NPB benchmark inventory")
    return specs, render


#: R-stream and A-stream work per session (cycles), and the barrier.
R_PERIOD, A_PERIOD, BARRIER = 1000.0, 400.0, 50.0


def token_trace(sync: str, tokens: int, sessions: int = 4):
    """One A-R pair through ``sessions`` barriers on the event engine."""
    eng = Engine()
    ch = PairChannel(eng, 0)
    ch.begin_region(sync, tokens)
    events = []

    def r_stream():
        for k in range(sessions):
            yield R_PERIOD
            events.append((eng.now, "R", f"enter barrier {k}"))
            if sync == "LOCAL_SYNC":
                ch.insert_token()
                events.append((eng.now, "R", f"insert token (entry {k})"))
            yield BARRIER
            events.append((eng.now, "R", f"exit barrier {k}"))
            if sync == "GLOBAL_SYNC":
                ch.insert_token()
                events.append((eng.now, "R", f"insert token (exit {k})"))

    def a_stream():
        for k in range(sessions):
            yield A_PERIOD
            events.append((eng.now, "A", f"reach barrier {k}"))
            yield from ch.consume_token()
            events.append((eng.now, "A", f"consume token, skip {k}"))

    eng.process(r_stream(), name="R")
    eng.process(a_stream(), name="A")
    eng.run()
    return events


def fig1_token_sync(size, cfg):
    """Figure 1: the token mechanism traced live for both policies."""
    def render(_runs):
        rows = [[f"{t:7.0f}", policy, stream, what]
                for policy, sync, tokens in (
                    ("one-token local", "LOCAL_SYNC", 1),
                    ("zero-token global", "GLOBAL_SYNC", 0))
                for t, stream, what in token_trace(sync, tokens)]
        return render_table(["cycle", "policy", "stream", "event"], rows,
                            "Figure 1: A-R token synchronization trace")
    return [], render


EXHIBITS = (fig1_token_sync, fig2_static, fig3_requests_static, fig4_dynamic,
            fig5_requests_dynamic, table1_parameters, table2_benchmarks,
            ablation_chunksize, ablation_constructs, ablation_ep_affinity,
            ablation_latency, ablation_selfinv, ablation_tokens, scaling)


def build(size: str, cfg):
    """{exhibit name: (specs, render)} at one scale."""
    return {ex.__name__: ex(size, cfg) for ex in EXHIBITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                    help="run the distinct simulations on the driver plus "
                         "N-1 forked workers (default: CPU count; -j 1 "
                         "serial)")
    ap.add_argument("--memo", action="store_true",
                    help="serve repeated units from the run-result store")
    ap.add_argument("--size", default="bench", choices=["test", "bench"])
    ap.add_argument("--cmps", type=int, default=16,
                    help="number of dual-processor CMP nodes (default 16)")
    args = ap.parse_args(argv)
    exhibits = build(args.size, PAPER_MACHINE.with_(n_cmps=args.cmps))
    pipe = ExecutionPipeline(
        transport=(SerialTransport() if args.jobs is not None
                   and args.jobs <= 1 else PoolTransport(jobs=args.jobs)),
        memo=MemoStore() if args.memo else None)
    runs = pipe.map([s for specs, _ in exhibits.values() for s in specs])
    RESULTS.mkdir(exist_ok=True)
    for name, (_, render) in exhibits.items():
        (RESULTS / f"{name}.txt").write_text(render(runs) + "\n")
    print(f"{len(exhibits)} tables written to {RESULTS}")
    print(pipe.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
