"""Every metric the benchmark prints: name, unit, better direction.

``BENCHMARK.json`` at the repository root carries the same two lists
(``check_surface.py`` fails when they drift apart).  End-to-end
metrics come from untraced runs and carry the bound by which they may
worsen; per-layer metrics come from the separate traced run and have
no bound.  A per-layer row that does not apply to a workload reads 0.
"""

DEFAULT_SEED = 2003

#: name -> one-line reason, as BENCHMARK.json records it.
WORKLOADS = {
    "exhibits_test": "The 28 golden units (Fig 2-5, test size, 4 CMPs): "
                     "every mode, sync policy and schedule at CI scale.",
    "exhibits_bench": "16 paper-scale units (bench size, 16 CMPs): the "
                      "memory path, mem+sim+runtime above half of CPU.",
    "vm_dense": "Seed-made compute-bound SlipC loop: generated code and "
                "interpreter dominate, the memory system is bypassed.",
    "harness_roundtrip": "120 tiny distinct units through publish, replay, "
                         "spool and pool: the harness does the work.",
}

#: (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

PACKAGES = ("interp", "runtime", "mem", "sim", "obs", "slipstream",
            "harness", "npb", "frontend", "other")
CALL_PACKAGES = ("interp", "runtime", "mem", "sim", "obs")
CYCLE_CATEGORIES = ("busy", "memory", "barrier", "lock", "scheduling",
                    "jobwait", "other")
RUN_KINDS = ("single", "double", "slipstream", "dynamic")

#: (name, unit, better)
PER_LAYER = (
    # spans: self seconds per traced pass
    [("lang.frontend_s", "s", "lower"),
     ("compiler.codegen_s", "s", "lower"),
     ("npb.cache.lookup_s", "s", "lower"),
     ("npb.cache.hit_frac", "frac", "higher"),
     ("runtime.build_s", "s", "lower"),
     ("runtime.run_s", "s", "lower")]
    + [(f"runtime.run_s.{k}", "s", "lower") for k in RUN_KINDS]
    + [("npb.verify_s", "s", "lower"),
       ("harness.plan_s", "s", "lower"),
       ("harness.pipeline_s", "s", "lower"),
       ("harness.store_s", "s", "lower"),
       ("harness.figures_s", "s", "lower"),
       ("interp.functional_pass_s", "s", "lower"),
       ("bench.self_s", "s", "lower"),
       ("bench.host_speed", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.self_sum_over_wall", "ratio", "higher"),
       # harness rows
       ("harness.publish.overhead_ms", "ms", "lower"),
       ("harness.resume.ms", "ms", "lower"),
       ("harness.memo.ms", "ms", "lower"),
       ("harness.memo.hit_frac", "frac", "higher"),
       ("harness.spool.overhead_ms", "ms", "lower"),
       ("harness.pool.wall_s", "s", "lower"),
       ("harness.telemetry.overhead_ms", "ms", "lower"),
       ("harness.integrity.roundtrip_us", "us", "lower"),
       ("harness.integrity.bytes_per_unit", "bytes", "lower"),
       # work counts of one pass: exact, identical from run to run
       ("runtime.sim_cycles", "count", "lower"),
       ("sim.engine.events", "count", "lower"),
       ("sim.engine.processes", "count", "lower"),
       ("mem.l1.accesses", "count", "lower"),
       ("mem.l1.misses", "count", "lower"),
       ("mem.l2.misses", "count", "lower"),
       ("mem.miss_transactions", "count", "lower"),
       ("mem.prefetch_ex", "count", "lower"),
       ("mem.invs_sent", "count", "lower"),
       ("mem.mshr_merges", "count", "lower"),
       ("runtime.barrier_episodes", "count", "lower"),
       ("runtime.lock_acquisitions", "count", "lower"),
       ("runtime.lock_contended_frac", "frac", "lower"),
       ("slipstream.tokens_consumed", "count", "lower"),
       ("slipstream.recoveries", "count", "lower"),
       ("slipstream.a_timely_frac.read", "frac", "higher"),
       ("slipstream.a_timely_frac.rdex", "frac", "higher"),
       # host time over the counts above
       ("runtime.host_us_per_kcycle", "us", "lower"),
       ("mem.host_us_per_access", "us", "lower"),
       ("sim.host_us_per_event", "us", "lower")]
    # simulated-time attribution of the R-streams, summing to 1
    + [(f"runtime.cycles_frac.{c}", "frac", "lower")
       for c in CYCLE_CATEGORIES]
    + [("slipstream.gain.static_avg", "frac", "higher"),
       ("slipstream.gain.dynamic_avg", "frac", "higher"),
       ("slipstream.paper_gap_pts.static", "pts", "higher"),
       ("slipstream.paper_gap_pts.dynamic", "pts", "higher"),
       # direct-drive microbenchmarks: host cost per operation
       ("interp.vm.bare_s", "s", "lower"),
       ("interp.functional_s", "s", "lower"),
       ("mem.cache.hit_ns", "ns", "lower"),
       ("mem.cache.fill_evict_ns", "ns", "lower"),
       ("mem.directory.op_ns", "ns", "lower"),
       ("mem.memsys.l2hit_us", "us", "lower"),
       ("mem.memsys.local_miss_us", "us", "lower"),
       ("mem.memsys.shared_rw_us", "us", "lower"),
       ("mem.memsys.prefetch_ex_us", "us", "lower"),
       ("sim.engine.timeout_ns", "ns", "lower"),
       ("sim.engine.event_fire_ns", "ns", "lower"),
       ("sim.server.serve_ns", "ns", "lower"),
       ("slipstream.channel.token_us", "us", "lower"),
       ("obs.sink.null_over_aggregate", "ratio", "lower"),
       ("obs.sink.trace_over_aggregate", "ratio", "lower"),
       ("obs.sink.profile_over_aggregate", "ratio", "lower"),
       ("obs.trace.events_per_unit", "count", "lower")]
    # cProfile of one pass: self time by package, and exact call counts
    + [(f"prof.{p}.self_frac", "frac", "lower") for p in PACKAGES]
    + [(f"prof.{p}.calls", "count", "lower") for p in CALL_PACKAGES]
    + [("prof.harness.replay_self_frac", "frac", "higher"),
       # outcome of the traced passes
       ("check.units", "count", "higher"),
       ("check.failed_frac", "frac", "lower"),
       ("check.golden_mismatch_units", "count", "lower")]
)

#: Rows that must repeat exactly between runs with one seed.
EXACT_ROWS = (
    [name for name, unit, _ in PER_LAYER
     if unit == "count"]
    + ["runtime.lock_contended_frac", "slipstream.a_timely_frac.read",
       "slipstream.a_timely_frac.rdex", "check.failed_frac",
       "slipstream.gain.static_avg", "slipstream.gain.dynamic_avg",
       "slipstream.paper_gap_pts.static", "slipstream.paper_gap_pts.dynamic"]
    + [f"runtime.cycles_frac.{c}" for c in CYCLE_CATEGORIES])
