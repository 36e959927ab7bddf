"""The simulated machine: builds the hardware, places the streams,
loads a compiled image, and runs it to completion.

Three execution modes, as evaluated in the paper (§5.1):

* ``single``     -- one task per CMP, the second processor idle;
* ``double``     -- two tasks per CMP (maximum parallelism);
* ``slipstream`` -- one task per CMP run redundantly: the R-stream on
  processor 0, its reduced A-stream on processor 1.

The same compiled image runs in every mode; slipstream behaviour is
steered by ``OMP_SLIPSTREAM`` / the slipstream directive at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler.bytecode import CompiledProgram
from ..config.machine import MachineConfig, PAPER_MACHINE
from ..faults import CLASS_KINDS, FaultConfig, FaultPlan
from ..interp.funcrunner import GlobalStore
from ..mem.address import SHARED_BASE, SHARED_LIMIT
from ..mem.memsys import CoherentMemorySystem
from ..obs import make_sink
from ..sim import Engine
from ..slipstream.channel import PairChannel
from .env import RuntimeEnv
from .shell import ThreadShell
from .team import Team
from .words import RTWord

__all__ = ["Machine", "RunResult", "run_program", "MODES",
           "SimDeadlockError", "DeadlockError"]

MODES = ("single", "double", "slipstream")

#: Runtime-internal words live in the top half of the shared segment so
#: they can be excluded from the Figure-3/5 shared-data classification.
RT_WORD_BASE = SHARED_BASE + (SHARED_LIMIT - SHARED_BASE) // 2

#: Fault kinds an A-stream shell injects itself (the rest fire in
#: channels and network interfaces).
_SHELL_KINDS = frozenset(CLASS_KINDS["vm"] + CLASS_KINDS["kill"])


@dataclass
class RunResult:
    """Everything one simulated run produces."""

    mode: str
    cycles: float
    result: object
    output: List[Tuple]
    store: GlobalStore
    breakdowns: Dict[str, Dict[str, float]]
    r_breakdown: Dict[str, float]
    classes: object                  # ClassStats
    mem_stats: object                # Counter
    #: (shell name, reason, barrier site) per divergence recovery; the
    #: site is the barrier at which the R-stream detected divergence
    #: (negative ids are synthetic end-of-region joins, None means the
    #: detection point had no site).
    recoveries: List[Tuple[str, str, Optional[int]]]
    channel_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    rt_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    trace: Optional[List[dict]] = None   # Chrome trace events (TraceSink)
    #: Per-track line profile (ProfileSink): track -> {(func, line,
    #: category, level): cycles}.  None unless the run was profiled.
    profile: Optional[Dict[str, Dict]] = None
    #: Fault-injection report (FaultPlan.report()): seed, schedule and
    #: the fired injections.  None unless a plan was armed.
    faults: Optional[dict] = None

    def breakdown_fractions(self) -> Dict[str, float]:
        """Machine-wide R-stream time breakdown, normalized to 1."""
        tot = sum(self.r_breakdown.values())
        if tot <= 0:
            return {}
        return {k: v / tot for k, v in self.r_breakdown.items()}


class SimDeadlockError(RuntimeError):
    """Structured simulation-hang diagnostic.

    Raised when the event queue drains with streams still unfinished
    (``kind="deadlock"``) or when the watchdog's cycle/step budget
    expires (``kind="watchdog"``).  Carries a machine-readable table of
    every stream -- name, state, the event it is waiting on, and its
    current time category -- so a hang converts into an actionable
    report instead of an opaque timeout.
    """

    def __init__(self, kind: str, cycle: float, mode: str,
                 blocked: List[Dict[str, str]], detail: str = ""):
        self.kind = kind                 # "deadlock" | "watchdog"
        self.cycle = cycle
        self.mode = mode
        self.blocked = blocked
        self.detail = detail
        lines = [self.summary]
        if blocked:
            w = max(len(r["process"]) for r in blocked)
            w = max(w, len("process"))
            lines.append(f"  {'process':<{w}}  {'state':<8}  "
                         f"{'waiting on':<22}  category")
            for r in blocked:
                lines.append(f"  {r['process']:<{w}}  {r['state']:<8}  "
                             f"{r['waiting_on']:<22}  {r['category']}")
        super().__init__("\n".join(lines))

    def __reduce__(self):
        # Exception pickling replays __init__ with .args (the rendered
        # message) by default, which doesn't match this signature --
        # and an unpicklable worker exception masquerades as a pool
        # crash.  Rebuild from the structured fields instead.
        return (SimDeadlockError, (self.kind, self.cycle, self.mode,
                                   self.blocked, self.detail))

    @property
    def summary(self) -> str:
        """One-line actionable description (what the CLI prints)."""
        what = ("deadlocked" if self.kind == "deadlock"
                else "watchdog expired")
        s = f"simulation {what} at {self.cycle:.0f} cycles (mode={self.mode})"
        if self.detail:
            s += f": {self.detail}"
        stuck = sum(1 for r in self.blocked
                    if r["state"] in ("blocked", "parked"))
        if stuck:
            s += f"; {stuck} blocked stream(s)"
        return s


#: Backward-compatible alias (pre-watchdog name).
DeadlockError = SimDeadlockError


class Machine:
    """One run-instance of the simulated CMP multiprocessor."""

    def __init__(self, program: CompiledProgram,
                 cfg: MachineConfig = PAPER_MACHINE,
                 mode: str = "single",
                 env: Optional[RuntimeEnv] = None,
                 selfinv: bool = False,
                 a_exec_critical: bool = False,
                 sections_static: bool = False,
                 sync_after_reduction: bool = False,
                 io_cycles: float = 200.0,
                 obs="aggregate",
                 faults: Optional[FaultConfig] = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("double", "slipstream") and cfg.cpus_per_cmp < 2:
            raise ValueError(f"mode {mode!r} needs 2 CPUs per CMP")
        self.program = program
        self.cfg = cfg
        self.mode = mode
        self.env = env or RuntimeEnv()
        self.selfinv = selfinv
        self.a_exec_critical = a_exec_critical
        self.sections_static = sections_static
        self.sync_after_reduction = sync_after_reduction
        self.io_cycles = io_cycles
        self.slip_resources = (mode == "slipstream")

        # One sink per run: every producer's probe is minted from it.
        self.obs = make_sink(obs)
        self.engine = Engine(obs=self.obs.probe("engine"))
        self.memsys = CoherentMemorySystem(self.engine, cfg, sink=self.obs)
        self.memsys.noclass_base = RT_WORD_BASE
        self._rt_next = RT_WORD_BASE

        # Program image load: allocate the shared segment.
        self.gbase: List[int] = []
        for g in program.globals:
            self.gbase.append(self.memsys.allocator.alloc(
                g.nbytes, align=cfg.line_bytes))
        self.store = GlobalStore(program)
        self.output: List[Tuple] = []
        self.inputs: List[float] = []
        self._input_pos = 0
        self.recoveries: List[Tuple[str, str, Optional[int]]] = []
        self._parked: List[ThreadShell] = []
        self._done = False
        self._result = None

        # Streams and team.
        n_tasks = cfg.n_cmps * 2 if mode == "double" else cfg.n_cmps
        self.team = Team(self, n_tasks)
        self.shells: List[ThreadShell] = []
        self.channels: Dict[int, PairChannel] = {}
        self._build_shells()

        # Fault injection: materialize the seeded plan and arm every
        # hook.  Armed hooks only ever touch A-streams, channels, and
        # protocol-legal NI delays -- never R-stream state -- so a
        # faulted run must still produce correct output (the paper's
        # invariant the chaos harness asserts).  A-stream shells are
        # armed only when the plan schedules one of their kinds; an
        # armed shell keeps its generated code.
        self.fault_plan: Optional[FaultPlan] = None
        if faults is not None:
            plan = self.fault_plan = FaultPlan(faults)
            plan.bind(self.engine, self.obs.probe("faults"))
            for ch in self.channels.values():
                ch.faults = plan
            if _SHELL_KINDS & set(plan.schedule):
                for shell in self.shells:
                    if shell.role == "A":
                        shell.arm_faults(plan)
            self.memsys.arm_faults(plan)

    # ------------------------------------------------------------- topology

    def _build_shells(self) -> None:
        n = self.cfg.n_cmps
        if self.mode == "double":
            for t in range(2 * n):
                self.shells.append(ThreadShell(
                    self, self.team, t, "R", node=t // 2, cpu=t % 2))
            return
        for t in range(n):
            self.shells.append(ThreadShell(
                self, self.team, t, "R", node=t, cpu=0))
        if self.mode == "slipstream":
            sem_lat = self.cfg.cycles(self.cfg.pi_local_dc_time_ns)
            for t in range(n):
                ch = PairChannel(self.engine, t, op_latency=sem_lat,
                                 probe=self.obs.probe(f"chan:n{t}"))
                self.channels[t] = ch
                a = ThreadShell(self, self.team, t, "A", node=t, cpu=1)
                r = self.shells[t]
                r.channel = ch
                a.channel = ch
                r.pair = a
                a.pair = r
                self.shells.append(a)

    # ------------------------------------------------------------ services

    def rt_word(self, name: str) -> RTWord:
        """Allocate a runtime-internal shared word on its own line."""
        addr = self._rt_next
        self._rt_next += self.cfg.line_bytes
        if self._rt_next >= SHARED_LIMIT:
            raise MemoryError("runtime word space exhausted")
        return RTWord(addr, 0, name)

    def gaddr(self, gidx: int, flat: int) -> int:
        """Simulated address of one element of a shared global."""
        return self.gbase[gidx] + flat * 8

    def next_input(self) -> float:
        """Consume the next read_input() value."""
        if self._input_pos >= len(self.inputs):
            raise RuntimeError("read_input(): input exhausted")
        v = self.inputs[self._input_pos]
        self._input_pos += 1
        return v

    def master_done(self, result) -> None:
        """Master R-stream finished: stop the run."""
        self._done = True
        self._result = result
        self.engine.stop()

    def log_recovery(self, shell: ThreadShell, reason: str,
                     site: Optional[int] = None) -> None:
        """Record a divergence-recovery event.  ``site`` is the barrier
        site at which the R-stream detected divergence (negative for
        synthetic end-of-region joins), so reports can attribute
        recoveries to source lines via the image's site table."""
        self.recoveries.append((shell.name, reason, site))
        shell.probe.instant("slip.recovery", self.engine.now,
                            {"reason": reason, "site": site})
        shell.probe.count("slip.recoveries")

    def note_parked(self, shell: ThreadShell) -> None:
        """Track a parked (faulted) A-stream for diagnostics."""
        self._parked.append(shell)

    def unpark(self, shell: ThreadShell) -> None:
        """Remove a shell from the parked list after recovery."""
        try:
            self._parked.remove(shell)
        except ValueError:
            pass

    # ------------------------------------------------------------------ run

    def run(self, inputs: Optional[List[float]] = None,
            max_cycles: float = 2e9, max_steps: int = 200_000_000
            ) -> RunResult:
        """Simulate until main() returns; returns the RunResult."""
        self.inputs = list(inputs or [])
        for shell in self.shells:
            body = (shell.run_master() if shell.is_master
                    else shell.run_slave())
            shell.proc = self.engine.process(body, name=shell.name)
        # One entry into the engine's drain loop: it returns when the
        # master R-stream stops it (master_done) or a budget runs out.
        self.engine.run(until=max_cycles, max_steps=max_steps)
        if not self._done:
            pending = self.engine.next_time()
            if pending is None:
                raise self._hang_error("deadlock", "no runnable process")
            if pending > max_cycles:
                raise self._hang_error(
                    "watchdog",
                    f"cycle budget max_cycles={max_cycles:g} exhausted")
            raise self._hang_error(
                "watchdog", f"step budget max_steps={max_steps} exhausted")
        end = self.engine.now
        for shell in self.shells:
            if shell.proc.alive:
                shell.proc.kill()
        self.memsys.finalize()
        return self._collect(end)

    def _release(self) -> None:
        """Break every reference cycle of a finished or hung run: the
        streams a hang left suspended are killed, the lines and
        directory entries go with the sets and the directory, and the
        rest once each cycle is cut.  Only for a machine nobody looks at
        afterwards (``run_program``'s); :meth:`run` keeps everything."""
        for shell in self.shells:
            if shell.proc is not None:
                shell.proc.kill()       # a no-op once it finished
        for nm in self.memsys.nodes:
            nm.l2.clear()
            nm.l2.on_evict = None       # a closure over the memory system
        self.memsys.directory._entries.clear()
        self.engine.drop_queue()        # killed processes still queued
        for shell in self.shells:
            # Its memory hooks close over it, and so do its VM's; it
            # holds them, its VM, its pair, its team and this machine.
            shell.fast_read = shell.fast_write = shell.vm = None
            shell.machine = shell.team = shell.pair = None
            if shell._prof is not None:
                shell._prof.vm = None
        self.team.machine = None
        self.obs._probes.clear()        # a trace probe's emitter is the sink

    def _hang_error(self, kind: str, detail: str) -> SimDeadlockError:
        """Build the structured hang diagnostic (deadlock or watchdog):
        one row per stream with its state and wait reason."""
        rows: List[Dict[str, str]] = []
        for shell in self.shells:
            proc = shell.proc
            if proc is None:
                state, waiting = "unstarted", "-"
            elif not proc.alive or shell.finished:
                state, waiting = "finished", "-"
            elif shell in self._parked:
                state = "parked"
                waiting = (proc._waiting_on.name or "<event>"
                           if proc._waiting_on is not None else "-")
            elif proc._waiting_on is not None:
                state = "blocked"
                waiting = proc._waiting_on.name or "<event>"
            else:
                state, waiting = "runnable", "-"
            category = (shell.probe.current
                        if not shell.probe.closed else "-")
            rows.append({"process": shell.name, "state": state,
                         "waiting_on": waiting, "category": category})
        return SimDeadlockError(kind, self.engine.now, self.mode, rows,
                                detail)

    def _collect(self, end: float) -> RunResult:
        self.memsys.publish_cache_stats()
        self.engine.publish_stats()
        self.team.publish_stats(self.obs.probe("team"))
        breakdowns = {}
        r_breakdown: Dict[str, float] = {}
        for shell in self.shells:
            probe = shell.probe
            if not probe.closed:
                probe.close(end)
            # Cache-hit stall cycles were flushed as lumped "busy" time
            # (synchronous fast path); reattribute them to "memory".
            fm = min(shell.fast_mem_cycles, probe.get("busy"))
            if fm:
                probe.transfer("busy", "memory", fm)
            shell.fast_mem_cycles = 0.0
            part = probe.as_dict()
            breakdowns[shell.name] = part
            if shell.role == "R":
                for k, v in part.items():
                    r_breakdown[k] = r_breakdown.get(k, 0.0) + v
        chan_stats = {
            n: {"tokens_consumed": ch.tokens_consumed,
                "decisions_forwarded": ch.decisions_forwarded,
                "recoveries": ch.recoveries}
            for n, ch in self.channels.items()}
        rt_stats = {track: counts
                    for track, c in sorted(self.obs.counters.items())
                    if (counts := c.as_dict())}
        return RunResult(
            mode=self.mode,
            cycles=end,
            result=self._result,
            output=self.output,
            store=self.store,
            breakdowns=breakdowns,
            r_breakdown=r_breakdown,
            classes=self.memsys.classes,
            mem_stats=self.memsys.machine_stats(),
            recoveries=self.recoveries,
            channel_stats=chan_stats,
            rt_stats=rt_stats,
            trace=self.obs.trace_events(),
            profile=self.obs.profile_data(),
            faults=(self.fault_plan.report()
                    if self.fault_plan is not None else None))


def run_program(program: CompiledProgram,
                cfg: MachineConfig = PAPER_MACHINE,
                mode: str = "single",
                env: Optional[RuntimeEnv] = None,
                inputs: Optional[List[float]] = None,
                max_cycles: float = 2e9,
                max_steps: int = 200_000_000,
                **kw) -> RunResult:
    """Convenience: build a machine, run the image once, and break the
    machine's reference cycles (no caller can see it), so it goes by
    reference count as this call returns rather than at the next full
    collection.  A hang raises :class:`SimDeadlockError` at
    ``max_cycles``/``max_steps``, and its machine goes the same way."""
    m = Machine(program, cfg, mode, env, **kw)
    try:
        return m.run(inputs=inputs, max_cycles=max_cycles,
                     max_steps=max_steps)
    finally:
        m._release()
