"""Thread shells: the simulated execution context of each stream.

A shell owns one simulated CPU and drives a bytecode VM over it,
servicing the VM's yield points against the machine:

* shared loads/stores go through the coherence protocol (an A-stream
  *suppresses* shared stores and converts them to prefetch-exclusives
  when it is in the same session as its R-stream -- §2, §5.1);
* runtime calls implement the Omni library, with the role-dependent
  behaviour of §3.1 (A-streams skip barriers via tokens, skip single/
  critical/flush/I-O, execute master/atomic/reductions-as-user-code);
* dynamic scheduling decisions flow R -> A through the pair channel's
  syscall semaphore and mailbox (§3.2.2);
* divergence is detected by the R-stream at barriers and repaired by
  re-forking the A-stream from the R-stream's architectural state
  (VM snapshot/restore), the paper's recovery routine.

Execution-time accounting follows the paper's Figure 2/4 categories:
busy, memory, lock, barrier, scheduling, jobwait (plus a_wait and io).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..interp.events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from ..interp.interpreter import MISS, VM, VMError
from ..sim import Interrupt
from ..slipstream.control import SlipControl
from .team import Job, LoopLocal
from .words import (JOBWAIT_BACKOFF_CAP, word_load, word_rmw, word_store,
                    spin_until)

__all__ = ["ThreadShell"]


def _join_site(fidx: int) -> int:
    """Synthetic barrier-site id for a region's end-of-region join."""
    return -(fidx + 1)


class ThreadShell:
    """One stream (R or A) bound to one simulated CPU."""

    def __init__(self, machine, team, tid: int, role: str, node: int,
                 cpu: int):
        self.machine = machine
        self.team = team
        self.tid = tid                  # task id (A shares its R's id)
        self.role = role                # "R" | "A"
        self.node = node
        self.cpu = cpu
        self.name = f"{role}{tid}@n{node}c{cpu}"
        self.probe = machine.obs.probe(self.name, start=machine.engine.now)
        # Cached profile recorder (None unless a ProfileSink is live):
        # the memory fast paths test this once per access.
        self._prof = self.probe.prof
        # What a timed access reads, bound once: this CPU's L1 tags and
        # their hit latency (also read by ``words.spin_until``), the
        # engine, the memory system.
        self.engine = machine.engine
        self.memsys = machine.memsys
        self.l1 = machine.memsys.nodes[node].l1s[cpu]
        self.l1_hit_cycles = float(machine.cfg.l1.hit_cycles)
        self.vm: Optional[VM] = None
        self.channel = None             # PairChannel, slipstream mode only
        self.pair: Optional["ThreadShell"] = None
        self.control = SlipControl(machine.env, machine.slip_resources,
                                   probe=self.probe)
        self.barrier_sense = 0
        self.site_seq: Dict[int, int] = {}
        self.active_loops: Dict[int, LoopLocal] = {}
        self.current_job: Optional[Job] = None
        self.in_region = False
        self.current_gen = 0
        self.proc = None                # sim.Process, set by the machine
        self._restored = False
        self.finished = False
        #: FaultPlan (A-streams only, armed by the machine); every hook
        #: is a single is-None test so disarmed runs are bit-identical.
        self._faults = None
        # Synchronous-hit accounting: busy cycles and cache-hit stall
        # cycles accumulated outside the event engine, flushed as one
        # lump before the next real event.  fast_mem_cycles is moved
        # from "busy" to "memory" when the run's breakdown is collected.
        self._debt = 0.0
        self.fast_mem_cycles = 0.0
        self._build_fast_paths()

    # ------------------------------------------------------------ accounting

    def _push(self, cat: str) -> None:
        self.probe.push(cat, self.machine.engine.now)

    def _pop(self) -> None:
        self.probe.pop(self.machine.engine.now)

    def arm_faults(self, plan) -> None:
        """Arm the seeded fault plan on this (A-stream) shell."""
        self._faults = plan

    def _bind_vm(self, vm: VM) -> VM:
        """Install a (new) VM, attaching the line profiler when live.
        Shells with an armed fault plan run their VMs interpreted: the
        injection hooks (corrupt, mid-run restore) need architectural
        state live in Frame objects at every instruction, and the
        generated-code tier only syncs it at yield points."""
        self.vm = vm
        if self._faults is not None:
            vm.disable_compiled()
        if self._prof is not None:
            self._prof.bind_vm(vm)
        return vm

    # ------------------------------------------------------- effective state

    @property
    def is_master(self) -> bool:
        """True for the task-0 pair."""
        return self.tid == 0

    @property
    def team_size(self) -> int:
        """Width of the active region's team (1 outside regions)."""
        if self.in_region and self.current_job is not None:
            return self.current_job.team_size
        return 1

    def _setting(self) -> Tuple[str, int]:
        """The slipstream (type, tokens) governing right now."""
        if self.in_region and self.current_job is not None:
            return self.current_job.slip_setting
        return self.control.effective

    @property
    def slipping(self) -> bool:
        """Is the A-R protocol engaged for this shell right now?"""
        return (self.channel is not None
                and self._setting()[0] != "NONE")

    @property
    def dormant(self) -> bool:
        """A-stream with slipstream disabled (type NONE): executes but
        touches no shared memory and takes no part in token exchange."""
        return self.role == "A" and self._setting()[0] == "NONE"

    # ------------------------------------------------------------ memory ops

    def timed_load(self, addr: int):
        """Generator: timed shared load at this shell's CPU."""
        if self.l1.lookup(addr):
            yield self.l1_hit_cycles
            return
        # Time in the memory system is "memory" unless a runtime
        # category (lock, barrier, ...) is already open.
        probe = self.probe
        top = not probe.spans
        if top:
            probe.push("memory", self.engine.now)
        try:
            res = yield from self.memsys.load(self.node, self.cpu, addr,
                                              self.role)
            if top and self._prof is not None:
                probe.mem_level(res.level)
        finally:
            if top:
                probe.pop(self.engine.now)

    def timed_store(self, addr: int):
        """Generator: timed shared store at this shell's CPU."""
        probe = self.probe
        top = not probe.spans
        if top:
            probe.push("memory", self.engine.now)
        try:
            res = yield from self.memsys.store(self.node, self.cpu, addr,
                                               self.role)
            if top and self._prof is not None:
                probe.mem_level(res.level)
        finally:
            if top:
                probe.pop(self.engine.now)

    #: Force a slow (engine-visible) load once this much synchronous time
    #: has accumulated, so user-level spin loops observe other streams'
    #: stores with bounded timing skew.
    DEBT_LIMIT = 400.0

    def _build_fast_paths(self) -> None:
        """Bind the VM's synchronous memory hooks for this stream: two
        closures over this CPU's tag stores, the image's global base
        addresses, the shared value store and this shell's accounting
        (``_debt``, ``fast_mem_cycles``, ``_prof``)."""
        self.fast_read, self.fast_write = self.machine.memsys.fast_paths(
            self, self.machine.gbase, self.machine.store, MISS)

    # ------------------------------------------------------------- VM driving

    def _vm_loop(self):
        """Run the current VM to completion, servicing its events."""
        vm = self.vm
        vm.fast_read = self.fast_read
        vm.fast_write = self.fast_write
        gbase = self.machine.gbase
        store = self.machine.store
        views, arrays = store.views, store.arrays
        while True:
            try:
                ev = vm.run()
            except (VMError, ArithmeticError, IndexError, TypeError,
                    ValueError, KeyError) as e:
                if self.role == "A":
                    # Speculative fault (wild index, integer trap, ...
                    # computed from stale shared values): park until the
                    # R-stream's next barrier repairs us.
                    if self.channel is not None:
                        self.channel.mark_fault(f"VM fault: {e}")
                    yield from self._park()
                    continue            # unreachable (park never returns)
                raise
            debt = self._debt + vm.pending_cycles
            if debt:
                self._debt = vm.pending_cycles = 0.0
                yield debt
            if self._faults is not None:
                yield from self._inject_faults()
            k = type(ev)
            try:
                if k is MemRead:
                    # The access missed the CMP (or the debt limit
                    # forced it through the engine).
                    gidx, flat = ev.gidx, ev.flat
                    yield from self.timed_load(gbase[gidx] + flat * 8)
                    vm.push(views[gidx][flat])
                elif k is MemWrite:
                    gidx, flat = ev.gidx, ev.flat
                    if self.role == "A":
                        # In-session shared store converted to a
                        # non-binding prefetch-exclusive (§5.1:
                        # "converting some of the shared stores into
                        # prefetches").
                        self.memsys.prefetch_exclusive(
                            self.node, gbase[gidx] + flat * 8, "A")
                        yield 1.0
                    else:
                        yield from self.timed_store(gbase[gidx] + flat * 8)
                        arrays[gidx][flat] = ev.value
                elif k is RtCall:
                    handler = _RT_HANDLERS.get(ev.name)
                    if handler is None:
                        raise RuntimeError(
                            f"unknown runtime call {ev.name!r}")
                    yield from handler(self, ev)
                elif k is IoOut:
                    yield from self._io_out(ev)
                elif k is TimeSlice:
                    continue            # debt already flushed above
                else:                   # Done
                    return ev.value
            except (VMError, ArithmeticError, IndexError, TypeError,
                    ValueError, KeyError, AssertionError,
                    OverflowError) as e:
                if self.role != "A":
                    raise
                # Speculative fault escaping into the shell's slow path
                # (e.g. a corrupted index resolving to a wild address
                # that trips the memory system's validity checks).
                # Both assertion sites fire before any resource is
                # acquired, so parking here leaks nothing.
                if self.channel is not None:
                    self.channel.mark_fault(
                        f"speculative {k.__name__} fault: {e}")
                yield from self._park()

    def _park(self):
        """Block forever (until interrupted by recovery or teardown)."""
        self.machine.note_parked(self)
        yield self.machine.engine.event(name=f"park:{self.name}")
        raise RuntimeError(f"{self.name}: park event fired unexpectedly")

    def _inject_faults(self):
        """One A-stream injection opportunity (armed plans only).

        Corruption perturbs the speculative VM's architectural state;
        spurious faults and kills park the stream exactly like an
        organic speculative fault, so the R-stream repairs it at its
        next barrier -- the recovery path under test.
        """
        plan = self._faults
        spec = plan.fire("a_corrupt", self.name)
        if spec is not None and self.vm is not None:
            self.vm.corrupt(spec)
        if plan.fire("a_vmfault", self.name) is not None:
            if self.channel is not None:
                self.channel.mark_fault("injected spurious VM fault")
            yield from self._park()
        if plan.fire("a_kill", self.name) is not None:
            if self.channel is not None:
                self.channel.mark_fault("injected A-stream kill")
            yield from self._park()

    # -------------------------------------------------------------- top level

    def run_master(self):
        """Process body for the master pair (R-master runs main; the
        A-master shadows it in reduced form)."""
        try:
            while True:
                try:
                    if not self._restored:
                        self._bind_vm(VM(self.machine.program,
                                         self.machine.program.main_index))
                    self._restored = False
                    result = yield from self._vm_loop()
                    if self.role == "R":
                        self.machine.master_done(result)
                    self.finished = True
                    return result
                except Interrupt:
                    if self.role != "A":
                        raise
                    self._restore_from_recovery()
        finally:
            self.probe.close(self.machine.engine.now)

    def run_slave(self):
        """Process body for slave pairs: spin for a job, run it, repeat.
        R-slaves signal completion; A-slaves run the reduced version."""
        flag = self.team.job_flags[self.tid - 1]
        done_w = self.team.done_words[self.tid - 1]
        try:
            while True:
                try:
                    if not self._restored:
                        want = self.current_gen + 1
                        self._push("jobwait")
                        try:
                            yield from spin_until(self, flag,
                                                  lambda v: v >= want,
                                                  cap=JOBWAIT_BACKOFF_CAP)
                        finally:
                            self._pop()
                        self.current_gen = want
                        job = self.team.job_at(want)
                        if (job is None or job.serial
                                or self.tid >= job.team_size):
                            continue    # serial region, or we are outside
                                        # this region's (narrowed) team
                        yield from self._read_job_descriptor(job)
                        self.current_job = job
                        self.in_region = True
                        if self.channel is not None and self.role == "R":
                            self.channel.begin_region(*job.slip_setting)
                        self._bind_vm(VM(self.machine.program, job.fidx,
                                         job.args))
                    self._restored = False
                    yield from self._vm_loop()
                    yield from self._job_epilogue(done_w)
                except Interrupt:
                    if self.role != "A":
                        raise
                    self._restore_from_recovery()
        finally:
            self.probe.close(self.machine.engine.now)

    def _read_job_descriptor(self, job: Job):
        """Load the master-published descriptor (timing)."""
        nwords = min(2 + len(job.args), len(self.team.desc_words))
        for w in self.team.desc_words[:nwords]:
            yield from word_load(self, w)

    def _job_epilogue(self, done_w):
        """End-of-region join handling for a slave."""
        job = self.current_job
        site = _join_site(job.fidx)
        if self.role == "R":
            if self.slipping:
                ch = self.channel
                ch.r_reached_barrier(site)
                reason = ch.divergence_detected()
                if reason is not None:
                    self._do_recovery(reason, site)
                if ch.sync_type == "LOCAL_SYNC":
                    ch.insert_token()
            yield from word_store(self, done_w, job.gen)
            if self.slipping and self.channel.sync_type == "GLOBAL_SYNC":
                self.channel.insert_token()
        else:
            if self.slipping:
                self.channel.a_reached_barrier(site)
                self._push("a_wait")
                try:
                    yield from self.channel.consume_token()
                finally:
                    self._pop()
                self._maybe_self_invalidate()
        self.in_region = False
        self.current_job = None
        self.vm = None

    # ----------------------------------------------------- recovery plumbing

    def _do_recovery(self, reason: str, site: Optional[int] = None) -> None:
        """R-stream side: re-fork the A-stream from our state (§2.2:
        'recovery is invoked if divergence is detected').  ``site`` is
        the barrier site at which we detected the divergence."""
        a = self.pair
        ch = self.channel
        self.machine.log_recovery(self, reason, site)
        ch.pending_restore = {
            "frames": self.vm.snapshot() if self.vm is not None else None,
            "site_seq": dict(self.site_seq),
            "active_loops": {s: LoopLocal(l.seq, l.kind, l.chunk, l.total,
                                          l.pos, l.block_given, l.decisions)
                             for s, l in self.active_loops.items()},
            "current_gen": self.current_gen,
            "current_job": self.current_job,
            "in_region": self.in_region,
        }
        ch.reset_after_recovery()
        a.proc.interrupt("slipstream-recovery")

    def _restore_from_recovery(self) -> None:
        """A-stream side: adopt the R-stream's architectural state."""
        snap = self.channel.pending_restore
        self.probe.instant("slip.restore", self.machine.engine.now)
        self.machine.unpark(self)
        if snap["frames"] is not None:
            if self.vm is None:
                self._bind_vm(VM(self.machine.program,
                                 self.machine.program.main_index))
            self.vm.restore(snap["frames"])
        self.site_seq = dict(snap["site_seq"])
        self.active_loops = {
            s: LoopLocal(l.seq, l.kind, l.chunk, l.total, l.pos,
                         l.block_given, l.decisions)
            for s, l in snap["active_loops"].items()}
        self.current_gen = snap["current_gen"]
        self.current_job = snap["current_job"]
        self.in_region = snap["in_region"]
        self._restored = True

    # ------------------------------------------------------------ I/O events

    def _io_out(self, ev: IoOut):
        if self.role == "A":
            self.probe.instant("a.skip", self.machine.engine.now,
                               {"what": "io_out"})
            yield 1.0                   # irreversible: A-streams skip I/O
            return
        self._push("io")
        try:
            yield float(self.machine.io_cycles)
        finally:
            self._pop()
        self.machine.output.append(tuple(ev.values))

    # ------------------------------------------------------- runtime calls
    #
    # ``_rt_<name>`` services the runtime call ``<name>``; _vm_loop
    # dispatches through _RT_HANDLERS (built below the class).

    # -- parallel region management -------------------------------------

    def _team_size_for(self, nthreads_val, serial: bool) -> int:
        """Resolve the region's team width: if(false) => 1; else the
        num_threads clause, else OMP_NUM_THREADS, else the full pool --
        all capped by available tasks."""
        if serial:
            return 1
        if nthreads_val and nthreads_val > 0:
            return max(1, min(int(nthreads_val), self.team.n_tasks))
        env_n = self.machine.env.num_threads
        if env_n is not None:
            return max(1, min(env_n, self.team.n_tasks))
        return self.team.n_tasks

    def _rt_parallel_begin(self, ev: RtCall):
        fidx, ncap = ev.static
        if_val, nthreads_val = ev.args[-2], ev.args[-1]
        captured = ev.args[:ncap]
        setting = self.control.region_enter()
        serial = not bool(if_val)
        team_size = self._team_size_for(nthreads_val, serial)
        if self.role == "R":
            job = self.team.new_job(fidx, captured, setting, serial,
                                    team_size=team_size)
            self.team.region_setting = setting
            self.current_job = job
            self.current_gen = job.gen
            if self.channel is not None:
                self.channel.begin_region(*setting)
            if not serial:
                # Publish the descriptor, then raise every slave's flag.
                nwords = min(2 + len(captured), len(self.team.desc_words))
                for w in self.team.desc_words[:nwords]:
                    yield from word_store(self, w, job.gen)
                for flag in self.team.job_flags:
                    yield from word_store(self, flag, job.gen)
        else:
            # The A-master does not post jobs (its shared stores are
            # skipped); it mirrors the bookkeeping and runs the region.
            self.current_gen += 1
            job = self.team.job_at(self.current_gen)
            if job is None:
                job = Job(self.current_gen, fidx, tuple(captured), setting,
                          serial=serial, team_size=team_size)
            self.current_job = job
            yield 1.0
        self.in_region = True

    def _rt_parallel_end(self, ev: RtCall):
        job = self.current_job
        site = _join_site(job.fidx if job is not None else 0)
        if self.role == "R":
            if self.slipping:
                ch = self.channel
                ch.r_reached_barrier(site)
                reason = ch.divergence_detected()
                if reason is not None:
                    self._do_recovery(reason, site)
                if ch.sync_type == "LOCAL_SYNC":
                    ch.insert_token()
            if job is not None and not job.serial:
                self._push("barrier")
                try:
                    # Join only the slaves that participated (slave t
                    # has done-word index t-1).
                    for done_w in self.team.done_words[:job.team_size - 1]:
                        yield from spin_until(self, done_w,
                                              lambda v, g=job.gen: v >= g)
                finally:
                    self._pop()
            if self.slipping and self.channel.sync_type == "GLOBAL_SYNC":
                self.channel.insert_token()
        else:
            if self.slipping:
                self.channel.a_reached_barrier(site)
                self._push("a_wait")
                try:
                    yield from self.channel.consume_token()
                finally:
                    self._pop()
                self._maybe_self_invalidate()
            else:
                yield 1.0
        self.in_region = False
        self.current_job = None
        self.control.region_exit()

    # -- barriers ---------------------------------------------------------

    def _rt_barrier(self, ev: RtCall):
        site = ev.static[0]
        if self.role == "R":
            if self.slipping:
                ch = self.channel
                ch.r_reached_barrier(site)
                reason = ch.divergence_detected()
                if reason is not None:
                    self._do_recovery(reason, site)
                if ch.sync_type == "LOCAL_SYNC":
                    ch.insert_token()
            self.machine.memsys.bump_epoch(self.node)
            if self.team_size > 1:
                self._push("barrier")
                try:
                    yield from self.team.barrier.wait(
                        self, participants=self.team_size)
                finally:
                    self._pop()
            else:
                yield 1.0
            if self.slipping and self.channel.sync_type == "GLOBAL_SYNC":
                self.channel.insert_token()
        else:
            if self.slipping:
                self.channel.a_reached_barrier(site)
                self._push("a_wait")
                try:
                    yield from self.channel.consume_token()
                finally:
                    self._pop()
                self._maybe_self_invalidate()
            else:
                yield 1.0               # dormant A sails through

    def _maybe_self_invalidate(self) -> None:
        """Slipstream self-invalidation: tied to global synchronization
        (§3.2.1) and enabled by machine option."""
        if (self.machine.selfinv
                and self.channel.sync_type == "GLOBAL_SYNC"):
            self.machine.memsys.self_invalidate_stale(self.node)

    # -- worksharing --------------------------------------------------------

    def _next_seq(self, site: int) -> int:
        seq = self.site_seq.get(site, 0)
        self.site_seq[site] = seq + 1
        return seq

    def _rt_sched_init(self, ev: RtCall):
        site, kind, chunk = ev.static
        lo, hi, step = ev.args
        if kind == "runtime":
            kind, env_chunk = self.machine.env.schedule
            chunk = chunk if chunk is not None else env_chunk
        n = max(0, -((int(lo) - int(hi)) // int(step)))
        seq = self._next_seq(site)
        ll = LoopLocal(seq=seq, kind=kind, chunk=chunk, total=n)
        if kind == "static":
            ll.pos = self.tid          # chunked static starts at own index
        self.active_loops[site] = ll
        if (kind in ("dynamic", "guided") and self.role == "R"
                and not self.dormant):
            self.team.loop_shared(site, seq, n)   # materialize shared state
        yield 2.0

    def _rt_sched_next(self, ev: RtCall):
        site = ev.static[0]
        ll = self.active_loops[site]
        if ll.kind == "static":
            result = self._static_next(ll)
            yield 3.0
        elif self.role == "A" and not self.dormant:
            result = yield from self._a_take(("sched", site, ll.decisions))
            ll.decisions += 1
            self._note_last(ll, result)
        else:
            self._push("scheduling")
            try:
                result = yield from self._shared_next(site, ll)
            finally:
                self._pop()
            if self.role == "R" and self.slipping:
                self.channel.publish("sched", site, ll.decisions, result)
            ll.decisions += 1
        self.vm.push(result)

    def _static_next(self, ll: LoopLocal):
        T = self.team_size
        t = self.tid if self.team_size > 1 else 0
        if ll.chunk is None:
            if ll.block_given:
                return None
            ll.block_given = True
            start = ll.total * t // T
            end = ll.total * (t + 1) // T
            if end <= start:
                return None
            return self._note_last(ll, (start, end - start))
        # static,chunk: round-robin chunks of fixed size
        start = ll.pos * ll.chunk
        if start >= ll.total:
            return None
        ll.pos += T
        return self._note_last(ll, (start, min(ll.chunk, ll.total - start)))

    @staticmethod
    def _note_last(ll: LoopLocal, chunk):
        """Track whether this thread's chunk contained the final
        iteration (lastprivate semantics)."""
        if chunk is not None and chunk[0] + chunk[1] >= ll.total:
            ll.had_last = True
        return chunk

    def _rt_loop_is_last(self, ev: RtCall):
        site = ev.static[0]
        yield 1.0
        ll = self.active_loops.get(site)
        self.vm.push(1 if ll is not None and ll.had_last else 0)

    def _shared_next(self, site: int, ll: LoopLocal):
        """Dynamic/guided chunk grab under the scheduler critical section."""
        ls = self.team.loop_shared(site, ll.seq, ll.total)
        yield from ls.lock.acquire(self)
        try:
            nxt = yield from word_load(self, ls.next_word)
            if nxt >= ls.total:
                return None
            if ll.kind == "dynamic":
                cnt = min(ll.chunk or 1, ls.total - nxt)
            else:  # guided: proportional to remaining work
                T = max(1, self.team_size)
                cnt = max(ll.chunk or 1, (ls.total - nxt) // (2 * T))
                cnt = min(cnt, ls.total - nxt)
            yield from word_store(self, ls.next_word, nxt + cnt)
            return self._note_last(ll, (nxt, cnt))
        finally:
            yield from ls.lock.release(self)

    def _a_take(self, key):
        """A-stream retrieves its R-stream's published decision (§3.2.2:
        'it synchronizes, waiting for its R-stream to reach this
        region')."""
        kind, site, idx = key
        self._push("a_wait")
        try:
            ok, payload = yield from self.channel.take(kind, site, idx)
        finally:
            self._pop()
        if not ok:
            self.channel.mark_fault(
                f"mailbox mismatch at {kind} site {site} #{idx}",
                site=site)
            yield from self._park()
        return payload

    # -- sections --------------------------------------------------------

    def _rt_sections_init(self, ev: RtCall):
        site, n = ev.static
        seq = self._next_seq(site)
        kind = "static" if self.machine.sections_static else "dynamic"
        ll = LoopLocal(seq=seq, kind=kind, chunk=1, total=n)
        if kind == "static":
            ll.pos = self.tid
        self.active_loops[site] = ll
        if kind == "dynamic" and self.role == "R" and not self.dormant:
            self.team.loop_shared(site, seq, n)
        yield 2.0

    def _rt_sections_next(self, ev: RtCall):
        site = ev.static[0]
        ll = self.active_loops[site]
        if ll.kind == "static":
            if ll.pos >= ll.total:
                result = None
            else:
                result = ll.pos
                ll.pos += max(1, self.team_size)
            yield 2.0
        elif self.role == "A" and not self.dormant:
            chunk = yield from self._a_take(("sect", site, ll.decisions))
            ll.decisions += 1
            result = chunk
        else:
            self._push("scheduling")
            try:
                chunk = yield from self._shared_next(site, ll)
            finally:
                self._pop()
            result = chunk[0] if chunk is not None else None
            if self.role == "R" and self.slipping:
                self.channel.publish("sect", site, ll.decisions, result)
            ll.decisions += 1
        self.vm.push(result)

    # -- single / master / critical / atomic / flush -------------------------

    def _rt_single_begin(self, ev: RtCall):
        site = ev.static[0]
        seq = self._next_seq(site)
        if self.role == "A":
            # "There is no clear way an A-stream can tell that its
            # R-stream will execute this section ... skipped" (§3.1).
            self.probe.instant("a.skip", self.machine.engine.now,
                               {"what": "single"})
            yield 1.0
            self.vm.push(0)
            return
        if self.team_size == 1:
            yield 1.0
            self.vm.push(1)
            return
        ticket = self.team.single_ticket(site, seq)
        self._push("lock")
        try:
            old = yield from word_rmw(self, ticket, lambda v: v + 1)
        finally:
            self._pop()
        self.vm.push(1 if old == 0 else 0)

    def _rt_is_master(self, ev: RtCall):
        yield 1.0
        self.vm.push(1 if self.tid == 0 else 0)

    def _rt_crit_enter(self, ev: RtCall):
        cid = ev.static[0]
        if self.role == "A":
            # Skipped: prefetched data "highly likely not to be migrated"
            # does not hold for critical sections (§3.1 item 5) -- unless
            # the ablation option forces execution (lock-free, stores
            # suppressed anyway).
            if not self.machine.a_exec_critical:
                self.probe.instant("a.skip", self.machine.engine.now,
                                   {"what": "critical"})
            yield 1.0
            self.vm.push(1 if self.machine.a_exec_critical else 0)
            return
        self._push("lock")
        try:
            yield from self.team.crit_lock(cid).acquire(self)
        finally:
            self._pop()
        self.vm.push(1)

    def _rt_crit_exit(self, ev: RtCall):
        cid = ev.static[0]
        if self.role == "A":
            yield 1.0
            return
        yield from self.team.crit_lock(cid).release(self)

    def _rt_atomic_enter(self, ev: RtCall):
        site = ev.static[0]
        if self.role == "A":
            yield 1.0                   # executes the update, lock-free
            return
        self._push("lock")
        try:
            yield from self.team.atomic_lock(site).acquire(self)
        finally:
            self._pop()

    def _rt_atomic_exit(self, ev: RtCall):
        site = ev.static[0]
        if self.role == "A":
            yield 1.0
            return
        yield from self.team.atomic_lock(site).release(self)

    def _rt_flush(self, ev: RtCall):
        # Hardware-coherent system: "this construct maps to void"; the
        # A-stream skips it outright (§3.1 item 7).
        if self.role == "A":
            self.probe.instant("a.skip", self.machine.engine.now,
                               {"what": "flush"})
        yield 1.0 if self.role == "A" else 2.0

    # -- reductions --------------------------------------------------------

    def _rt_reduce(self, ev: RtCall):
        op, gidx = ev.static
        (value,) = ev.args
        sync = self.machine.sync_after_reduction and self.slipping
        if self.role == "A":
            if sync:
                # §3.1: "The A-stream may need to synchronize with its
                # R-stream, if the outcome of the reduction operation
                # will affect program control flow."  Wait for our
                # R-stream's combine before proceeding.
                idx = self.site_seq.get(("red", gidx), 0)
                self.site_seq[("red", gidx)] = idx + 1
                yield from self._a_take(("red", gidx, idx))
            self.probe.instant("a.skip", self.machine.engine.now,
                               {"what": "reduce"})
            yield 1.0                   # combine touches shared state: skip
            return
        addr = self.machine.gaddr(gidx, 0)
        self._push("lock")
        try:
            yield from self.team.reduction_lock.acquire(self)
            yield from self.timed_load(addr)
            cur = self.machine.store.read(gidx, 0)
            yield from self.timed_store(addr)
            self.machine.store.write(gidx, 0, _combine(op, cur, value))
            yield from self.team.reduction_lock.release(self)
        finally:
            self._pop()
        if sync:
            idx = self.site_seq.get(("red", gidx), 0)
            self.site_seq[("red", gidx)] = idx + 1
            self.channel.publish("red", gidx, idx, None)

    # -- misc queries -------------------------------------------------------

    def _rt_astream_probe(self, ev: RtCall):
        yield 1.0
        self.vm.push(1 if self.role == "A" else 0)

    def _rt_tid(self, ev: RtCall):
        yield 1.0
        self.vm.push(self.tid if self.team_size > 1 else 0)

    def _rt_nthreads(self, ev: RtCall):
        yield 1.0
        self.vm.push(self.team_size)

    def _rt_wtime(self, ev: RtCall):
        yield 1.0
        ghz = self.machine.cfg.clock_ghz
        self.vm.push(self.machine.engine.now / (ghz * 1e9))

    def _rt_io_read(self, ev: RtCall):
        if self.role == "A":
            # "Input operations ... the A-stream should see the same
            # image of the data that the R-stream sees" (§3.1): wait on
            # the syscall semaphore for the recorded value.
            if self.dormant or not self.slipping:
                yield 1.0
                self.vm.push(0.0)
                return
            idx = self.site_seq.get("io", 0)
            self.site_seq["io"] = idx + 1
            value = yield from self._a_take(("input", 0, idx))
            self.vm.push(value)
            return
        self._push("io")
        try:
            yield float(self.machine.io_cycles)
        finally:
            self._pop()
        value = self.machine.next_input()
        if self.slipping:
            idx = self.site_seq.get("io", 0)
            self.site_seq["io"] = idx + 1
            self.channel.publish("input", 0, idx, value)
        self.vm.push(value)

    # -- slipstream directive -------------------------------------------------

    def _rt_slipstream_set(self, ev: RtCall):
        sync_type, tokens, region_scoped = ev.static
        (cond,) = ev.args
        self.control.directive(sync_type, tokens, bool(cond), region_scoped)
        yield 1.0


#: Runtime-call name -> handler, for ``ThreadShell._vm_loop``.
_RT_HANDLERS = {name[4:]: fn for name, fn in vars(ThreadShell).items()
                if name.startswith("_rt_")}


def _combine(op: str, a, b):
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    if op == "max":
        return a if a > b else b
    return a if a < b else b
