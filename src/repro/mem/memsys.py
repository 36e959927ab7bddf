"""The coherent memory system: L1s, shared L2s, directory protocol.

This is the substitute for SimOS's NUMA memory model.  Latencies compose
from the paper's Table-1 parameters (see ``MachineConfig``): an
uncontended local L2 miss costs 170 ns and a remote clean miss 290 ns,
both validated by ``benchmarks/bench_table1_latencies.py``.  Contention
is modelled -- as in the paper -- at the network inputs and outputs
(``ni_in``/``ni_out``), at the home directory/memory controller
(``dirctrl``/``mem``), and on each CMP's local bus.

Only *shared* addresses flow through here.  Private data is CMP-local by
the paper's slipstream model ("control flow and address generation rely
mostly on private variables"), so the processor charges private accesses
a fixed L1 hit without simulating them.

Each L2 fill carries the slipstream classification record (which stream
fetched it, read vs read-exclusive) that feeds Figures 3 and 5; see
``classify.py`` for the Timely/Late/Only rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config.machine import MachineConfig
from ..obs import Counter, line_outcome, make_sink
from ..obs.probe import NULL_PROBE, Probe
from ..sim import Engine, SimEvent
from ..sim.resources import Server, serve_legs
from .address import SHARED_BASE, SHARED_LIMIT, Placement, SharedAllocator
from .cache import Cache, CacheLine, L1Tags, MESIState
from .directory import Directory, DirState

__all__ = ["AccessResult", "NodeMemory", "CoherentMemorySystem"]


@dataclass(slots=True)
class AccessResult:
    """Outcome of one shared-memory access, for the caller's accounting."""

    level: str          # "l1" | "l2" | "local" | "remote" | "remote3" | "merged"
    cycles: float       # total latency the caller experienced


class _Mshr(SimEvent):
    """One outstanding L2 miss, which is also the event its completion
    fires: secondary requesters merge onto the miss by waiting on it."""

    __slots__ = ("fetcher", "late")

    def __init__(self, engine: Engine, name: str):
        SimEvent.__init__(self, engine, name)
        self.fetcher = None        # the stream ("R"/"A") that missed
        self.late = False          # a sibling-stream request merged in


class NodeMemory:
    """Per-CMP memory-side hardware: L1s, shared L2, NI, controllers."""

    def __init__(self, engine: Engine, cfg: MachineConfig, node_id: int,
                 on_l2_evict, probe: Probe = NULL_PROBE,
                 stats: Optional[Counter] = None):
        self.node_id = node_id
        self.l1s: List[L1Tags] = [
            L1Tags(cfg.l1, name=f"n{node_id}.l1[{c}]")
            for c in range(cfg.cpus_per_cmp)]
        self.l2 = Cache(cfg.l2, name=f"n{node_id}.l2", on_evict=on_l2_evict)
        self.bus = Server(engine, f"n{node_id}.bus")
        self.ni_in = Server(engine, f"n{node_id}.ni_in")
        self.ni_out = Server(engine, f"n{node_id}.ni_out")
        self.dirctrl = Server(engine, f"n{node_id}.dirctrl")
        self.mem = Server(engine, f"n{node_id}.mem")
        self.mshrs: Dict[int, _Mshr] = {}
        self.outstanding_prefetches = 0
        self.epoch = 0
        self.probe = probe
        # The per-access counts are plain ints here and reach the sink
        # through ``fold_counts``; every other count goes straight to
        # ``probe.count``.  ``stats`` is the sink's counter bag for
        # this track, so it shows the former only once they are folded.
        self.counts = dict.fromkeys(
            ("loads", "stores", "l2_hits", "mshr_merges",
             "local", "remote", "remote3"), 0)
        self.stats = stats if stats is not None else Counter()

    def fold_counts(self) -> None:
        """Move the per-access counts into the sink's counters."""
        for key, n in self.counts.items():
            if n:
                self.probe.count(key, n)
                self.counts[key] = 0


class CoherentMemorySystem:
    """Directory-coherent DSM across ``cfg.n_cmps`` CMP nodes."""

    #: Prefetch-exclusive conversions are dropped beyond this many in
    #: flight per node -- the paper's "no resource contention" condition.
    MAX_PREFETCHES = 8

    def __init__(self, engine: Engine, cfg: MachineConfig, sink=None):
        self.engine = engine
        self.cfg = cfg
        self.obs = make_sink(sink)
        self.probe = self.obs.probe("mem")
        self.directory = Directory(engine, probe=self.probe)
        self.placement = Placement(cfg.placement, cfg.n_cmps, cfg.page_bytes)
        self.allocator = SharedAllocator()
        self.nodes: List[NodeMemory] = []
        for n in range(cfg.n_cmps):
            track = f"mem:n{n}"
            self.nodes.append(NodeMemory(
                engine, cfg, n,
                on_l2_evict=self._make_evict_handler(n),
                probe=self.obs.probe(track),
                stats=self.obs.counter(track)))
        # cycle-denominated latency components
        self.c_bus = cfg.cycles(cfg.bus_time_ns)
        self.c_nil = cfg.cycles(cfg.ni_local_dc_time_ns)
        self.c_nir = cfg.cycles(cfg.ni_remote_dc_time_ns)
        self.c_net = cfg.cycles(cfg.net_time_ns)
        self.c_mem = cfg.cycles(cfg.mem_time_ns)
        self.c_l1 = float(cfg.l1.hit_cycles)
        self.c_l2 = float(cfg.l2.hit_cycles)
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self._build_routes()
        self.selfinv_drops = 0
        #: Addresses >= this are runtime-internal (locks, barrier words,
        #: job flags): they are timed like any shared line but excluded
        #: from the Figure-3/5 "shared data" classification.
        self.noclass_base: Optional[int] = None

    @property
    def classes(self):
        """The run-wide Figure-3/5 classification collector (lives on
        the sink, shared with every other producer of the run)."""
        return self.obs.classes

    def arm_faults(self, plan) -> None:
        """Arm deterministic network-jitter injection on every node's
        network-interface servers.  Jitter only stretches serve times
        within protocol-legal bounds (the interconnect gives no timing
        guarantees), so it can perturb A-R skew but never correctness.
        """
        for nm in self.nodes:
            nm.ni_in.faults = plan
            nm.ni_out.faults = plan

    # ------------------------------------------------------------------ utils

    def line_addr(self, addr: int) -> int:
        """Align an address to its cache line."""
        return addr >> self._line_shift << self._line_shift

    def _build_routes(self) -> None:
        """The trips a message makes, as ``serve_legs`` leg tuples,
        built once: a transaction indexes its legs by (node, home)
        instead of putting them together on every trip.

        * ``_request[node][home]``: requester -> home (bus, NI egress,
          network, home directory controller);
        * ``_reply[node][home]``: home -> ``node`` (network, NI ingress,
          bus fill) -- the data reply, and with ``node`` = the owner the
          forwarded intervention;
        * ``_fill[node][home]``: the last legs of a 3-hop reply, off the
          network into the requester (NI ingress, bus);
        * by node: ``_depart`` (NI egress, network), ``_inv_in``
          (network, NI ingress), ``_memory`` (the memory controller),
          ``_bus``.

        The legs between a node and itself as home are its bus alone:
        no network interface, no wire.
        """
        nodes = self.nodes
        c_nir = self.c_nir
        wire = (None, self.c_net)
        self._bus = [((nm.bus, self.c_bus),) for nm in nodes]
        self._depart = [((nm.ni_out, c_nir), wire) for nm in nodes]
        self._inv_in = [(wire, (nm.ni_in, c_nir)) for nm in nodes]
        self._memory = [((nm.mem, self.c_mem),) for nm in nodes]
        dirctrl = [((nm.dirctrl, self.c_nil),) for nm in nodes]
        self._request, self._reply, self._fill = [], [], []
        for n, nm in enumerate(nodes):
            bus = self._bus[n]
            out = bus + self._depart[n]
            fill = ((nm.ni_in, c_nir),) + bus
            reply = (wire,) + fill
            self._request.append(
                [(bus if h == n else out) + dirctrl[h]
                 for h in range(len(nodes))])
            self._reply.append([reply] * len(nodes))
            self._fill.append([fill] * len(nodes))
            self._reply[n][n] = self._fill[n][n] = bus
        self._inv_names = [f"inv:n{n}" for n in range(len(nodes))]
        self._pfx_names = [f"pfx:n{n}" for n in range(len(nodes))]

    def _make_evict_handler(self, node_id: int):
        def handler(line: CacheLine) -> None:
            if line.fetcher is not None:
                self._finalize_line(line)
            self.directory.drop_node(line.line_addr, node_id)
            for l1 in self.nodes[node_id].l1s:
                l1.invalidate(line.line_addr)
            if line.dirty:
                # Background writeback: occupy the home memory controller.
                home = self.placement.home(line.line_addr)
                legs = self._bus[node_id]
                if home != node_id:
                    legs += self._depart[node_id]
                self.engine.process(
                    serve_legs(legs + self._memory[home]), name="wb")
        return handler

    def _finalize_line(self, line: CacheLine) -> None:
        """Classify a fill whose record is complete (callers test
        ``line.fetcher is not None`` first: runtime words carry none)."""
        self.probe.classify(line.fetcher, line.fill_kind,
                            line_outcome(line), self.engine.now)
        line.fetcher = None

    def _set_record(self, line: CacheLine, fetcher: str, kind: str,
                    merged_late: bool) -> None:
        """Attach a fresh classification record to a line (finalizing any
        previous one, e.g. on a shared->exclusive upgrade)."""
        if line.fetcher is not None:
            self._finalize_line(line)
        if (self.noclass_base is not None
                and line.line_addr >= self.noclass_base):
            return
        line.fetcher = fetcher
        line.fill_kind = kind
        line.sibling_hit = False
        line.merged_late = merged_late
        line.fill_time = self.engine.now

    def _touch(self, nm: NodeMemory, line: CacheLine, stream: str) -> None:
        """Record a reference for classification + self-invalidation."""
        line.last_ref_time = self.engine.now
        line.epoch = nm.epoch
        if line.fetcher is not None and stream != line.fetcher:
            line.sibling_hit = True

    # ------------------------------------------------------------ public API

    def l1_probe(self, node: int, cpu: int, addr: int) -> bool:
        """Synchronous L1 load probe (caller charges the 1-cycle hit).
        The public form of what ``ThreadShell.timed_load`` asks its own
        ``l1`` directly; tests use it to write the reference
        composition of a timed access."""
        return self.nodes[node].l1s[cpu].lookup(addr)

    def fast_paths(self, shell, gbase, store, miss):
        """The synchronous hit path of one stream, built once per shell:
        returns ``(fast_read, fast_write)``, the VM's two memory hooks.

        ``fast_read(gidx, flat)`` returns the loaded value, or ``miss``
        when the access leaves the CMP (the caller then takes the
        shell's ``timed_load``); ``fast_write(gidx, flat, value)`` returns
        True when the store is complete, False when the caller must take
        the timed ``store`` (R-stream) or issue ``prefetch_exclusive``
        (A-stream).  Hits have no externally visible contention, so they
        bypass the event engine: the tag matches, LRU touches, reference
        records and statistics of ``L1Tags.lookup``/``insert``,
        ``Cache.lookup``, ``_touch`` and ``_store_update_l1s`` are
        open-coded here, with the shell's accounting and the value
        access.

        Each hook is built for the stream's role, so an R-stream never
        evaluates an A-stream's session state.  A load that hits the
        most recently used way of its L1 set -- which changes no LRU
        order, so it writes nothing to the tag store -- costs the VM
        one Python call, the hook; every other synchronous outcome of a
        load (a hit on another way, an L2 hit, a decline) is the hook
        plus ``read_rest``, the one remainder both roles share; a store
        is one call.  ``shell`` is the stream's ``ThreadShell``: its
        ``_debt`` and ``fast_mem_cycles`` are charged, its ``_prof``
        tagged, and an A-stream's session state read.  ``store`` is the
        image's ``GlobalStore``: values are loaded through its buffer
        views and stored into its arrays.  An access that returns
        ``miss``/False has changed nothing -- in particular its L1 miss
        is counted by the timed path's own probe, not here.
        """
        stream = shell.role
        nm = self.nodes[shell.node]
        l1, l2 = nm.l1s[shell.cpu], nm.l2
        siblings = [c for c in nm.l1s if c is not l1]
        l1_sets, l1_mask = l1._sets, l1._set_mask
        l2_sets, l2_mask = l2._sets, l2._set_mask
        shift = self._line_shift
        # Globals are arrays of 8-byte words on line-aligned bases, so
        # an element's line number is its word number shifted: no byte
        # address is made (``MachineConfig`` holds lines to >= 8 bytes).
        wbase = [b >> 3 for b in gbase]
        wshift = shift - 3
        views, arrays = store.views, store.arrays
        mshrs = nm.mshrs
        counts = nm.counts
        engine = self.engine
        max_prefetches = self.MAX_PREFETCHES
        INVALID, EXCLUSIVE = MESIState.INVALID, MESIState.EXCLUSIVE
        prof = shell._prof
        debt_limit = shell.DEBT_LIMIT
        # A hit is one busy cycle; latency beyond it is memory stall,
        # tagged with the level that (by its latency) served it.
        c_l2 = self.c_l2
        l1_stall = self.c_l1 - 1.0 if self.c_l1 > 1.0 else 0.0
        l2_stall = c_l2 - 1.0 if c_l2 > 1.0 else 0.0
        l1_tag = "l2" if l1_stall else "l1"
        l2_tag = "l2" if l2_stall else "l1"
        store_stall = c_l2 - 1.0

        def read_rest(gidx: int, flat: int, ln: int, s: list):
            # A load that did not hit the MRU way of its L1 set ``s``.
            if ln in s:
                s.remove(ln)                 # remove + insert(0) = MRU
                s.insert(0, ln)
                l1.hits += 1
                shell._debt += 1.0
                if l1_stall:
                    shell.fast_mem_cycles += l1_stall
                    shell._debt += l1_stall
                if prof is not None:
                    prof.fast(1.0, l1_stall, l1_tag)
                return views[gidx][flat]
            la = ln << shift
            s2 = l2_sets[ln & l2_mask]
            line = s2.get(la)
            if line is None or line.state == INVALID:
                return miss
            l1.misses += 1
            del s2[la]                       # delete + reinsert = MRU
            s2[la] = line
            l2.hits += 1
            line.last_ref_time = engine.now
            line.epoch = nm.epoch
            if line.fetcher is not None and line.fetcher != stream:
                line.sibling_hit = True
            s.insert(0, ln)
            if s.pop() is not None:          # the tail: LRU way, or empty
                l1.evictions += 1
            counts["l2_hits"] += 1
            counts["loads"] += 1
            shell._debt += 1.0
            if l2_stall:
                shell.fast_mem_cycles += l2_stall
                shell._debt += l2_stall
            if prof is not None:
                prof.fast(1.0, l2_stall, l2_tag)
            return views[gidx][flat]

        if stream == "A":
            def fast_read(gidx: int, flat: int):
                job = shell.current_job
                if (job.slip_setting if shell.in_region and job is not None
                        else shell.control.effective)[0] == "NONE":
                    # Dormant: executes, touches no shared memory.
                    shell._debt += 1.0
                    if prof is not None:
                        prof.fast(1.0, 0.0, "l1")
                    return views[gidx][flat]
                debt = shell._debt
                if debt > debt_limit:
                    return miss
                ln = (wbase[gidx] + flat) >> wshift
                s = l1_sets[ln & l1_mask]
                if s[0] != ln:
                    return read_rest(gidx, flat, ln, s)
                l1.hits += 1
                shell._debt = debt + 1.0
                if l1_stall:
                    shell.fast_mem_cycles += l1_stall
                    shell._debt += l1_stall
                if prof is not None:
                    prof.fast(1.0, l1_stall, l1_tag)
                return views[gidx][flat]

            def fast_write(gidx: int, flat: int, value) -> bool:
                # An A-stream's shared store is skipped outright when it is
                # dormant, when it is not in the same barrier-delimited
                # session as its R-stream (store->prefetch conversion
                # applies only there), or when the prefetch would be dropped
                # anyway -- prefetch_exclusive's drop rules, with the same
                # classification side effect on an already-owned line.
                job = shell.current_job
                ch = shell.channel
                if ((job.slip_setting if shell.in_region and job is not None
                     else shell.control.effective)[0] != "NONE"
                        and ch is not None
                        and len(ch.a_sites) == len(ch.r_sites)):
                    ln = (wbase[gidx] + flat) >> wshift
                    la = ln << shift
                    line = l2_sets[ln & l2_mask].get(la)
                    if line is not None and line.state == EXCLUSIVE:
                        if line.fetcher is not None and line.fetcher != "A":
                            line.sibling_hit = True
                    elif (la not in mshrs
                            and nm.outstanding_prefetches < max_prefetches):
                        return False         # slow path issues the prefetch
                shell._debt += 1.0
                if prof is not None:
                    prof.fast(1.0, 0.0, "l1")
                return True
        else:
            def fast_read(gidx: int, flat: int):
                debt = shell._debt
                if debt > debt_limit:
                    return miss
                ln = (wbase[gidx] + flat) >> wshift
                s = l1_sets[ln & l1_mask]
                if s[0] != ln:
                    return read_rest(gidx, flat, ln, s)
                l1.hits += 1
                shell._debt = debt + 1.0
                if l1_stall:
                    shell.fast_mem_cycles += l1_stall
                    shell._debt += l1_stall
                if prof is not None:
                    prof.fast(1.0, l1_stall, l1_tag)
                return views[gidx][flat]

            def fast_write(gidx: int, flat: int, value) -> bool:
                # Only an EXCLUSIVE L2 hit completes without coherence
                # actions.
                ln = (wbase[gidx] + flat) >> wshift
                la = ln << shift
                s2 = l2_sets[ln & l2_mask]
                line = s2.get(la)
                if line is None or line.state != EXCLUSIVE:
                    return False
                del s2[la]
                s2[la] = line
                l2.hits += 1
                line.last_ref_time = engine.now
                line.epoch = nm.epoch
                if line.fetcher is not None and line.fetcher != stream:
                    line.sibling_hit = True
                line.dirty = True
                # Write-through: keep the writer's L1 copy, drop siblings'.
                idx = ln & l1_mask
                for sib in siblings:
                    ss = sib._sets[idx]
                    if ln in ss:
                        ss.remove(ln)
                        ss.append(None)
                        sib.invalidations += 1
                s = l1_sets[idx]
                if ln not in s:
                    s.insert(0, ln)
                    if s.pop() is not None:
                        l1.evictions += 1
                counts["l2_hits"] += 1
                counts["stores"] += 1
                shell._debt += c_l2
                shell.fast_mem_cycles += store_stall
                if prof is not None:
                    prof.fast(1.0, store_stall, l2_tag)
                arrays[gidx][flat] = value
                return True

        return fast_read, fast_write

    def load(self, node: int, cpu: int, addr: int, stream: str = "R"):
        """Generator: an L1-missing shared load.  Returns AccessResult.

        An L2 hit costs the L2 latency; a load that finds the line's
        miss outstanding merges onto it and probes again; otherwise it
        is the primary miss and runs the read (GETS) transaction here,
        in this generator -- request trip, line lock at the home, the
        memory access or the 3-hop intervention, reply trip, fill."""
        if not SHARED_BASE <= addr < SHARED_LIMIT:
            raise AssertionError(hex(addr))
        nm = self.nodes[node]
        counts = nm.counts
        counts["loads"] += 1
        la = addr >> self._line_shift << self._line_shift
        engine = self.engine
        start = engine.now
        l2, mshrs = nm.l2, nm.mshrs
        while True:
            line = l2.lookup(la)
            if line is not None:
                yield self.c_l2
                self._touch(nm, line, stream)
                nm.l1s[cpu].insert(la)
                counts["l2_hits"] += 1
                return AccessResult("l2", engine.now - start)
            mshr = mshrs.get(la)
            if mshr is None:
                break
            # Merge onto the outstanding miss, then re-probe: the fill
            # is now resident (usually).
            if stream != mshr.fetcher:
                mshr.late = True
            counts["mshr_merges"] += 1
            yield mshr
        mshr = mshrs[la] = engine.event(f"gets:{la:#x}", _Mshr)
        mshr.fetcher = stream
        try:
            home = self.placement.home(la, node)
            level = "local" if home == node else "remote"
            yield from serve_legs(self._request[node][home])
            entry = self.directory.entry(la)
            lock = entry.lock or self.directory.lock(la)
            if not lock.try_acquire():
                yield from lock.acquire()
            try:
                if entry.state == DirState.EXCLUSIVE and entry.owner != node:
                    level = "remote3"
                    owner = entry.owner
                    # Intervention: home forwards to the owner...
                    yield from serve_legs(self._reply[owner][home])
                    self.nodes[owner].l2.downgrade(la)
                    # ...owner replies with data straight to the requester
                    # and writes back to home memory in the background.
                    yield from serve_legs(self._depart[owner])
                    engine.process(serve_legs(self._memory[home]),
                                   name="3hop-wb")
                    entry.demote_to_shared(node)
                    yield from serve_legs(self._fill[node][home])
                else:
                    yield from serve_legs(self._memory[home])
                    entry.add_sharer(node)
                    yield from serve_legs(self._reply[node][home])
            finally:
                lock.release()
            line = l2.insert(la, MESIState.SHARED)
            self._set_record(line, stream, "read", mshr.late)
            if nm.probe.emitter is not None:
                nm.probe.instant(
                    "coh.gets", engine.now,
                    {"addr": la, "level": level, "stream": stream})
        finally:
            # Runs on success AND on interruption (slipstream recovery can
            # abort an A-stream mid-miss): release waiters either way.
            if mshrs.get(la) is mshr:
                del mshrs[la]
            if not mshr.fired:
                mshr.fire()
        self._touch(nm, line, stream)
        nm.l1s[cpu].insert(la)
        counts[level] += 1
        return AccessResult(level, engine.now - start)

    def store(self, node: int, cpu: int, addr: int, stream: str = "R"):
        """Generator: a shared store (write-through L1, allocate in L2)."""
        if not SHARED_BASE <= addr < SHARED_LIMIT:
            raise AssertionError(hex(addr))
        nm = self.nodes[node]
        counts = nm.counts
        counts["stores"] += 1
        la = addr >> self._line_shift << self._line_shift
        start = self.engine.now
        while True:
            line = nm.l2.lookup(la)
            if line is not None and line.state == MESIState.EXCLUSIVE:
                yield self.c_l2
                self._touch(nm, line, stream)
                line.dirty = True
                self._store_update_l1s(nm, cpu, la)
                counts["l2_hits"] += 1
                return AccessResult("l2", self.engine.now - start)
            mshr = nm.mshrs.get(la)
            if mshr is None:
                break
            if stream != mshr.fetcher:
                mshr.late = True
            counts["mshr_merges"] += 1
            yield mshr
        if line is not None:        # resident SHARED: an upgrade
            self._touch(nm, line, stream)
        level = yield from self._getx(node, la, stream)
        self._store_update_l1s(nm, cpu, la)
        counts[level] += 1
        return AccessResult(level, self.engine.now - start)

    def _store_update_l1s(self, nm: NodeMemory, cpu: int, la: int) -> None:
        """Write-through: keep the writer's L1 copy, invalidate siblings'."""
        for i, l1 in enumerate(nm.l1s):
            if i != cpu:
                l1.invalidate(la)
        nm.l1s[cpu].insert(la)

    def prefetch_exclusive(self, node: int, addr: int, stream: str = "A") -> bool:
        """Non-binding prefetch-for-ownership: the A-stream's converted
        shared store.  Fire-and-forget; returns False if dropped (line
        already owned, already in flight, or MSHRs saturated)."""
        if not SHARED_BASE <= addr < SHARED_LIMIT:
            raise AssertionError(hex(addr))
        nm = self.nodes[node]
        la = addr >> self._line_shift << self._line_shift
        line = nm.l2.peek(la)
        if line is not None and line.state == MESIState.EXCLUSIVE:
            if line.fetcher is not None and stream != line.fetcher:
                line.sibling_hit = True
            return False
        if la in nm.mshrs:
            return False
        if nm.outstanding_prefetches >= self.MAX_PREFETCHES:
            nm.probe.count("prefetch_dropped")
            return False
        nm.outstanding_prefetches += 1
        nm.probe.count("prefetch_ex")
        if nm.probe.emitter is not None:
            nm.probe.instant("coh.pfx", self.engine.now, {"addr": la})
        self.engine.process(self._getx(node, la, stream, prefetch=True),
                            name=self._pfx_names[node])
        return True

    # ------------------------------------------------------- transactions

    # A message's trip is one ``serve_legs`` generator over the servers
    # and wires it crosses; ``_build_routes`` made the leg tuples.  The
    # read transaction lives in ``load``, its only user.

    def _getx(self, node: int, la: int, stream: str, prefetch: bool = False):
        """Write-ownership transaction (GETX, or an upgrade -- permission
        only, no memory access -- when the line is resident SHARED as
        the transaction starts): the miss of a ``store``, or -- with
        ``prefetch`` -- a prefetch-exclusive running as its own process,
        which gives its prefetch slot back when it ends."""
        nm = self.nodes[node]
        upgrade = nm.l2.peek(la) is not None
        engine = self.engine
        mshr = nm.mshrs[la] = engine.event(f"getx:{la:#x}", _Mshr)
        mshr.fetcher = stream
        try:
            home = self.placement.home(la, node)
            level = "local" if home == node else "remote"
            yield from serve_legs(self._request[node][home])
            entry = self.directory.entry(la)
            lock = entry.lock or self.directory.lock(la)
            if not lock.try_acquire():
                yield from lock.acquire()
            try:
                if entry.state == DirState.EXCLUSIVE and entry.owner != node:
                    level = "remote3"
                    owner = entry.owner
                    yield from serve_legs(self._reply[owner][home])
                    self._invalidate_node_line(owner, la)
                    yield from serve_legs(
                        self._depart[owner] + self._fill[node][home])
                else:
                    # Invalidate all other sharers (concurrently) while
                    # memory is accessed (skipped on an upgrade:
                    # permission only).
                    sharers = entry.sharers - {node}
                    acks = [self._spawn_inv(home, s, la) for s in sharers]
                    if sharers:
                        nm.probe.count("inv_rounds")
                        nm.probe.count("invs_sent", len(sharers))
                    if not upgrade:
                        yield from serve_legs(self._memory[home])
                    if acks:
                        yield engine.all_of(acks)
                    yield from serve_legs(self._reply[node][home])
                entry.set_exclusive(node)
            finally:
                lock.release()
            line = nm.l2.insert(la, MESIState.EXCLUSIVE)
            line.state = MESIState.EXCLUSIVE
            line.dirty = True
            self._set_record(line, stream, "rdex", mshr.late)
            if nm.probe.emitter is not None:
                nm.probe.instant(
                    "coh.getx", engine.now,
                    {"addr": la, "level": level, "stream": stream})
            return level
        finally:
            if nm.mshrs.get(la) is mshr:
                del nm.mshrs[la]
            if not mshr.fired:
                mshr.fire()
            if prefetch:
                nm.outstanding_prefetches -= 1

    def _spawn_inv(self, home: int, sharer: int, la: int):
        """Start one sharer's invalidation; returns its ack event."""
        engine = self.engine
        ack = engine.event(f"invack:{la:#x}")
        engine.process(self._inv(home, sharer, la, ack),
                       name=self._inv_names[sharer])
        return ack

    def _inv(self, home: int, sharer: int, la: int, ack):
        remote = sharer != home
        if remote:
            yield from serve_legs(self._inv_in[sharer])
        self._invalidate_node_line(sharer, la)
        if remote:
            yield from serve_legs(self._depart[sharer])
        probe = self.nodes[sharer].probe
        if probe.emitter is not None:
            probe.instant("coh.inv", self.engine.now, {"addr": la})
        ack.fire()

    def _invalidate_node_line(self, node: int, la: int) -> None:
        nm = self.nodes[node]
        line = nm.l2.invalidate(la)
        if line is not None and line.fetcher is not None:
            self._finalize_line(line)
        for l1 in nm.l1s:
            l1.invalidate(la)

    # ---------------------------------------------- slipstream-side hooks

    def bump_epoch(self, node: int) -> None:
        """Advance the node's reference epoch (called at barriers)."""
        self.nodes[node].epoch += 1

    def self_invalidate_stale(self, node: int) -> int:
        """Self-invalidate SHARED lines not referenced in the current
        epoch (the A-stream's view of the future says they will migrate).
        Returns the number of lines dropped."""
        nm = self.nodes[node]
        dropped = 0
        for ln in list(nm.l2.lines()):
            if (ln.state != MESIState.SHARED or ln.dirty
                    or ln.epoch >= nm.epoch):
                continue
            # Leave lines alone while a coherence transaction holds them
            # (their directory state is mid-flight).
            if self.directory.is_locked(ln.line_addr):
                continue
            if ln.line_addr in nm.mshrs:
                continue
            self._invalidate_node_line(node, ln.line_addr)
            self.directory.drop_node(ln.line_addr, node)
            dropped += 1
        self.selfinv_drops += dropped
        if dropped:
            nm.probe.count("selfinv_drops", dropped)
            if nm.probe.emitter is not None:
                nm.probe.instant("selfinv", self.engine.now,
                                 {"dropped": dropped})
        return dropped

    # ------------------------------------------------------------ teardown

    def finalize(self) -> None:
        """Classify every still-resident fill at end of simulation."""
        for nm in self.nodes:
            for line in nm.l2.lines():
                if line.fetcher is not None:
                    self._finalize_line(line)

    def publish_cache_stats(self) -> None:
        """Fold the caches' local hit/miss tallies into each node's
        counter track (called once at collection time; the caches keep
        plain ints on their hot paths)."""
        for nm in self.nodes:
            nm.fold_counts()
            count = nm.probe.count
            count("cache.l2.hits", nm.l2.hits)
            count("cache.l2.misses", nm.l2.misses)
            count("cache.l2.evictions", nm.l2.evictions)
            count("cache.l2.invalidations", nm.l2.invalidations)
            for l1 in nm.l1s:
                count("cache.l1.hits", l1.hits)
                count("cache.l1.misses", l1.misses)
                count("cache.l1.invalidations", l1.invalidations)

    def machine_stats(self) -> Counter:
        """Aggregate per-node counters machine-wide."""
        agg = Counter()
        for nm in self.nodes:
            nm.fold_counts()
            agg.merge(nm.stats)
        return agg

