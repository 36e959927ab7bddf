"""Discrete-event simulation engine.

The engine drives *processes* -- plain Python generators that yield
:class:`SimEvent` objects (resume when the event fires) or non-negative
numbers (resume after that many simulated time units).  Sub-routines
compose with ``yield from``, so a simulated CPU can call into a runtime
library which calls into a coherence protocol, all sharing one generator
stack.

Determinism: events scheduled for the same timestamp are processed in
scheduling order, so repeated runs of the same configuration produce
identical cycle counts.  The queue is a calendar/bucket queue drained
by one fused loop (see ``Engine``); the ``heapq`` of ``(time, seq,
proc, value)`` tuples it must agree with lives in
``tests/heap_engine.py``, where the property tests compare the two.
"""

from __future__ import annotations

import heapq
from math import inf
from operator import length_hint
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.probe import NULL_PROBE, Probe

__all__ = ["SimEvent", "Process", "Engine", "SimulationError", "Interrupt"]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double fire, deadlock, ...)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    Used by slipstream recovery to abort a diverged A-stream mid-wait.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot event processes can wait on.

    An event is *fired* at most once, optionally with a value; every
    process waiting on it is resumed at the fire time and receives the
    value as the result of its ``yield``.
    """

    __slots__ = ("engine", "fired", "value", "_waiters", "_callbacks",
                 "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.fired = False
        self.value: Any = None
        self._waiters: list["Process"] = []
        self._callbacks: Optional[list] = None
        self.name = name

    def fire(self, value: Any = None, delay: float = 0.0) -> None:
        """Fire the event ``delay`` time units from now."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        schedule = self.engine._schedule
        for proc in self._waiters:
            schedule(proc, delay, value)
        self._waiters.clear()
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for cb in callbacks:
                cb(value, delay)

    def add_callback(self, cb: Callable[[Any, float], None]) -> None:
        """Invoke ``cb(value, delay)`` synchronously when this event
        fires (after its waiting processes have been scheduled).

        Unlike a waiting process, a callback costs no queue turn --
        this is what lets :meth:`Engine.all_of` track N events without
        spawning N watcher processes.  On an already-fired event the
        callback runs immediately."""
        if self.fired:
            cb(self.value, 0.0)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def _subscribe(self, proc: "Process") -> None:
        if self.fired:
            # Late subscription: resume immediately with the stored value.
            self.engine._schedule(proc, 0.0, self.value)
        else:
            self._waiters.append(proc)

    def remove_waiter(self, proc: "Process") -> bool:
        """Stop ``proc`` from being resumed by this event.  Returns True
        if the process was actually waiting here."""
        try:
            self._waiters.remove(proc)
            return True
        except ValueError:
            return False


class Process:
    """A running generator coroutine inside the engine."""

    __slots__ = ("engine", "gen", "name", "alive", "_done_event", "result",
                 "_waiting_on", "_pending_interrupt")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.alive = True
        self.result: Any = None
        self._done_event: Optional[SimEvent] = None
        self._waiting_on: Optional[SimEvent] = None
        self._pending_interrupt: Optional[Interrupt] = None

    @property
    def done_event(self) -> SimEvent:
        """Event fired with the process's result when it ends.

        Made on first access -- most processes (invalidations,
        prefetches, writebacks) are never joined.  Asked for after the
        process ended, it comes back already fired, carrying
        ``result``."""
        evt = self._done_event
        if evt is None:
            evt = self._done_event = SimEvent(self.engine,
                                              name=f"done:{self.name}")
            if not self.alive:
                evt.fired = True
                evt.value = self.result
        return evt

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.alive:
            return
        self._pending_interrupt = Interrupt(cause)
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        else:
            # A sleep cut short: its timed resumption must never run.
            self.engine._cancel(self)
        # Resume (the interrupt is delivered in _step).
        self.engine._schedule(self, 0.0, None)

    def kill(self) -> None:
        """Terminate the process without running any more of its body."""
        if not self.alive:
            return
        self.alive = False
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self.gen.close()
        done = self._done_event
        if done is not None and not done.fired:
            done.fire(None)

    def _step(self, sendval: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            if self._pending_interrupt is not None:
                exc = self._pending_interrupt
                self._pending_interrupt = None
                cmd = self.gen.throw(exc)
            else:
                cmd = self.gen.send(sendval)
        except StopIteration as stop:
            self._exit(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interrupt: it dies quietly.
            self._exit(None)
            return
        self._dispatch(cmd)

    def _exit(self, result: Any) -> None:
        self.alive = False
        self.result = result
        if self._done_event is not None:
            self._done_event.fire(result)

    def _dispatch(self, cmd: Any) -> None:
        if isinstance(cmd, SimEvent):
            self._waiting_on = cmd
            cmd._subscribe(self)
        elif cmd is None:
            self.engine._schedule(self, 0.0, None)
        elif isinstance(cmd, (int, float)) and not isinstance(cmd, bool):
            # One test refuses negative, infinite and NaN delays (every
            # comparison with NaN is false): a NaN timestamp would
            # silently poison the heap order of the queue.
            if not 0 <= cmd < inf:
                raise SimulationError(
                    f"process {self.name!r} yielded illegal delay {cmd!r} "
                    "(negative, infinite or NaN)")
            self.engine._schedule(self, float(cmd), None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {cmd!r}")


class _TimerFire:
    """Queue entry that fires an event when its time comes.

    Duck-types the slice of :class:`Process` the drain loop touches
    (``alive``, ``name``, ``_step``), so ``Engine.timeout_event`` and
    ``Engine.all_of`` can place the fire directly in the queue instead
    of spawning a shim process (and its generator) per fire.  Its
    ``_pending_interrupt`` is set for good: the fused loop's one test
    for "not a plain resumption" then hands it to ``_step``."""

    __slots__ = ("evt", "name")

    alive = True
    _pending_interrupt = True

    def __init__(self, evt: "SimEvent", name: str):
        self.evt = evt
        self.name = name

    def _step(self, value: Any) -> None:
        self.evt.fire(value)


class _Cancelled:
    """Stand-in process of a queue entry whose resumption was cancelled:
    dead, so the drain loop skips it like a killed process's entry."""

    __slots__ = ()
    alive = False


#: The queue entry a cancelled resumption is swapped for.
_CANCELLED = (_Cancelled(), None)


class Engine:
    """The event loop: a clock plus an ordered queue of resumptions.

    The queue is a calendar/bucket queue: a dict of timestamp -> FIFO
    bucket plus a small heap of *distinct* timestamps.  Same-time
    entries append to an existing bucket for O(1) -- no heap push, no
    tuple comparison -- which is the common case on the simulator's
    zero-delay cascades; only the first entry per distinct timestamp
    pays a heap operation.  Non-integer times need no special case:
    buckets are keyed by the exact float timestamp.  One fused loop
    (:meth:`_drain`) pops, resumes and reschedules.

    The order is "time, then scheduling order" -- that of a heap of
    ``(time, seq, proc, value)`` tuples: a bucket's FIFO *is* seq order
    because ``_schedule`` appends monotonically.
    """

    def __init__(self, obs: Probe = NULL_PROBE):
        self.now: float = 0.0
        # Work counts, folded into ``obs`` by publish_stats().
        self._nprocs = 0
        self._nevents = 0
        self._stopped = False
        self.obs = obs
        self.trace_hook: Optional[Callable[[float, Process], None]] = None
        self._buckets: dict = {}     # time -> list[(proc, value)]
        self._times: list = []       # heap of distinct bucket times
        # The bucket being drained right now: popped from
        # ``_buckets``/``_times`` wholesale and walked through this
        # iterator; entries scheduled *at* its timestamp while it
        # drains land in a fresh dict bucket and are reached
        # afterwards -- exactly the (time, seq) order of a heap.
        self._front = iter(())
        self._front_t: float = 0.0
        self._front_bucket: list = []    # the list ``_front`` walks

    # -- process management -------------------------------------------------

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process, starting at the current time."""
        proc = Process(self, gen, name=name or f"proc{self._nprocs}")
        self._nprocs += 1
        self._schedule(proc, 0.0, None)
        return proc

    def event(self, name: str = "", cls=SimEvent) -> SimEvent:
        """Create a fresh one-shot event, counted under
        ``engine.events`` -- the one place that count is kept.  ``cls``
        is ``SimEvent`` or a subclass built as ``cls(engine, name)``
        (the memory system's MSHR is the event its miss fires)."""
        self._nevents += 1
        return cls(self, name)

    def timeout_event(self, delay: float, value: Any = None,
                      name: str = "") -> SimEvent:
        """An event that fires by itself ``delay`` from now.

        The fire is scheduled directly in the queue (a
        :class:`_TimerFire` entry) -- no shim process, no generator,
        and no extra queue turn at the current time.  As before, the
        event itself is not counted under ``engine.events`` (it is
        engine-internal, like a process's done_event)."""
        evt = SimEvent(self, name=name)
        self._schedule(_TimerFire(evt, f"timer:{name}"), delay, value)
        return evt

    def all_of(self, events: Iterable[SimEvent], name: str = "") -> SimEvent:
        """Event that fires once every input event has fired.

        Tracked with direct subscriber callbacks -- O(1) bookkeeping
        per input event instead of one watcher process each.  Fire
        ordering is the watchers': when the last input fires, one
        :class:`_TimerFire` entry is queued at that firing's resume
        time (exactly where the last watcher's resumption sat), and the
        output event fires on that turn, not one turn later."""
        events = list(events)
        out = self.event(name=name or "all_of")
        pending = [e for e in events if not e.fired]
        if not pending:
            out.fire([e.value for e in events])
            return out
        remaining = [len(pending)]

        def on_fire(_value, delay):
            remaining[0] -= 1
            if remaining[0] == 0:
                self._schedule(_TimerFire(out, "all_of.fire"), delay,
                               [e.value for e in events])

        for e in pending:
            e.add_callback(on_fire)
        return out

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, proc, delay: float, value: Any) -> None:
        # The common case -- another entry already exists at this
        # timestamp -- is one dict probe plus one list append; only a
        # fresh timestamp pays a heap push, and nothing ever pays a
        # tuple comparison.  The currently draining bucket is *not* in
        # the dict, so same-time entries scheduled during a drain start
        # a new bucket that is reached after it -- preserving
        # scheduling order.  (_drain open-codes this for the
        # resumptions it reschedules itself.)
        t = self.now + delay
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [(proc, value)]
            heapq.heappush(self._times, t)
        else:
            b.append((proc, value))

    def next_time(self) -> Optional[float]:
        """Earliest queued resumption time (``None`` on an empty queue).

        Dead entries count: the front may belong to a killed process
        that will be skipped.
        """
        if length_hint(self._front):
            return self._front_t        # draining bucket still has entries
        times = self._times
        return times[0] if times else None

    def _cancel(self, proc) -> None:
        """Swap every queued resumption of ``proc`` -- in the draining
        bucket's unread tail or any later bucket -- for the dead
        :data:`_CANCELLED` entry.  Rare (an interrupt that finds its
        process asleep), so a scan."""
        front = self._front_bucket
        tails = [(front, len(front) - length_hint(self._front))]
        tails.extend((b, 0) for b in self._buckets.values())
        for bucket, start in tails:
            for i in range(start, len(bucket)):
                if bucket[i][0] is proc:
                    bucket[i] = _CANCELLED

    # -- execution ----------------------------------------------------------
    #
    # One drain loop holds the pop logic; step() and run() are that
    # loop with a budget.

    def _drain(self, until: Optional[float],
               max_steps: Optional[int]) -> bool:
        """Resume queue entries in order until the queue is empty or
        its next entry lies beyond ``until`` (returns True), or until
        ``max_steps`` resumptions ran or :meth:`stop` was called
        (returns False).

        The front bucket is detached from the dict/heap wholesale and
        walked through one list iterator (``_front``) -- one heap pop
        and one clock store *per distinct timestamp*, no index
        bookkeeping per resumption; the iterator is the whole resume
        state, so a budget, a stop or an exception leaves the rest of
        the bucket where the next call finds it.  A resumed process
        that schedules at the current time cannot mutate the detached
        list (the dict no longer holds it), so the walk is append-safe
        by construction.

        The common resumption is fused: ``Process._step``, ``_exit``
        on a normal return, the float and ``SimEvent`` arms of
        ``Process._dispatch`` and ``_schedule`` are open-coded
        below.  Everything else -- timer entries, pending interrupts,
        int/None yields, illegal commands -- goes through those
        methods, which stay the definition of what a resumption does.
        """
        buckets = self._buckets
        times = self._times
        push, pop = heapq.heappush, heapq.heappop
        hook = self.trace_hook
        horizon = inf if until is None else until
        budget = -1 if max_steps is None else max_steps
        if budget == 0:
            return False
        front = self._front
        t = self._front_t
        if length_hint(front):
            if t > horizon:
                return True
            self.now = t
        while True:
            for proc, value in front:
                if not proc.alive:
                    continue
                budget -= 1
                if hook is not None:
                    hook(t, proc)
                if proc._pending_interrupt is not None:
                    proc._step(value)       # an interrupt, or a timer
                else:
                    proc._waiting_on = None
                    try:
                        cmd = proc.gen.send(value)
                    except StopIteration as stop:
                        proc.alive = False
                        proc.result = stop.value
                        if proc._done_event is not None:
                            proc._done_event.fire(stop.value)
                    except Interrupt:
                        proc._exit(None)
                    else:
                        kind = cmd.__class__
                        if kind is float and 0.0 <= cmd < inf:
                            at = t + cmd
                            b = buckets.get(at)
                            if b is None:
                                buckets[at] = [(proc, None)]
                                push(times, at)
                            else:
                                b.append((proc, None))
                        elif kind is SimEvent:
                            proc._waiting_on = cmd
                            if cmd.fired:
                                self._schedule(proc, 0.0, cmd.value)
                            else:
                                cmd._waiters.append(proc)
                        else:
                            proc._dispatch(cmd)
                if budget == 0 or self._stopped:
                    return False
            if not times or times[0] > horizon:
                return True
            t = pop(times)
            self._front_bucket = bucket = buckets.pop(t)
            self._front = front = iter(bucket)
            self._front_t = self.now = t

    def step(self) -> bool:
        """Run one resumption.  Returns False when the queue is empty."""
        self._stopped = False
        return not self._drain(None, 1)

    def stop(self) -> None:
        """Make the :meth:`run` under way return once the resumption
        that called this has been dispatched."""
        self._stopped = True

    def run(self, until: Optional[float] = None,
            max_steps: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, ``max_steps``
        resumptions executed, or a process calls :meth:`stop`.  Returns
        the final clock value.

        With ``until=`` the clock always lands exactly on ``until`` when
        the run ends for lack of work up to it -- including when the
        queue drains early.  When the step budget runs out or the run is
        stopped, work is still pending and the clock stays at the last
        resumption (time has not actually advanced to ``until``).
        """
        self._stopped = False
        if self._drain(until, max_steps) and until is not None \
                and self.now < until:
            self.now = until
        return self.now

    def publish_stats(self) -> None:
        """Fold the work counts into the engine's probe (called once,
        when a run's statistics are collected)."""
        if self._nprocs:
            self.obs.count("engine.processes", self._nprocs)
        if self._nevents:
            self.obs.count("engine.events", self._nevents)

    def run_process(self, gen: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: run a single root process to completion."""
        proc = self.process(gen, name=name)
        self.run(until=until)
        if proc.alive:
            raise SimulationError(
                f"process {name!r} did not finish (deadlock or until= hit)")
        return proc.result
