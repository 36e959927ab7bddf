"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, Interrupt, SimEvent, SimulationError

from .heap_engine import HeapEngine


def test_single_process_delays_advance_clock():
    eng = Engine()
    log = []

    def body():
        log.append(eng.now)
        yield 5
        log.append(eng.now)
        yield 2.5
        log.append(eng.now)
        return "done"

    result = eng.run_process(body(), name="t")
    assert result == "done"
    assert log == [0.0, 5.0, 7.5]
    assert eng.now == 7.5


def test_two_processes_interleave_deterministically():
    eng = Engine()
    log = []

    def worker(tag, step):
        for _ in range(3):
            yield step
            log.append((tag, eng.now))

    eng.process(worker("a", 2), name="a")
    eng.process(worker("b", 3), name="b")
    eng.run()
    # At t=6 both workers resume; b's resumption was scheduled first (at
    # t=3) so FIFO tie-breaking runs it first.
    assert log == [("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9)]


def test_same_time_fifo_ordering():
    eng = Engine()
    order = []

    def w(tag):
        yield 1
        order.append(tag)

    for tag in "abcde":
        eng.process(w(tag), name=tag)
    eng.run()
    assert order == list("abcde")


def test_event_wait_and_value_passing():
    eng = Engine()
    evt = eng.event("sig")
    seen = []

    def waiter():
        val = yield evt
        seen.append((eng.now, val))

    def firer():
        yield 4
        evt.fire("payload")

    eng.process(waiter(), name="w")
    eng.process(firer(), name="f")
    eng.run()
    assert seen == [(4.0, "payload")]


def test_event_fire_twice_raises():
    eng = Engine()
    evt = eng.event()
    evt.fire(1)
    with pytest.raises(SimulationError):
        evt.fire(2)


def test_late_subscription_gets_stored_value():
    eng = Engine()
    evt = eng.event()
    evt.fire(42)
    got = []

    def waiter():
        got.append((yield evt))

    eng.process(waiter())
    eng.run()
    assert got == [42]


def test_yield_from_composes_subroutines():
    eng = Engine()

    def inner():
        yield 3
        return 10

    def outer():
        a = yield from inner()
        yield 2
        return a + 1

    assert eng.run_process(outer()) == 11
    assert eng.now == 5.0


def test_negative_delay_rejected():
    eng = Engine()

    def bad():
        yield -1

    eng.process(bad())
    with pytest.raises(SimulationError):
        eng.run()


@pytest.mark.parametrize("buckets", [True, False])
@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5, -1,
                                   True, False])
def test_illegal_delay_is_rejected_naming_the_process(buckets, delay):
    """NaN compares false with everything, so ``cmd < 0`` let it through
    and its timestamp then broke the queue's heap order silently; an
    infinite delay and a ``bool`` are no delays either.  The bucket
    queue and the heapq reference refuse them through the same
    ``_dispatch``."""
    eng = Engine() if buckets else HeapEngine()

    def bad():
        yield 1.0
        yield delay

    eng.process(bad(), name="culprit")
    with pytest.raises(SimulationError, match="culprit"):
        eng.run()
    assert eng.now == 1.0


def test_run_until_stops_clock():
    eng = Engine()

    def slow():
        yield 100

    eng.process(slow())
    eng.run(until=10)
    assert eng.now == 10


def test_all_of_waits_for_every_event():
    eng = Engine()
    e1, e2 = eng.event(), eng.event()
    done = []

    def waiter():
        vals = yield eng.all_of([e1, e2])
        done.append((eng.now, vals))

    def f1():
        yield 2
        e1.fire("x")

    def f2():
        yield 7
        e2.fire("y")

    eng.process(waiter())
    eng.process(f1())
    eng.process(f2())
    eng.run()
    assert done == [(7.0, ["x", "y"])]


def test_all_of_with_prefired_events():
    eng = Engine()
    e1 = eng.event()
    e1.fire(1)
    e2 = eng.event()
    e2.fire(2)
    out = eng.all_of([e1, e2])
    assert out.fired and out.value == [1, 2]


def test_interrupt_delivered_as_exception():
    eng = Engine()
    evt = eng.event()
    caught = []

    def victim():
        try:
            yield evt
        except Interrupt as i:
            caught.append((eng.now, i.cause))

    def attacker(proc):
        yield 5
        proc.interrupt("diverged")

    p = eng.process(victim(), name="victim")
    eng.process(attacker(p), name="attacker")
    eng.run()
    assert caught == [(5.0, "diverged")]
    # The event should no longer resume the victim.
    assert not evt._waiters


@pytest.mark.parametrize("engine_cls", (Engine, HeapEngine))
@pytest.mark.parametrize("at", (3, 10), ids=("later-bucket", "same-bucket"))
def test_interrupted_sleeper_is_never_resumed_by_its_old_timer(engine_cls,
                                                               at):
    """A sleep cut short by an interrupt is cancelled, not left queued:
    the old timer -- in a later bucket, or in the bucket being drained
    behind the interrupter -- must not resume the process again in the
    middle of its next sleep."""
    eng = engine_cls()
    log = []

    def sleeper():
        try:
            yield 10.0
            log.append(("woke", eng.now))
        except Interrupt:
            log.append(("interrupted", eng.now))
        yield 20.0
        log.append(("slept", eng.now))

    def interrupter(victims):
        yield float(at)
        victims[0].interrupt("diverged")

    # The interrupter is queued first, so at t=10 its resumption comes
    # ahead of the sleeper's timer in the one bucket.
    victims = []
    eng.process(interrupter(victims))
    victims.append(eng.process(sleeper()))
    eng.run()
    assert log == [("interrupted", float(at)), ("slept", at + 20.0)]


def test_kill_stops_process_and_fires_done():
    eng = Engine()

    def forever():
        while True:
            yield 1

    p = eng.process(forever())
    def killer():
        yield 3
        p.kill()

    eng.process(killer())
    eng.run()
    assert not p.alive
    assert p.done_event.fired


def test_done_event_carries_return_value():
    eng = Engine()

    def child():
        yield 2
        return "rv"

    results = []

    def parent():
        proc = eng.process(child())
        results.append((yield proc.done_event))

    eng.process(parent())
    eng.run()
    assert results == ["rv"]


def test_run_process_detects_deadlock():
    eng = Engine()
    evt = eng.event()

    def stuck():
        yield evt

    with pytest.raises(SimulationError):
        eng.run_process(stuck(), name="stuck")


def test_timeout_event_fires_by_itself():
    eng = Engine()
    evt = eng.timeout_event(6, value="tick")
    seen = []

    def w():
        seen.append((yield evt))

    eng.process(w())
    eng.run()
    assert seen == ["tick"] and eng.now == 6.0


def test_event_callback_runs_at_fire_time():
    eng = Engine()
    evt = eng.event()
    seen = []
    evt.add_callback(lambda value, delay: seen.append((value, delay)))

    def firer():
        yield 5
        evt.fire("v", delay=2.0)

    eng.process(firer())
    eng.run()
    assert seen == [("v", 2.0)]


def test_event_callback_on_fired_event_runs_immediately():
    eng = Engine()
    evt = eng.event()
    evt.fire(42)
    seen = []
    evt.add_callback(lambda value, delay: seen.append(value))
    assert seen == [42]


def test_all_of_fires_after_waiters_of_last_event():
    # The combined event must not fire before processes waiting on the
    # last input event have been scheduled (fire-ordering guarantee of
    # the callback-based implementation).
    eng = Engine()
    e1, e2 = eng.event(), eng.event()
    order = []

    def waiter(evt, tag):
        yield evt
        order.append(tag)

    def firer():
        yield 1
        e1.fire("a")
        yield 1
        e2.fire("b")

    eng.process(waiter(e2, "direct"))     # subscribes before all_of
    combined = eng.all_of([e1, e2])
    eng.process(waiter(combined, "combined"))
    eng.process(firer())
    eng.run()
    assert order == ["direct", "combined"]
    assert combined.value == ["a", "b"]


def test_all_of_spawns_no_watcher_processes():
    # The barrier must track N events with O(1) bookkeeping each, not
    # one watcher process per event (the old design).
    eng = Engine()
    events = [eng.event() for _ in range(8)]
    before = eng._nprocs
    combined = eng.all_of(events)
    assert eng._nprocs == before          # no processes until completion
    for i, e in enumerate(events):
        e.fire(i)
    eng.run()
    assert combined.fired and combined.value == list(range(8))
    assert eng._nprocs == before          # the fire is a queue entry


def test_all_of_fires_on_the_turn_its_last_input_wakes():
    # The watcher design resumed the last watcher where the last
    # input's firing put it and fired the output on that turn.  A shim
    # process that first yields 0 takes a second turn at the same
    # instant, so a process woken in between runs both its steps
    # first: on CG dynamic chunk 128 (16 CMPs, bench size) that moved
    # slip-G0 from 1 449 387 to 1 432 879 cycles.
    eng = Engine()
    last = eng.event()
    order = []

    def waiter():
        yield eng.all_of([last])
        order.append("all_of")

    def bystander():
        order.append("bystander 1")
        yield 0.0
        order.append("bystander 2")

    def firer():
        yield 1
        last.fire()
        eng.process(bystander())

    eng.process(waiter())
    eng.process(firer())
    eng.run()
    assert order == ["bystander 1", "all_of", "bystander 2"]


# ------------------------------------------------------ lazy done_event

def test_done_event_asked_for_after_the_end_is_already_fired():
    """``done_event`` is made on first access; a caller that comes
    after the process ended gets an event that has already fired with
    the result, and waiting on it resumes at once."""
    eng = Engine()

    def child():
        yield 2
        return "rv"

    proc = eng.process(child())
    eng.run()
    assert not proc.alive
    evt = proc.done_event
    assert evt.fired and evt.value == "rv"
    assert proc.done_event is evt               # made once
    got = []

    def late_joiner():
        got.append(((yield proc.done_event), eng.now))

    eng.process(late_joiner())
    eng.run()
    assert got == [("rv", 2.0)]


def test_kill_and_exit_fire_done_event_only_where_one_exists():
    """A process nobody joins never makes the event (ending it fires
    nothing); one that is being joined fires it exactly once, on kill
    with ``None``."""
    eng = Engine()
    made = []
    real_init = SimEvent.__init__

    def counting_init(self, engine, name=""):
        made.append(name)
        real_init(self, engine, name)

    def forever():
        while True:
            yield 1

    def brief():
        yield 1
        return 7

    joined, unjoined, ends = (eng.process(forever(), name="joined"),
                              eng.process(forever(), name="unjoined"),
                              eng.process(brief(), name="brief"))
    woken = []

    def joiner():
        woken.append(((yield joined.done_event), eng.now))

    def killer():
        yield 3
        joined.kill()
        unjoined.kill()
        joined.kill()                           # second kill: no double fire

    eng.process(joiner())
    eng.process(killer())
    SimEvent.__init__ = counting_init
    try:
        eng.run()
    finally:
        SimEvent.__init__ = real_init
    assert made == ["done:joined"]              # the one somebody asked for
    assert woken == [(None, 3.0)]
    assert not unjoined.alive and not ends.alive
    # Asked for afterwards, they report how each ended.
    assert unjoined.done_event.fired and unjoined.done_event.value is None
    assert ends.done_event.fired and ends.done_event.value == 7


def test_all_of_over_done_events_of_finished_and_running_processes():
    eng = Engine()

    def child(delay, rv):
        yield delay
        return rv

    early = eng.process(child(1, "early"))
    eng.run()                                   # ``early`` has ended
    late = eng.process(child(4, "late"))
    victim = eng.process(child(100, "never"))
    got = []

    def parent():
        got.append(((yield eng.all_of([early.done_event, late.done_event,
                                       victim.done_event])), eng.now))

    def killer():
        yield 6
        victim.kill()

    eng.process(parent())
    eng.process(killer())
    eng.run()
    assert got == [(["early", "late", None], 7.0)]
    # All inputs already over: the combined event is born fired.
    out = eng.all_of([early.done_event, late.done_event])
    assert out.fired and out.value == ["early", "late"]
