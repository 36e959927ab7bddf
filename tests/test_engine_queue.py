"""Property tests for the bucket scheduler.

The bucket queue and its fused drain loop must replay the heapq
reference discipline (``tests/heap_engine.py``) *exactly*: time order
first, scheduling (seq) order within a timestamp -- under mixed
int/float/None yields, same-time collisions, zero-delay cascades,
events fired before and after subscription, timers, ``all_of``, kills
and interrupts landing mid-bucket.  Both engines run the identical
randomized scenario and their full resumption traces are compared,
however the run is driven (``run()``, ``step()``, ``run(until=)``,
``run(max_steps=)``).
"""

import random

import pytest

from repro.sim import Engine, Interrupt

from .heap_engine import HeapEngine

# Delay palette: ints and floats that collide (1 vs 1.0), sub-cycle
# fractions, and zero-delay cascades.
DELAYS = [0, 0, 1, 1.0, 2, 3, 0.25, 0.5, 1.5, 2.5, 7, 0.125]


def _scenario(seed, n_workers=10, n_steps=25):
    """Precompute a deterministic schedule so both engines replay the
    same program (no draws happen during the simulation)."""
    rng = random.Random(seed)
    delays = [[rng.choice(DELAYS) for _ in range(n_steps)]
              for _ in range(n_workers)]
    chaos = sorted(
        (rng.randint(1, n_steps), rng.randrange(n_workers),
         rng.choice(["kill", "interrupt"]))
        for _ in range(n_workers // 2))
    return delays, chaos


def _run(engine_cls, seed):
    eng = engine_cls()
    trace = []
    eng.trace_hook = lambda t, proc: trace.append((t, proc.name))
    delays, chaos = _scenario(seed)
    procs = {}

    def worker(tag, ds):
        for i, d in enumerate(ds):
            try:
                if i % 7 == 3:
                    # Exercise the direct-fire timer path too.
                    yield eng.timeout_event(d, value=i)
                else:
                    yield d
                trace.append(("ran", tag, i, eng.now))
            except Interrupt as exc:
                trace.append(("intr", tag, i, eng.now, exc.cause))

    def agitator():
        prev = 0
        for when, victim, action in chaos:
            if when > prev:
                yield when - prev
                prev = when
            p = procs[victim]
            if not p.alive:
                continue
            if action == "kill":
                p.kill()
            else:
                p.interrupt(("chaos", victim))
            trace.append((action, victim, eng.now))

    for w, ds in enumerate(delays):
        procs[w] = eng.process(worker(w, ds), name=f"w{w}")
    eng.process(agitator(), name="agitator")
    eng.run()
    trace.append(("end", eng.now))
    return trace


@pytest.mark.parametrize("seed", range(8))
def test_bucket_order_matches_heap_reference(seed):
    assert _run(Engine, seed) == _run(HeapEngine, seed)


def test_same_time_collision_int_vs_float_keys():
    """1 and 1.0 must land in the same bucket (dict keys compare equal),
    preserving FIFO across the int/float boundary."""
    order_by_mode = {}
    for engine_cls in (Engine, HeapEngine):
        eng = engine_cls()
        order = []

        def w(tag, d):
            yield d
            order.append(tag)

        for tag, d in [("a", 1), ("b", 1.0), ("c", 1), ("d", 0.5)]:
            eng.process(w(tag, d), name=tag)
        eng.run()
        order_by_mode[engine_cls] = order
    assert order_by_mode[Engine] == order_by_mode[HeapEngine] \
        == ["d", "a", "b", "c"]


def test_schedule_into_draining_bucket_preserves_seq_order():
    """A process that schedules a same-time resumption while its bucket
    drains must run after everything already queued at that time."""
    for engine_cls in (Engine, HeapEngine):
        eng = engine_cls()
        order = []

        def spawner():
            yield 2
            order.append("spawner")
            yield 0          # re-enters t=2 while its bucket is draining
            order.append("spawner-again")

        def other():
            yield 2
            order.append("other")

        eng.process(spawner(), name="s")
        eng.process(other(), name="o")
        eng.run()
        assert order == ["spawner", "other", "spawner-again"], engine_cls


def test_run_until_mid_bucket_resumes_cleanly():
    """Stopping with ``until=`` between two same-time entries must not
    lose the rest of the bucket on the next run() call."""
    for engine_cls in (Engine, HeapEngine):
        eng = engine_cls()
        order = []

        def w(tag):
            yield 5
            order.append((tag, eng.now))

        for tag in "abc":
            eng.process(w(tag), name=tag)
        # 3 steps start the processes at t=0; two more run a and b at t=5.
        eng.run(until=5, max_steps=5)
        assert order == [("a", 5.0), ("b", 5.0)], engine_cls
        eng.run()
        assert order == [("a", 5.0), ("b", 5.0), ("c", 5.0)], engine_cls


# ------------------------------------------------------------ process soup

def _soup_script(seed, n_workers=9, n_ops=18, n_events=6):
    """Everything random is drawn here, so both engines replay one
    program: per worker an op list and whether it handles interrupts;
    the agitator's schedule of kills and interrupts at integer times
    (where most workers also resume: victims die mid-bucket)."""
    rng = random.Random(seed)
    workers = []
    for _ in range(n_workers):
        ops = []
        for _ in range(n_ops):
            r = rng.random()
            if r < 0.45:
                ops.append(("delay", rng.choice(DELAYS)))
            elif r < 0.55:
                ops.append(("none",))
            elif r < 0.70:
                ops.append(("wait", rng.randrange(n_events)))
            elif r < 0.80:
                ops.append(("fire", rng.randrange(n_events)))
            elif r < 0.90:
                ops.append(("timeout", rng.choice(DELAYS)))
            else:
                ops.append(("all_of", rng.sample(range(n_events), 2)))
        workers.append((ops, rng.random() < 0.6))
    chaos = sorted((rng.randint(1, 12), rng.randrange(n_workers),
                    rng.choice(["kill", "interrupt", "interrupt"]))
                   for _ in range(n_workers))
    return workers, chaos, n_events


def _soup(engine_cls, seed, drive):
    """Run the soup; returns the unsorted trace, the final clock and
    what ``drive`` observed along the way."""
    eng = engine_cls()
    trace = []
    eng.trace_hook = lambda t, proc: trace.append((t, proc.name))
    workers, chaos, n_events = _soup_script(seed)
    events = [eng.event(name=f"e{k}") for k in range(n_events)]
    procs = {}

    def worker(tag, ops, handles):
        for i, op in enumerate(ops):
            try:
                if op[0] == "delay":
                    got = yield op[1]
                elif op[0] == "none":
                    got = yield
                elif op[0] == "wait":       # fired before or after we ask
                    got = yield events[op[1]]
                elif op[0] == "fire":
                    if not events[op[1]].fired:
                        events[op[1]].fire((tag, i))
                    continue
                elif op[0] == "timeout":
                    got = yield eng.timeout_event(op[1], value=(tag, i))
                else:
                    got = yield eng.all_of([events[k] for k in op[1]])
                trace.append(("ran", tag, i, eng.now, got))
            except Interrupt as exc:
                if not handles:
                    raise                   # ends on an unhandled Interrupt
                trace.append(("intr", tag, i, eng.now, exc.cause))
        return tag                          # ends on StopIteration

    def agitator():
        prev = 0
        for when, victim, action in chaos:
            if when > prev:
                yield when - prev
                prev = when
            p = procs[victim]
            if not p.alive:
                continue
            if action == "kill":
                p.kill()
            else:
                p.interrupt(("chaos", victim))
            trace.append((action, victim, eng.now))

    def closer():                           # nobody waits forever
        yield 40
        for k, ev in enumerate(events):
            if not ev.fired:
                ev.fire(("closer", k))
            yield 0.5

    for w, (ops, handles) in enumerate(workers):
        procs[w] = eng.process(worker(w, ops, handles), name=f"w{w}")
    eng.process(agitator(), name="agitator")
    eng.process(closer(), name="closer")
    seen = drive(eng)
    fates = [(p.alive, p.result, p.done_event.fired) for p in procs.values()]
    return trace, eng.now, eng.next_time(), fates, seen


def _drive_run(eng):
    return eng.run()


def _drive_step(eng):
    heads = []
    while True:
        heads.append(eng.next_time())
        if not eng.step():
            return heads


def _drive_until(eng):
    clocks = [eng.run(until=u) for u in (0.25, 3, 3, 7.5, 7, 40.25, 45)]
    return clocks + [eng.next_time(), eng.run()]


def _drive_max_steps(eng):
    clocks = []
    while eng.next_time() is not None:
        clocks.append(eng.run(max_steps=7))
        clocks.append(eng.run(until=eng.now + 1.5, max_steps=3))
    return clocks


_DRIVERS = [_drive_run, _drive_step, _drive_until, _drive_max_steps]


@pytest.mark.parametrize("seed", range(6))
def test_process_soup_fused_loop_matches_heap_reference(seed):
    ref = _soup(HeapEngine, seed, _drive_run)
    trace, end, head, fates, _ = ref
    assert head is None
    # the soup exercised what it is for
    kinds = {e[0] for e in trace if isinstance(e[0], str)}
    assert {"ran", "kill", "interrupt"} <= kinds
    assert any(not alive and res is not None for alive, res, _ in fates)
    assert all(fired for alive, _, fired in fates if not alive)
    for drive in _DRIVERS:
        got = _soup(Engine, seed, drive)
        want = ref if drive is _drive_run \
            else _soup(HeapEngine, seed, drive)
        assert got == want, drive.__name__
        # however it is driven, the same resumptions in the same order
        assert got[0] == trace, drive.__name__
        assert got[3] == fates, drive.__name__
    assert _soup(Engine, seed, _drive_step)[1] == end


def test_soup_has_unhandled_interrupt_deaths():
    """At least one seed kills a process by an Interrupt it does not
    catch (it must die quietly, firing its done event with None)."""
    died = 0
    for seed in range(6):
        workers = _soup_script(seed)[0]
        trace, _, _, fates, _ = _soup(Engine, seed, _drive_run)
        for victim in (e[1] for e in trace if e[0] == "interrupt"):
            alive, result, _ = fates[victim]
            if not workers[victim][1] and not alive and result is None:
                died += 1
    assert died


def test_stop_returns_after_the_resumption_that_asked():
    for engine_cls in (Engine, HeapEngine):
        eng = engine_cls()
        order = []

        def w(tag, stop):
            yield 5
            order.append(tag)
            if stop:
                eng.stop()
            yield 1
            order.append(tag + "'")

        for tag in "abc":
            eng.process(w(tag, tag == "b"), name=tag)
        assert eng.run(until=100) == 5.0     # stopped: no clamp to until
        assert order == ["a", "b"], engine_cls
        assert eng.next_time() == 5.0
        assert eng.run() == 6.0              # a fresh run() goes on
        assert order == ["a", "b", "c", "a'", "b'", "c'"], engine_cls
