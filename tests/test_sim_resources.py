"""Unit tests for Server / Semaphore / Mutex contention primitives."""

import random

import pytest

from repro.sim import (Engine, Interrupt, Mutex, Semaphore, Server,
                       SimulationError, serve_legs)


def test_server_serializes_requests():
    eng = Engine()
    srv = Server(eng, "bus")
    finish = []

    def client(tag):
        yield from srv.serve(10)
        finish.append((tag, eng.now))

    for t in "abc":
        eng.process(client(t))
    eng.run()
    assert finish == [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    assert srv.total_requests == 3
    assert srv.total_service == 30.0
    assert srv.total_queue_wait == 30.0  # b waited 10, c waited 20


def test_server_multiple_units_run_in_parallel():
    eng = Engine()
    srv = Server(eng, "mc", units=2)
    finish = []

    def client(tag):
        yield from srv.serve(10)
        finish.append((tag, eng.now))

    for t in "abc":
        eng.process(client(t))
    eng.run()
    assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_server_handoff_preserves_fifo():
    eng = Engine()
    srv = Server(eng, "ni")
    order = []

    def client(tag, arrive):
        yield arrive
        yield from srv.serve(5)
        order.append(tag)

    eng.process(client("x", 0))
    eng.process(client("y", 1))
    eng.process(client("z", 2))
    eng.run()
    assert order == ["x", "y", "z"]


def _trip_workload(multi_leg, seed):
    """Clients walk random trips over three contended servers and a
    wire, some interrupted while queued or in service.  ``multi_leg``
    runs a trip as one ``serve_legs`` generator, otherwise as one
    ``serve()`` per server -- the same requests either way."""
    eng = Engine()
    rng = random.Random(seed)
    servers = [Server(eng, f"s{i}", units=1 + (i == 2)) for i in range(3)]
    trace, procs = [], []
    eng.trace_hook = lambda t, proc: trace.append((t, proc.name))

    def client(tag, trips):
        for legs, gap in trips:
            try:
                yield gap
                if multi_leg:
                    yield from serve_legs(legs)
                else:
                    for server, duration in legs:
                        if server is None:
                            yield duration
                        else:
                            yield from server.serve(duration)
                trace.append(("done", tag, eng.now))
            except Interrupt:
                trace.append(("intr", tag, eng.now))

    def agitator(hits):
        for gap, victim in hits:
            yield gap
            procs[victim].interrupt()

    for c in range(6):
        trips = [([rng.choice([(rng.choice(servers), float(rng.randrange(8))),
                               (None, float(rng.randrange(1, 5)))])
                   for _ in range(rng.randrange(1, 5))],
                  float(rng.randrange(6)))
                 for _ in range(8)]
        procs.append(eng.process(client(c, trips), name=f"c{c}"))
    eng.process(agitator([(float(rng.randrange(1, 9)), rng.randrange(6))
                          for _ in range(10)]), name="agitator")
    eng.run()
    stats = [(s.total_requests, s.total_service, s.total_queue_wait,
              s.max_queue_len, s._busy, s.queue_length) for s in servers]
    return trace, eng.now, eng._nevents, stats


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_multi_leg_trip_equals_one_serve_per_server(seed):
    """One generator for a whole trip changes nothing observable: the
    same resumptions in the same order, the same gate events, the same
    server statistics, units returned after every interrupt."""
    want = _trip_workload(False, seed)
    assert _trip_workload(True, seed) == want
    trace, _, gates, stats = want
    assert gates and any(e[0] == "intr" for e in trace)
    assert all(busy == 0 and queued == 0 for *_, busy, queued in stats)


def test_server_zero_units_rejected():
    with pytest.raises(SimulationError):
        Server(Engine(), "bad", units=0)


def test_server_utilization():
    eng = Engine()
    srv = Server(eng, "u")

    def client():
        yield from srv.serve(4)
        yield 6  # idle tail

    eng.run_process(client())
    assert srv.utilization() == pytest.approx(0.4)


def test_semaphore_blocks_until_release():
    eng = Engine()
    sem = Semaphore(eng, "tok", initial=0)
    log = []

    def consumer():
        yield from sem.acquire()
        log.append(("got", eng.now))

    def producer():
        yield 8
        sem.release()

    eng.process(consumer())
    eng.process(producer())
    eng.run()
    assert log == [("got", 8.0)]
    assert sem.count == 0
    assert sem.total_wait_time == 8.0


def test_semaphore_initial_tokens_pass_through():
    eng = Engine()
    sem = Semaphore(eng, "tok", initial=2)

    def consumer():
        yield from sem.acquire()
        yield from sem.acquire()

    eng.run_process(consumer())
    assert eng.now == 0.0
    assert sem.count == 0


def test_semaphore_fifo_wakeup():
    eng = Engine()
    sem = Semaphore(eng, "s", initial=0)
    order = []

    def waiter(tag, arrive):
        yield arrive
        yield from sem.acquire()
        order.append(tag)

    def releaser():
        yield 10
        sem.release(3)

    for i, t in enumerate("abc"):
        eng.process(waiter(t, i))
    eng.process(releaser())
    eng.run()
    assert order == ["a", "b", "c"]


def test_semaphore_try_acquire():
    eng = Engine()
    sem = Semaphore(eng, "s", initial=1)
    assert sem.try_acquire() is True
    assert sem.try_acquire() is False


def test_semaphore_op_latency_charged():
    eng = Engine()
    sem = Semaphore(eng, "s", initial=1, op_latency=3.0)

    def c():
        yield from sem.acquire()

    eng.run_process(c())
    assert eng.now == 3.0


def test_semaphore_negative_initial_rejected():
    with pytest.raises(SimulationError):
        Semaphore(Engine(), "s", initial=-1)


def test_mutex_mutual_exclusion():
    eng = Engine()
    m = Mutex(eng, "m")
    active = {"n": 0, "max": 0}

    def critical(tag):
        yield from m.acquire()
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        yield 5
        active["n"] -= 1
        m.release()

    for t in range(4):
        eng.process(critical(t))
    eng.run()
    assert active["max"] == 1
    assert eng.now == 20.0


def test_mutex_double_release_rejected():
    eng = Engine()
    m = Mutex(eng, "m")
    with pytest.raises(SimulationError):
        m.release()
