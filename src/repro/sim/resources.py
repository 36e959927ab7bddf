"""Contention primitives built on the event engine.

Three shapes of contention appear in the simulated machine:

* :class:`Server` -- a FIFO-queued service center (a bus, a network port,
  a directory/memory controller).  A request occupies the server for a
  fixed service time; queueing delay is the contention the paper models
  "at the network inputs and outputs, and at the memory controller".
  :func:`serve_legs` walks one message through several servers and wire
  delays in a single generator.
* :class:`Semaphore` -- counting semaphore; the substrate for the
  slipstream token semaphore and the syscall semaphore.
* :class:`Mutex` -- binary convenience wrapper.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Engine, SimEvent, SimulationError

__all__ = ["Server", "serve_legs", "Semaphore", "Mutex"]


class Server:
    """A FIFO service center with a fixed number of identical units.

    ``yield from server.serve(duration)`` models "occupy one unit for
    ``duration`` time, queueing behind earlier arrivals if all units are
    busy".  Utilization and queueing statistics are tracked so harnesses
    can report contention.
    """

    __slots__ = ("engine", "name", "units", "_busy", "_waiters",
                 "_gate_name", "total_requests", "total_service",
                 "total_queue_wait", "max_queue_len", "faults")

    def __init__(self, engine: Engine, name: str, units: int = 1):
        if units < 1:
            raise SimulationError(f"server {name!r} needs >=1 unit")
        self.engine = engine
        self.name = name
        self.units = units
        self._busy = 0
        self._waiters: Deque[SimEvent] = deque()
        self._gate_name = f"{name}.q"
        self.total_requests = 0
        self.total_service = 0.0
        self.total_queue_wait = 0.0
        self.max_queue_len = 0
        #: FaultPlan (armed on network-interface servers only): adds
        #: bounded, protocol-legal jitter to scheduled serve() calls.
        #: None = injection off; the hook is one attribute test.
        self.faults = None

    def serve(self, duration: float):
        """Generator: acquire a unit, hold it for ``duration``, release."""
        return serve_legs(((self, duration),))

    def _release(self) -> None:
        if self._waiters:
            # Hand the unit straight to the next waiter; _busy stays put.
            self._waiters.popleft().fire()
        else:
            self._busy -= 1

    @property
    def queue_length(self) -> int:
        """Requests currently waiting for a unit."""
        return len(self._waiters)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Busy fraction over elapsed time."""
        t = elapsed if elapsed is not None else self.engine.now
        if t <= 0:
            return 0.0
        return self.total_service / (t * self.units)


def serve_legs(legs):
    """Generator: take one message through ``legs`` in order.

    A leg is ``(server, duration)`` -- occupy one unit of ``server``
    for ``duration``, queueing FIFO behind earlier arrivals -- or
    ``(None, delay)`` for time spent on a wire nobody contends for.
    One generator serves the whole trip; :meth:`Server.serve` is the
    one-leg case.  Taking and handing on a unit are open-coded here
    (a trip is most of what the engine resumes); ``Server._release``
    is the same hand-over for the interrupted-while-queued case.
    """
    for server, duration in legs:
        if server is None:
            yield duration
            continue
        if server.faults is not None:
            extra = server.faults.fire("net_jitter", server.name)
            if extra is not None:
                # Injected network jitter: the message is merely slower,
                # never lost or reordered against the FIFO queue, so the
                # coherence protocol's correctness is untouched.
                duration += extra
        server.total_requests += 1
        waiters = server._waiters
        if server._busy >= server.units:
            engine = server.engine
            start = engine.now
            gate = engine.event(server._gate_name)
            waiters.append(gate)
            if len(waiters) > server.max_queue_len:
                server.max_queue_len = len(waiters)
            try:
                yield gate
            except BaseException:
                # Interrupted while queued: withdraw the request -- or, if
                # the unit was already handed to us, pass it on.
                try:
                    waiters.remove(gate)
                except ValueError:
                    server._release()
                raise
            server.total_queue_wait += engine.now - start
        else:
            server._busy += 1
        try:
            if duration > 0:
                yield duration
            server.total_service += duration
        finally:
            if waiters:
                # Hand the unit straight to the next waiter.
                waiters.popleft().fire()
            else:
                server._busy -= 1


class Semaphore:
    """Counting semaphore with FIFO waiters.

    This is the timing-level model of the "shared register between the
    two processors in a CMP" that implements slipstream token exchange:
    operations take zero simulated time by default (a shared hardware
    register), but a per-op latency can be configured.
    """

    __slots__ = ("engine", "name", "count", "_waiters", "op_latency",
                 "total_acquires", "total_releases", "total_wait_time")

    def __init__(self, engine: Engine, name: str, initial: int = 0,
                 op_latency: float = 0.0):
        if initial < 0:
            raise SimulationError("semaphore initial count must be >= 0")
        self.engine = engine
        self.name = name
        self.count = initial
        self._waiters: Deque[SimEvent] = deque()
        self.op_latency = op_latency
        self.total_acquires = 0
        self.total_releases = 0
        self.total_wait_time = 0.0

    def acquire(self):
        """Generator: wait until a unit is available, then take it."""
        self.total_acquires += 1
        start = self.engine.now
        if self.op_latency > 0:
            yield self.op_latency
        while self.count <= 0:
            gate = self.engine.event(name=f"{self.name}.sem")
            self._waiters.append(gate)
            try:
                yield gate
            except BaseException:
                try:
                    self._waiters.remove(gate)
                except ValueError:
                    pass
                raise
        self.count -= 1
        self.total_wait_time += self.engine.now - start

    def try_acquire(self) -> bool:
        """Non-blocking acquire (no simulated latency)."""
        if self.count > 0:
            self.count -= 1
            self.total_acquires += 1
            return True
        return False

    def release(self, n: int = 1) -> None:
        """Add ``n`` units and wake up to ``n`` waiters (zero time)."""
        if n < 1:
            raise SimulationError("release count must be >= 1")
        self.count += n
        self.total_releases += n
        for _ in range(min(n, len(self._waiters))):
            self._waiters.popleft().fire()

    @property
    def waiting(self) -> int:
        """Number of blocked acquirers."""
        return len(self._waiters)


class Mutex(Semaphore):
    """Binary semaphore: one holder at a time."""

    __slots__ = ()

    def __init__(self, engine: Engine, name: str, op_latency: float = 0.0):
        super().__init__(engine, name, initial=1, op_latency=op_latency)

    def release(self, n: int = 1) -> None:  # noqa: D102 - inherited docs
        """Release the mutex (error if it was free) and wake the first
        waiter: ``Semaphore.release(1)``, on one level."""
        if n != 1:
            raise SimulationError("mutex releases exactly one unit")
        if self.count >= 1:
            raise SimulationError(f"mutex {self.name!r} released while free")
        self.count = 1
        self.total_releases += 1
        if self._waiters:
            self._waiters.popleft().fire()
