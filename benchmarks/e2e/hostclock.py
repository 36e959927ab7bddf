"""Timings in reference-host seconds.

The sandboxes this benchmark runs on change speed by tens of percent
over minutes and between one second and the next (README.md, "Noise"):
neighbours on the same host, nothing the benchmark can stop.  A raw
wall clock then says more about when a run was made than about the
commit it measured.

So the process that times a piece of work also times, on the same core
just before and just after it, a fixed piece of interpreter-bound work
that shares none of the program's code: generator coroutines resumed
off a heap, a dict write and a list update per event -- the simulator's
mix of operations.  A timing is reported as

    raw seconds x events per second around it / REFERENCE_EVENTS_PER_S

that is, as the seconds the work would have taken on a host that keeps
the reference rate.  A change to the program cannot move the
calibration, so it moves the reported seconds exactly as it moves the
raw ones.  Raw seconds and the host's speed are kept in every record.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Tuple

#: Calibration events per second on the 2-core sandbox this benchmark
#: was written on, with quiet neighbours.  Any constant would do: it
#: only fixes what "one reference second" means.
REFERENCE_EVENTS_PER_S = 2.4e6
#: A calibration lasts this share of the work it follows ...
SLICE_SHARE = 0.03
#: ... and at least this long, in seconds.
SLICE_MIN_S = 0.15
CHUNK = 5000


def events_per_second(duration: float) -> float:
    """Run the calibration loop for about ``duration`` seconds."""
    def worker(k):
        n = 0
        while True:
            n = yield (k * 7 + n) % 13 + 1

    queue, state, served = [], {}, [0] * 16
    for k in range(16):
        gen = worker(k)
        heapq.heappush(queue, (next(gen), k, gen))
    events = 0
    t0 = time.perf_counter()
    while True:
        for seq in range(CHUNK):
            now, k, gen = heapq.heappop(queue)
            served[k] += 1
            state[now & 1023] = seq
            heapq.heappush(queue, (now + gen.send(served[k]), k, gen))
        events += CHUNK
        elapsed = time.perf_counter() - t0
        if elapsed >= duration:
            return events / elapsed


class HostClock:
    """Times consecutive segments of work, a calibration between each.

    ``start()`` before the work, ``lap()`` at every boundary inside it
    and at its end; ``totals()`` then gives the raw and the reference
    seconds of everything between ``start()`` and the last ``lap()``,
    calibrations excluded.
    """

    def __init__(self):
        self.laps: List[Tuple[float, float]] = []   # (raw s, events/s)
        self._rate = self._t0 = 0.0

    def start(self) -> None:
        self.laps = []
        self._rate = events_per_second(SLICE_MIN_S)
        self._t0 = time.perf_counter()

    def lap(self, min_gap: float = 0.0) -> None:
        """Close the running segment and calibrate; a boundary that
        comes less than ``min_gap`` seconds into its segment is let by."""
        raw = time.perf_counter() - self._t0
        if raw < min_gap:
            return
        after = events_per_second(max(SLICE_MIN_S, SLICE_SHARE * raw))
        self.laps.append((raw, (self._rate + after) / 2))
        self._rate = after
        self._t0 = time.perf_counter()

    def totals(self) -> Tuple[float, float]:
        raw = sum(r for r, _ in self.laps)
        ref = sum(r * rate for r, rate in self.laps) / REFERENCE_EVENTS_PER_S
        return raw, ref
