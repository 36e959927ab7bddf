"""The reference queue discipline the bucket scheduler must replay.

``HeapEngine`` is ``repro.sim.Engine`` with its queue swapped for a
``heapq`` of ``(time, seq, proc, value)`` tuples -- "time, then
scheduling order", spelled out -- and every resumption made through
the unfused ``Process._step`` / ``_dispatch``, which remain the
definition of what a resumption does.  The property tests compare the
two; machine-level ones put it under a ``Machine`` by monkeypatching
the ``Engine`` name ``repro.runtime.machine`` constructs.
"""

import heapq
from math import inf

from repro.sim import Engine
from repro.sim.engine import _CANCELLED


class HeapEngine(Engine):

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = []             # (time, seq, proc, value)
        self._seq = 0

    def _schedule(self, proc, delay, value):
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, proc, value))

    def next_time(self):
        q = self._queue
        return q[0][0] if q else None

    def _cancel(self, proc):
        """Cancel in place -- a dead entry at the same ``(time, seq)``,
        not a removal: ``next_time()`` counts dead entries."""
        q = self._queue
        for i, (t, seq, p, _value) in enumerate(q):
            if p is proc:
                q[i] = (t, seq) + _CANCELLED

    def _drain(self, until, max_steps):
        """Same contract as ``Engine._drain``, nothing fused."""
        queue = self._queue
        horizon = inf if until is None else until
        budget = -1 if max_steps is None else max_steps
        while budget != 0 and not self._stopped:
            if not queue or queue[0][0] > horizon:
                return True
            t, _seq, proc, value = heapq.heappop(queue)
            if not proc.alive:
                continue
            budget -= 1
            self.now = t
            if self.trace_hook is not None:
                self.trace_hook(t, proc)
            proc._step(value)
        return False
