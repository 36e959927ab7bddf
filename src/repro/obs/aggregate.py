"""Aggregating collectors: counters, exclusive time clocks, classes.

These are the historical statistics primitives of the simulator
(previously ``repro.sim.stats`` and ``repro.mem.classify``), now owned
by the observability layer.  The paper's Figures 2 and 4 break
execution time into busy cycles, memory stalls, lock time, barrier
time, scheduling time, and job-wait time; :class:`TimeBreakdown`
implements that accounting as a stack of exclusive categories: a
processor is always "in" exactly one category, and nested activities
(e.g. a memory stall while spinning on a lock) attribute their time to
the innermost category.  :class:`ClassStats` implements the Figure 3/5
shared-data request taxonomy (Timely/Late/Only per fetching stream).
"""

from __future__ import annotations

from typing import Dict, Iterable, ItemsView, List, Tuple

__all__ = ["Counter", "TimeBreakdown", "ClassStats", "CATEGORIES",
           "FETCHERS", "KINDS", "OUTCOMES", "line_outcome"]

#: Display order for the paper's execution-time categories.
CATEGORIES: Tuple[str, ...] = (
    "busy", "memory", "lock", "barrier", "scheduling", "jobwait",
    "a_wait", "io", "idle",
)

FETCHERS = ("A", "R")
KINDS = ("read", "rdex")
OUTCOMES = ("timely", "late", "only")


class Counter:
    """A named bag of integer counters."""

    __slots__ = ("_c",)

    def __init__(self):
        self._c: Dict[str, int] = {}

    def add(self, key: str, n: int = 1) -> None:
        """Increment a named counter."""
        self._c[key] = self._c.get(key, 0) + n

    def get(self, key: str) -> int:
        """Read a named counter (0 if absent)."""
        return self._c.get(key, 0)

    def items(self) -> ItemsView[str, int]:
        """Live (key, value) view over all counters."""
        return self._c.items()

    def as_dict(self) -> Dict[str, int]:
        """Snapshot all counters."""
        return dict(self._c)

    def merge(self, other: "Counter") -> None:
        """Accumulate another counter bag."""
        for k, v in other.items():
            self.add(k, v)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._c.items()))
        return f"Counter({body})"


class TimeBreakdown:
    """Exclusive time accounting with a category stack.

    Usage from a processor coroutine::

        bd.push("barrier", now)      # entering barrier code
        ...                          # time accrues to "barrier"
        bd.push("memory", now)       # a miss inside the barrier spin
        ...                          # time accrues to "memory"
        bd.pop(now)                  # back to "barrier"
        bd.pop(now)                  # back to whatever was below

    The base category (when the stack is empty) is ``busy``.  After
    :meth:`close`, further ``push``/``switch``/``pop`` calls raise --
    accounting on a finished clock would silently corrupt the totals.
    """

    __slots__ = ("_times", "_stack", "_last", "_closed")

    def __init__(self, start: float = 0.0):
        self._times: Dict[str, float] = {}
        #: Open categories, innermost last.  Never rebound: the
        #: track's ``Probe.spans`` is this very list.
        self._stack: List[str] = []
        self._last = start
        self._closed = False

    # -- internals -----------------------------------------------------------

    def _settle(self, now: float) -> None:
        cat = self._stack[-1] if self._stack else "busy"
        dt = now - self._last
        if dt < 0:
            raise ValueError(f"time went backwards: {self._last} -> {now}")
        if dt:
            self._times[cat] = self._times.get(cat, 0.0) + dt
        self._last = now

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise ValueError(f"{op} on closed TimeBreakdown")

    # -- public API ------------------------------------------------------------

    def push(self, category: str, now: float) -> None:
        """Enter a category (settling elapsed time first)."""
        if self._closed:
            raise ValueError("push on closed TimeBreakdown")
        self._settle(now)
        self._stack.append(category)

    def pop(self, now: float) -> str:
        """Leave the current category; returns its name."""
        if self._closed:
            raise ValueError("pop on closed TimeBreakdown")
        self._settle(now)
        if not self._stack:
            raise ValueError("pop on empty category stack")
        return self._stack.pop()

    def switch(self, category: str, now: float) -> None:
        """Replace the top of the stack (settling time first)."""
        self._check_open("switch")
        self._settle(now)
        if self._stack:
            self._stack[-1] = category
        else:
            self._stack.append(category)

    def close(self, now: float) -> None:
        """Finalize accounting at ``now`` (end of simulation)."""
        self._check_open("close")
        self._settle(now)
        self._stack.clear()     # in place: ``Probe.spans`` is this list
        self._closed = True

    def reattribute(self, src: str, dst: str, amount: float) -> None:
        """Move ``amount`` time from one category to another.

        Post-hoc correction hook (e.g. cache-hit stall cycles that were
        lumped as ``busy`` by a synchronous fast path); allowed after
        :meth:`close` because it changes attribution, not the clock.
        """
        if amount == 0:
            return
        if amount < 0 or amount > self._times.get(src, 0.0):
            raise ValueError(
                f"cannot move {amount} from {src!r} "
                f"(has {self._times.get(src, 0.0)})")
        self._times[src] -= amount
        self._times[dst] = self._times.get(dst, 0.0) + amount

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called?"""
        return self._closed

    @property
    def current(self) -> str:
        """Innermost active category ('busy' at depth 0)."""
        return self._stack[-1] if self._stack else "busy"

    @property
    def depth(self) -> int:
        """Category-stack depth."""
        return len(self._stack)

    @property
    def stack(self) -> Tuple[str, ...]:
        """Snapshot of the open category stack, outermost first."""
        return tuple(self._stack)

    def total(self) -> float:
        """Sum of all attributed time."""
        return sum(self._times.values())

    def get(self, category: str) -> float:
        """Time attributed to one category."""
        return self._times.get(category, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of category -> time."""
        return dict(self._times)

    def fractions(self) -> Dict[str, float]:
        """Category shares of the total (empty if no time)."""
        tot = self.total()
        if tot <= 0:
            return {}
        return {k: v / tot for k, v in self._times.items()}

    @staticmethod
    def aggregate(parts: Iterable["TimeBreakdown"]) -> Dict[str, float]:
        """Sum categories across processors (for machine-wide breakdowns)."""
        out: Dict[str, float] = {}
        for p in parts:
            for k, v in p.as_dict().items():
                out[k] = out.get(k, 0.0) + v
        return out


def line_outcome(line) -> str:
    """Figure 3/5 outcome of a finished fill (any CacheLine-shaped
    object with ``merged_late`` / ``sibling_hit`` attributes)."""
    if line.merged_late:
        return "late"
    if line.sibling_hit:
        return "timely"
    return "only"


class ClassStats:
    """Counts of classified fills, keyed by (fetcher, kind, outcome).

    Every L2 fill of a shared line is eventually assigned exactly one
    label: ``A-Timely`` (fetched by the A-stream, referenced by the
    R-stream after the fill completed), ``A-Late`` (R referenced the
    line while A's miss was in flight -- MSHR merge), ``A-Only``
    (evicted or invalidated without an R reference: the harmful,
    traffic-increasing category) -- and symmetrically ``R-*`` for fills
    initiated by the R-stream.  Reads and read-exclusives are
    classified separately, as in the paper.
    """

    __slots__ = ("_c",)

    def __init__(self):
        self._c: Dict[Tuple[str, str, str], int] = {}

    def record(self, fetcher: str, kind: str, outcome: str, n: int = 1) -> None:
        """Count n fills of (fetcher, kind, outcome)."""
        if fetcher not in FETCHERS or kind not in KINDS or outcome not in OUTCOMES:
            raise ValueError(f"bad classification {(fetcher, kind, outcome)}")
        key = (fetcher, kind, outcome)
        self._c[key] = self._c.get(key, 0) + n

    def classify_line(self, line) -> None:
        """Finalize a CacheLine's fill at eviction/invalidation/teardown."""
        if line.fetcher is None:
            return
        self.record(line.fetcher, line.fill_kind, line_outcome(line))

    # -- queries ---------------------------------------------------------------

    def get(self, fetcher: str, kind: str, outcome: str) -> int:
        """Count for one (fetcher, kind, outcome) cell."""
        return self._c.get((fetcher, kind, outcome), 0)

    def items(self) -> ItemsView[Tuple[str, str, str], int]:
        """Live ((fetcher, kind, outcome), count) view."""
        return self._c.items()

    def total(self, kind: str) -> int:
        """All fills of one kind (read or rdex)."""
        return sum(v for (f, k, o), v in self._c.items() if k == kind)

    def fraction(self, fetcher: str, kind: str, outcome: str) -> float:
        """Share of all ``kind`` fills, e.g. the paper's '26% A-timely
        read requests'."""
        tot = self.total(kind)
        return self.get(fetcher, kind, outcome) / tot if tot else 0.0

    def breakdown(self, kind: str) -> Dict[str, float]:
        """{'A-Timely': 0.26, ...} over one request kind."""
        tot = self.total(kind)
        out = {}
        for f in FETCHERS:
            for o in OUTCOMES:
                label = f"{f}-{o.capitalize()}"
                out[label] = (self.get(f, kind, o) / tot) if tot else 0.0
        return out

    def coverage(self, kind: str) -> float:
        """Fraction of fills provided by the A-stream and used by R
        (timely + late) -- the paper's 'read exclusive coverage'."""
        tot = self.total(kind)
        if not tot:
            return 0.0
        return (self.get("A", kind, "timely") + self.get("A", kind, "late")) / tot

    def merge(self, other: "ClassStats") -> None:
        """Accumulate another collector's counts."""
        for (f, k, o), v in other.items():
            self.record(f, k, o, v)

    def as_dict(self) -> Dict[str, int]:
        """Flat {'A-read-timely': n, ...} view."""
        return {f"{f}-{k}-{o}": v for (f, k, o), v in sorted(self._c.items())}
