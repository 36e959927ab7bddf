"""Functional (untimed, single-thread) reference executor.

Runs a compiled image with a trivial implementation of the runtime
surface: one thread executes everything, worksharing hands it the whole
iteration space, synchronization is a no-op.  This is the compiler's
semantic oracle -- integration tests check that the full simulated
machine (any mode, any schedule) computes exactly what this executor
computes -- and a convenient way to run SlipC programs for their output.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.bytecode import CompiledProgram
from ..obs.probe import NULL_PROBE, Probe
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from .interpreter import VM

__all__ = ["GlobalStore", "FunctionalRunner"]


class GlobalStore:
    """The program's shared data: one numpy array per global.

    Loads go through :attr:`views`, one buffer view per array over the
    same storage: indexing a ``memoryview`` gives the Python ``float``
    or ``int`` that ``ndarray.item`` gives, with the same wrap-around
    of a negative index and the same ``IndexError`` beyond the end, at
    a third of the cost.  Stores go to the arrays (NumPy truncates a
    ``double`` stored into an ``int`` global; a typed view would
    raise).
    """

    def __init__(self, program: CompiledProgram):
        #: The declarations, not the program: a store is pickled into
        #: every journal, memo and spool entry of its run.
        self.globals = program.globals
        self.arrays: List[np.ndarray] = []
        for g in self.globals:
            dtype = np.int64 if g.typ == "int" else np.float64
            arr = np.zeros(g.size, dtype=dtype)
            if g.init is not None:
                arr[0] = g.init
            self.arrays.append(arr)

    @cached_property
    def views(self) -> List[memoryview]:
        """The arrays as buffer views, made on first use: the one way a
        shared value is read (the hit closures and the shell hold this
        list and index it as ``views[gidx][flat]``)."""
        return [memoryview(a) for a in self.arrays]

    def __getstate__(self):
        # A RunResult's store crosses the pool and the spool as a
        # pickle, and a memoryview cannot be pickled: the views stay
        # behind and the next read makes them again.
        state = self.__dict__.copy()
        state.pop("views", None)
        return state

    def read(self, gidx: int, flat: int):
        """Read one element of a shared global."""
        return self.views[gidx][flat]

    def write(self, gidx: int, flat: int, value) -> None:
        """Write one element of a shared global."""
        self.arrays[gidx][flat] = value

    def _named(self, name: str):
        for g in self.globals:
            if g.name == name:
                return g
        raise KeyError(name)

    def array(self, name: str) -> np.ndarray:
        """The named global as a shaped NumPy view."""
        g = self._named(name)
        return self.arrays[g.index].reshape(g.dims or (1,))

    def value(self, name: str):
        """Scalar value (or array view) of the named global."""
        g = self._named(name)
        if g.dims:
            return self.array(name)
        return self.read(g.index, 0)


class FunctionalRunner:
    """Single-threaded reference execution of a compiled image."""

    def __init__(self, program: CompiledProgram,
                 inputs: Optional[List[float]] = None,
                 probe: Probe = NULL_PROBE):
        self.program = program
        self.store = GlobalStore(program)
        self.output: List[Tuple] = []
        self.inputs = list(inputs or [])
        self._input_pos = 0
        self._sched: Dict[int, List] = {}
        self._instructions = 0
        self.probe = probe

    def run(self, max_events: int = 50_000_000):
        """Execute main() to completion; returns self for chaining."""
        vm = VM(self.program, self.program.main_index)
        if self.probe.prof is not None:
            self.probe.prof.bind_vm(vm)
        self._run_vm(vm, max_events)
        self.probe.count("func.events", self._instructions)
        return self

    def _run_vm(self, vm: VM, max_events: int) -> None:
        for _ in range(max_events):
            ev = vm.run()
            self._instructions += 1
            if isinstance(ev, MemRead):
                vm.push(self.store.read(ev.gidx, ev.flat))
            elif isinstance(ev, MemWrite):
                self.store.write(ev.gidx, ev.flat, ev.value)
            elif isinstance(ev, IoOut):
                self.output.append(ev.values)
            elif isinstance(ev, RtCall):
                self._rt(vm, ev, max_events)
            elif isinstance(ev, TimeSlice):
                pass
            elif isinstance(ev, Done):
                return
        raise RuntimeError("functional run exceeded max_events")

    # ------------------------------------------------------------- runtime

    def _rt(self, vm: VM, ev: RtCall, max_events: int) -> None:
        name = ev.name
        self.probe.count("rt." + name)
        if name == "parallel_begin":
            pass                        # team of one: master does the work
        elif name == "parallel_end":
            pass
        elif name == "sched_init":
            site = ev.static[0]
            lo, hi, step = ev.args
            n = max(0, -((lo - hi) // step))
            self._sched[site] = [False, n]   # [handed_out, total]
        elif name == "sched_next":
            site = ev.static[0]
            state = self._sched[site]
            if state[0] or state[1] == 0:
                vm.push(None)
            else:
                state[0] = True
                vm.push((0, state[1]))       # whole range, one chunk
        elif name == "sections_init":
            site, n = ev.static
            self._sched[site] = [0, n]
        elif name == "sections_next":
            site = ev.static[0]
            state = self._sched[site]
            if state[0] >= state[1]:
                vm.push(None)
            else:
                vm.push(state[0])
                state[0] += 1
        elif name == "reduce":
            op, gidx = ev.static
            (value,) = ev.args
            cur = self.store.read(gidx, 0)
            self.store.write(gidx, 0, _combine(op, cur, value))
        elif name in ("barrier", "flush", "crit_exit", "atomic_enter",
                      "atomic_exit", "slipstream_set"):
            pass
        elif name == "loop_is_last":
            site = ev.static[0]
            state = self._sched.get(site)
            vm.push(1 if state and state[0] and state[1] > 0 else 0)
        elif name == "single_begin":
            vm.push(1)
        elif name == "crit_enter":
            vm.push(1)
        elif name == "is_master":
            vm.push(1)
        elif name == "tid":
            vm.push(0)
        elif name == "nthreads":
            vm.push(1)
        elif name == "wtime":
            vm.push(float(self._instructions))
        elif name == "astream_probe":
            vm.push(0)                       # reference runner is an R-stream
        elif name == "io_read":
            if self._input_pos >= len(self.inputs):
                raise RuntimeError("read_input(): input exhausted")
            v = self.inputs[self._input_pos]
            self._input_pos += 1
            vm.push(v)
        else:
            raise RuntimeError(f"functional runner: unknown rt {name!r}")


def _combine(op: str, a, b):
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    if op == "max":
        return a if a > b else b
    if op == "min":
        return a if a < b else b
    raise ValueError(op)
