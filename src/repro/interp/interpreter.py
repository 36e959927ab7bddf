"""The bytecode VM.

Deliberately *not* built on Python generators: the whole machine state
(call stack, operand stacks, locals, program counters) is explicit so it
can be snapshotted at barriers and restored by slipstream recovery --
the same reason the paper's recovery can re-fork an A-stream from its
R-stream's architectural state.

``run()`` executes until the next externally-visible event (shared
memory op, runtime call, I/O, or completion) and returns it; the busy
cycles executed since the previous event accumulate in ``pending_cycles``
and are drained by the host: ``take_cycles()``, or -- the shell's event
loop -- reading and zeroing the attribute.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

import numpy as np

from ..compiler.bytecode import (BINOP_COST, ICALL_COST, OP_COST, Code,
                                 CompiledProgram)
from ..hotpath import hotpath_enabled
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice

__all__ = ["Frame", "VM", "VMError", "MISS"]

#: Sentinel a fast_read callback returns to force the slow (timed) path.
MISS = _MISS = object()

#: Sentinel a generated function (``interp.compile``) returns when it
#: is entered at a pc it has no resume stub for; the VM drops back to
#: the interpreter loop for the rest of this VM's life.
_DEOPT = object()

# Resolved lazily: interp.compile imports this module, so the binding
# cannot happen at import time.
_compiled_functions = None


def _compiled_fns(program):
    global _compiled_functions
    if _compiled_functions is None:
        from .compile import compiled_functions
        _compiled_functions = compiled_functions
    return _compiled_functions(program)


class VMError(RuntimeError):
    """Raised on VM faults (bad opcode, wild pc, integer traps)."""
    pass


def _as_bool(v) -> bool:
    return bool(v)


# Binary operators as standalone functions, so the translator can embed
# the resolved function directly in an instruction and the hot loop
# skips the per-execution operator dispatch entirely.

def _op_add(a, b):
    return a + b


def _op_sub(a, b):
    return a - b


def _op_mul(a, b):
    return a * b


def _op_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:                               # integer /0 traps
            raise VMError("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q  # C truncation
    if b == 0:
        # IEEE-754 / C semantics: float division by zero yields an
        # infinity (or NaN for 0/0), it does not trap.  A-streams
        # routinely divide by stale zeros; real hardware shrugs.
        if a == 0:
            return math.nan
        return math.inf if a > 0 else -math.inf   # b is +0.0 here
    return a / b


def _op_mod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise VMError("integer modulo by zero")
        r = abs(a) % abs(b)
        return r if a >= 0 else -r                # C remainder
    return math.fmod(a, b) if b != 0 else math.nan


def _op_lt(a, b):
    return 1 if a < b else 0


def _op_le(a, b):
    return 1 if a <= b else 0


def _op_gt(a, b):
    return 1 if a > b else 0


def _op_ge(a, b):
    return 1 if a >= b else 0


def _op_eq(a, b):
    return 1 if a == b else 0


def _op_ne(a, b):
    return 1 if a != b else 0


_BINOP_FN = {
    "+": _op_add, "-": _op_sub, "*": _op_mul, "/": _op_div, "%": _op_mod,
    "<": _op_lt, "<=": _op_le, ">": _op_gt, ">=": _op_ge,
    "==": _op_eq, "!=": _op_ne,
}


def _binop(op: str, a, b):
    fn = _BINOP_FN.get(op)
    if fn is None:
        raise VMError(f"unknown binop {op!r}")
    return fn(a, b)


def _sqrt(a):
    return math.sqrt(a) if a >= 0 else math.nan      # C: sqrt(-x) = NaN


def _exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf                              # C: exp overflow = inf


def _log(a):
    if a > 0:
        return math.log(a)
    return -math.inf if a == 0 else math.nan         # C semantics


def _pow(a, b):
    try:
        return math.pow(a, b)
    except (OverflowError, ValueError):
        return math.nan


_INTRINSICS = {
    "sqrt": _sqrt,
    "fabs": lambda a: abs(a),
    "exp": _exp,
    "log": _log,
    "pow": _pow,
    "min": lambda a, b: a if a < b else b,
    "max": lambda a, b: a if a > b else b,
    "mod": _op_mod,
    "floor": lambda a: math.floor(a),
}


# ------------------------------------------------------- dispatch table
#
# The VM's inner loop dispatches on small integers over a pre-translated
# instruction stream instead of comparing opcode strings and looking up
# cost tables on every executed instruction.  Translation runs once per
# Code object (cached on the object), folds each instruction's full
# static cycle cost into the tuple -- OP_COST plus the per-operator
# BINOP_COST / per-intrinsic ICALL_COST -- and pre-resolves binop and
# intrinsic callables, so the accounted cycles are identical to the
# string-dispatch interpreter by construction.

(_N_LLOAD, _N_LSTORE, _N_CONST, _N_BINOP, _N_JUMP, _N_JFALSE,
 _N_GELOAD, _N_GESTORE, _N_GLOAD, _N_GSTORE, _N_ALOAD, _N_ASTORE,
 _N_NEG, _N_NOT, _N_DUP, _N_POP, _N_JNONE, _N_UNPACK2,
 _N_ICALL1, _N_ICALL2, _N_CALL, _N_RET, _N_RT, _N_PRINT) = range(24)

# Superinstructions (optimizer fusion pass; see compiler.bytecode).
(_N_LL2B, _N_CONSTB, _N_LLST, _N_CMPJF,
 _N_LCB, _N_LB, _N_LCBS, _N_LCJF, _N_LLBS, _N_LLJF,
 _N_CS, _N_CBLB, _N_LBCB, _N_LCBLB, _N_LCBSJ,
 _N_IX, _N_IXGE, _N_CBLBGE) = range(24, 42)

_SIMPLE_NUM = {
    "lload": _N_LLOAD, "lstore": _N_LSTORE, "const": _N_CONST,
    "jump": _N_JUMP, "jfalse": _N_JFALSE,
    "geload": _N_GELOAD, "gestore": _N_GESTORE,
    "gload": _N_GLOAD, "gstore": _N_GSTORE,
    "aload": _N_ALOAD, "astore": _N_ASTORE,
    "dup": _N_DUP, "pop": _N_POP, "jnone": _N_JNONE,
    "unpack2": _N_UNPACK2, "call": _N_CALL, "ret": _N_RET,
    "rt": _N_RT, "print": _N_PRINT,
}


def _translate(code: Code) -> List[Tuple]:
    """Build (and cache on ``code``) the fast instruction stream:
    one ``(opnum, arg, cost)`` tuple per bytecode instruction."""
    fast: List[Tuple] = []
    for ins in code.instrs:
        op = ins[0]
        if op == "binop":
            o = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_BINOP, fn, OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "icall":
            name, nargs = ins[1]
            fast.append((_N_ICALL1 if nargs == 1 else _N_ICALL2,
                         _INTRINSICS[name],
                         OP_COST[op] + ICALL_COST.get(name, 1)))
        elif op == "unop":
            fast.append((_N_NEG if ins[1] == "-" else _N_NOT, None,
                         OP_COST[op]))
        elif op == "ll2b":
            a, b, o = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LL2B, (a, b, fn),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "cb":
            k, o = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_CONSTB, (k, fn),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "llst":
            fast.append((_N_LLST, ins[1], OP_COST[op]))
        elif op == "cjf":
            o, tgt = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_CMPJF, (fn, tgt),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "lcb":
            a, k, o = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LCB, (a, k, fn),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "lb":
            b, o = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LB, (b, fn),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "lcbs":
            a, k, o, d = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LCBS, (a, k, fn, d),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "llbs":
            a, b, o, d = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LLBS, (a, b, fn, d),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "lcjf":
            a, k, o, tgt = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LCJF, (a, k, fn, tgt),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "lljf":
            a, b, o, tgt = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LLJF, (a, b, fn, tgt),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op == "cs":
            fast.append((_N_CS, ins[1], OP_COST[op]))
        elif op == "cblb":
            k, o1, b, o2 = ins[1]
            f1, f2 = _BINOP_FN.get(o1), _BINOP_FN.get(o2)
            if f1 is None or f2 is None:
                raise VMError(f"unknown binop in {ins!r}")
            fast.append((_N_CBLB, (k, f1, b, f2),
                         OP_COST[op] + BINOP_COST.get(o1, 0)
                         + BINOP_COST.get(o2, 0)))
        elif op == "lbcb":
            b, o1, k, o2 = ins[1]
            f1, f2 = _BINOP_FN.get(o1), _BINOP_FN.get(o2)
            if f1 is None or f2 is None:
                raise VMError(f"unknown binop in {ins!r}")
            fast.append((_N_LBCB, (b, f1, k, f2),
                         OP_COST[op] + BINOP_COST.get(o1, 0)
                         + BINOP_COST.get(o2, 0)))
        elif op == "lcblb":
            a, k, o1, b, o2 = ins[1]
            f1, f2 = _BINOP_FN.get(o1), _BINOP_FN.get(o2)
            if f1 is None or f2 is None:
                raise VMError(f"unknown binop in {ins!r}")
            fast.append((_N_LCBLB, (a, k, f1, b, f2),
                         OP_COST[op] + BINOP_COST.get(o1, 0)
                         + BINOP_COST.get(o2, 0)))
        elif op == "lcbsj":
            a, k, o, d, tgt = ins[1]
            fn = _BINOP_FN.get(o)
            if fn is None:
                raise VMError(f"unknown binop {o!r}")
            fast.append((_N_LCBSJ, (a, k, fn, d, tgt),
                         OP_COST[op] + BINOP_COST.get(o, 0)))
        elif op in ("ix", "ixge"):
            arg = ins[1]
            a, k1, o1, b, o2, k2, o3, c, o4 = arg[:9]
            fns = []
            for o in (o1, o2, o3, o4):
                fn = _BINOP_FN.get(o)
                if fn is None:
                    raise VMError(f"unknown binop {o!r}")
                fns.append(fn)
            cost = OP_COST[op] + sum(
                BINOP_COST.get(o, 0) for o in (o1, o2, o3, o4))
            packed = (a, k1, fns[0], b, fns[1], k2, fns[2], c, fns[3])
            if op == "ix":
                fast.append((_N_IX, packed, cost))
            else:
                fast.append((_N_IXGE, packed + (arg[9],), cost))
        elif op == "cblbge":
            k, o1, b, o2, g = ins[1]
            f1, f2 = _BINOP_FN.get(o1), _BINOP_FN.get(o2)
            if f1 is None or f2 is None:
                raise VMError(f"unknown binop in {ins!r}")
            fast.append((_N_CBLBGE, (k, f1, b, f2, g),
                         OP_COST[op] + BINOP_COST.get(o1, 0)
                         + BINOP_COST.get(o2, 0)))
        else:
            num = _SIMPLE_NUM.get(op)
            if num is None:
                raise VMError(f"unknown opcode {op!r}")
            fast.append((num, ins[1] if len(ins) > 1 else None,
                         OP_COST[op]))
    code._fast = fast
    return fast


class _TallyingStream:
    """The translated stream of one ``Code`` as a profiled ``VM.run``
    fetches from it: ``stream[pc]`` is ``code._fast[pc]``, and the
    fetch tallies that instruction's static cost -- and the +1 an
    rt/print charges on its way out -- into the profile dict under its
    (function name, source line) key.  The tally only *records*: the
    dispatch loop sees the same tuples, so control flow, events and
    ``pending_cycles`` are those of an unprofiled run.
    """

    __slots__ = ("fast", "lines", "fname", "prof", "line", "key")

    def __init__(self, code: Code, fast: List[Tuple], prof: dict):
        lines = getattr(code, "lines", None)
        if not lines or len(lines) != len(fast):
            lines = [0] * len(fast)
        self.fast = fast
        self.lines = lines
        self.fname = code.name
        self.prof = prof
        self.line = self.key = None

    def __getitem__(self, pc: int) -> Tuple:
        ins = self.fast[pc]
        ln = self.lines[pc]
        if ln != self.line:
            self.line = ln
            self.key = (self.fname, ln)
        key = self.key
        prof = self.prof
        num, _arg, cost = ins
        if cost:
            prof[key] = prof.get(key, 0.0) + cost
        if num == _N_RT or num == _N_PRINT:
            prof[key] = prof.get(key, 0.0) + 1.0
        return ins


class Frame:
    """One activation record: code, pc, operand stack, locals."""
    __slots__ = ("fidx", "code", "pc", "stack", "locals")

    def __init__(self, fidx: int, code: Code, args: Tuple = ()):
        self.fidx = fidx
        self.code = code
        self.pc = 0
        self.stack: List[Any] = []
        self.locals: List[Any] = [0] * code.n_locals
        for i, a in enumerate(args):
            self.locals[i] = a
        for slot, typ, dims in code.private_arrays:
            dtype = np.int64 if typ == "int" else np.float64
            self.locals[slot] = np.zeros(dims, dtype=dtype).reshape(-1)

    def clone(self) -> "Frame":
        """Deep-enough copy for snapshots (private arrays copied)."""
        f = Frame.__new__(Frame)
        f.fidx = self.fidx
        f.code = self.code
        f.pc = self.pc
        f.stack = list(self.stack)
        f.locals = [v.copy() if isinstance(v, np.ndarray) else v
                    for v in self.locals]
        return f


class VM:
    """One thread of execution over a CompiledProgram."""

    #: Instructions executed per run() slice before a forced TimeSlice
    #: yield.  Bounds how long pure compute (or a spin loop satisfied by
    #: the synchronous fast path) can hold the simulated clock still.
    MAX_SLICE = 20_000

    def __init__(self, program: CompiledProgram, entry_fidx: int,
                 args: Tuple = ()):
        self.program = program
        self.frames: List[Frame] = [
            Frame(entry_fidx, program.funcs[entry_fidx], args)]
        self.pending_cycles: float = 0.0
        self._pending_push: bool = False
        self.done: bool = False
        self.result: Any = None
        # Optional synchronous memory fast paths installed by the shell:
        # fast_read(gidx, flat) -> value or _MISS; fast_write(gidx, flat,
        # value) -> True if fully handled.  They keep cache *hits* out of
        # the event engine.
        self.fast_read = None
        self.fast_write = None
        # Optional per-line cycle tally installed by a profiling probe:
        # a dict mapping (function name, source line) -> busy cycles.
        # When set, run() interprets -- generated code cannot attribute
        # its folded charges -- and fetches through a _TallyingStream;
        # when None (the default) the loop reads the plain list.
        self.profile = None
        # Generated-code tier (REPRO_HOTPATH "compile"): one exec'd
        # Python function per Code object, indexed by fidx.  None means
        # the interpreter loop runs -- tier off, image without attached
        # gen_src (hand-built test Codes), or a deopt (restore/corrupt/
        # armed faults via disable_compiled).  Cycles and events are
        # bit-identical either way; see interp.compile.
        if hotpath_enabled("compile"):
            self._cfns = _compiled_fns(program)
        else:
            self._cfns = None

    # ----------------------------------------------------------- interface

    def push(self, value: Any) -> None:
        """Provide the result of the event just serviced (loads, rt calls
        that return values)."""
        self.frames[-1].stack.append(value)
        self._pending_push = False

    def take_cycles(self) -> float:
        """Drain and return busy cycles accumulated since last drain."""
        c = self.pending_cycles
        self.pending_cycles = 0.0
        return c

    def snapshot(self) -> List[Frame]:
        """Deep-copy the architectural state (for slipstream recovery)."""
        return [f.clone() for f in self.frames]

    def restore(self, snap: List[Frame]) -> None:
        """Adopt a snapshot (slipstream recovery re-fork).  The VM
        drops to the interpreter loop for good: a restored pc may sit
        anywhere, including mid-block positions the generated code has
        no resume stub for, and recovery is far off the hot path."""
        self._cfns = None
        self.frames = [f.clone() for f in snap]
        self.done = False
        self._pending_push = False

    def disable_compiled(self) -> None:
        """Force the interpreter loop for this VM (armed fault plans,
        restore/corrupt consumers).  Cycle-neutral by construction."""
        self._cfns = None

    def corrupt(self, spec: Tuple[int, object]) -> Optional[str]:
        """Deterministically corrupt one scalar of architectural state
        (fault injection: a soft error in the speculative A-stream's
        register file).  ``spec`` is a precomputed ``(selector, value)``
        pair from a seeded FaultPlan; the selector picks among the top
        frame's numeric stack/local slots, so identical runs corrupt
        identical slots.  Called from outside the dispatch loop -- the
        hot path carries no injection code.  Returns a description of
        the corrupted slot, or None when no scalar slot exists."""
        # Fault-injection consumers run interpreted (the shell already
        # disables the compiled tier when a fault plan is armed; this
        # keeps the contract even for direct callers).
        self._cfns = None
        if not self.frames:
            return None
        sel, value = spec
        frame = self.frames[-1]
        slots = [("stack", i) for i, v in enumerate(frame.stack)
                 if isinstance(v, (int, float))]
        slots += [("local", i) for i, v in enumerate(frame.locals)
                  if isinstance(v, (int, float))]
        if not slots:
            return None
        where, i = slots[sel % len(slots)]
        if where == "stack":
            frame.stack[i] = value
        else:
            frame.locals[i] = value
        return f"{where}[{i}]={value!r} in {frame.code.name}"

    @property
    def depth(self) -> int:
        """Current call-stack depth."""
        return len(self.frames)

    def position(self):
        """Current (code, pc) for attribution, or None when no frame is
        live.  Outside the dispatch loop ``frame.pc`` has already been
        advanced past the instruction that produced the current event,
        so the reported pc is clamped back onto it."""
        if not self.frames:
            return None
        f = self.frames[-1]
        return (f.code, f.pc - 1 if f.pc > 0 else 0)

    # ----------------------------------------------------------- execution

    def run(self):
        """Execute until the next event and return it.

        Dispatches on pre-translated ``(opnum, arg, cost)`` tuples (see
        :func:`_translate`); cycle accounting is bit-identical to the
        original string-dispatch loop because every instruction's full
        static cost is folded into its tuple at translation time.
        """
        prof = self.profile
        if prof is None and self._cfns is not None:
            return self._run_compiled()
        if self.done:
            return Done(self.result)
        if self._pending_push:
            raise VMError("event result was never pushed")
        budget = self.MAX_SLICE
        frames = self.frames
        fast_read = self.fast_read
        fast_write = self.fast_write
        while True:
            frame = frames[-1]
            code = frame.code
            try:
                fi = code._fast
            except AttributeError:
                fi = _translate(code)
            if prof is not None:
                fi = _TallyingStream(code, fi, prof)
            stack = frame.stack
            locs = frame.locals
            pc = frame.pc
            cycles = 0.0
            try:
                while True:
                    num, arg, cost = fi[pc]
                    cycles += cost
                    # Dispatch arms are ordered by measured dynamic
                    # frequency over the static suite with fusion on
                    # (lb 22%, lcb 15%, binop 14%, cb 11%, const 10%,
                    # geload 8%, ...); the chain is a linear scan, so
                    # hot ops must sit near the top.
                    if num == _N_LB:
                        stack[-1] = arg[1](stack[-1], locs[arg[0]])
                        pc += 1
                    elif num == _N_LCB:
                        stack.append(arg[2](locs[arg[0]], arg[1]))
                        pc += 1
                    elif num == _N_CBLB:
                        k, f1, b, f2 = arg
                        stack[-1] = f2(f1(stack[-1], k), locs[b])
                        pc += 1
                    elif num == _N_LBCB:
                        b, f1, k, f2 = arg
                        stack[-1] = f2(f1(stack[-1], locs[b]), k)
                        pc += 1
                    elif num == _N_LCBLB:
                        a, k, f1, b, f2 = arg
                        stack.append(f2(f1(locs[a], k), locs[b]))
                        pc += 1
                    elif num == _N_BINOP:
                        b = stack.pop()
                        a = stack.pop()
                        stack.append(arg(a, b))
                        pc += 1
                    elif num == _N_CONSTB:
                        stack[-1] = arg[1](stack[-1], arg[0])
                        pc += 1
                    elif num == _N_CONST:
                        stack.append(arg)
                        pc += 1
                    elif num == _N_GELOAD:
                        flat = stack.pop()
                        # Synced before the hook, not only on the way
                        # out: a profiling shell's hooks read
                        # ``position()`` to charge a hit to its line.
                        frame.pc = pc + 1
                        if fast_read is not None:
                            v = fast_read(arg, flat)
                            if v is not _MISS:
                                stack.append(v)
                                pc += 1
                                continue
                        self.pending_cycles += cycles
                        self._pending_push = True
                        return MemRead(arg, flat)
                    elif num == _N_IXGE:
                        a, k1, f1, b, f2, k2, f3, c, f4, g = arg
                        flat = f4(f3(f2(f1(locs[a], k1), locs[b]), k2),
                                  locs[c])
                        frame.pc = pc + 1
                        if fast_read is not None:
                            v = fast_read(g, flat)
                            if v is not _MISS:
                                stack.append(v)
                                pc += 1
                                continue
                        self.pending_cycles += cycles
                        self._pending_push = True
                        return MemRead(g, flat)
                    elif num == _N_CBLBGE:
                        k, f1, b, f2, g = arg
                        flat = f2(f1(stack.pop(), k), locs[b])
                        frame.pc = pc + 1
                        if fast_read is not None:
                            v = fast_read(g, flat)
                            if v is not _MISS:
                                stack.append(v)
                                pc += 1
                                continue
                        self.pending_cycles += cycles
                        self._pending_push = True
                        return MemRead(g, flat)
                    elif num == _N_IX:
                        a, k1, f1, b, f2, k2, f3, c, f4 = arg
                        stack.append(f4(f3(f2(f1(locs[a], k1), locs[b]),
                                           k2), locs[c]))
                        pc += 1
                    elif num == _N_JUMP:
                        if arg < pc:
                            # Backward jump: loop boundary.  Enforce the
                            # slice budget here so spin loops served by
                            # the fast path still yield simulated time.
                            budget -= 1
                            if budget <= 0:
                                frame.pc = arg
                                self.pending_cycles += cycles
                                return TimeSlice()
                        pc = arg
                    elif num == _N_GESTORE:
                        v = stack.pop()
                        flat = stack.pop()
                        frame.pc = pc + 1
                        if fast_write is not None and \
                                fast_write(arg, flat, v):
                            pc += 1
                            continue
                        self.pending_cycles += cycles
                        return MemWrite(arg, flat, v)
                    elif num == _N_LCBSJ:
                        a, k, fn, d, t = arg
                        locs[d] = fn(locs[a], k)
                        if t <= pc:
                            # Absorbed backward jump: same slice-budget
                            # enforcement as the standalone _N_JUMP arm.
                            budget -= 1
                            if budget <= 0:
                                frame.pc = t
                                self.pending_cycles += cycles
                                return TimeSlice()
                        pc = t
                    elif num == _N_LCJF:
                        a, k, fn, t = arg
                        pc = pc + 1 if fn(locs[a], k) else t
                    elif num == _N_LCBS:
                        a, k, fn, d = arg
                        locs[d] = fn(locs[a], k)
                        pc += 1
                    elif num == _N_CS:
                        locs[arg[1]] = arg[0]
                        pc += 1
                    elif num == _N_LSTORE:
                        locs[arg] = stack.pop()
                        pc += 1
                    elif num == _N_JFALSE:
                        pc = arg if not stack.pop() else pc + 1
                    elif num == _N_LLOAD:
                        stack.append(locs[arg])
                        pc += 1
                    elif num == _N_LL2B:
                        a, b, fn = arg
                        stack.append(fn(locs[a], locs[b]))
                        pc += 1
                    elif num == _N_LLBS:
                        a, b, fn, d = arg
                        locs[d] = fn(locs[a], locs[b])
                        pc += 1
                    elif num == _N_LLJF:
                        a, b, fn, t = arg
                        pc = pc + 1 if fn(locs[a], locs[b]) else t
                    elif num == _N_CMPJF:
                        b = stack.pop()
                        a = stack.pop()
                        pc = pc + 1 if arg[0](a, b) else arg[1]
                    elif num == _N_LLST:
                        locs[arg[1]] = locs[arg[0]]
                        pc += 1
                    elif num == _N_ALOAD:
                        flat = stack.pop()
                        stack.append(locs[arg][flat].item())
                        pc += 1
                    elif num == _N_ASTORE:
                        v = stack.pop()
                        flat = stack.pop()
                        locs[arg][flat] = v
                        pc += 1
                    elif num == _N_GLOAD:
                        frame.pc = pc + 1
                        if fast_read is not None:
                            v = fast_read(arg, 0)
                            if v is not _MISS:
                                stack.append(v)
                                pc += 1
                                continue
                        self.pending_cycles += cycles
                        self._pending_push = True
                        return MemRead(arg, 0)
                    elif num == _N_GSTORE:
                        v = stack.pop()
                        frame.pc = pc + 1
                        if fast_write is not None and \
                                fast_write(arg, 0, v):
                            pc += 1
                            continue
                        self.pending_cycles += cycles
                        return MemWrite(arg, 0, v)
                    elif num == _N_NEG:
                        stack[-1] = -stack[-1]
                        pc += 1
                    elif num == _N_NOT:
                        stack[-1] = 0 if stack[-1] else 1
                        pc += 1
                    elif num == _N_DUP:
                        stack.append(stack[-1])
                        pc += 1
                    elif num == _N_POP:
                        stack.pop()
                        pc += 1
                    elif num == _N_JNONE:
                        if stack[-1] is None:
                            stack.pop()
                            pc = arg
                        else:
                            pc += 1
                    elif num == _N_UNPACK2:
                        a, b = stack.pop()
                        stack.append(a)
                        stack.append(b)
                        pc += 1
                    elif num == _N_ICALL1:
                        stack.append(arg(stack.pop()))
                        pc += 1
                    elif num == _N_ICALL2:
                        b = stack.pop()
                        a = stack.pop()
                        stack.append(arg(a, b))
                        pc += 1
                    elif num == _N_CALL:
                        fidx, nargs = arg
                        args = tuple(stack[len(stack) - nargs:])
                        del stack[len(stack) - nargs:]
                        frame.pc = pc + 1
                        nf = Frame(fidx, self.program.funcs[fidx], args)
                        frames.append(nf)
                        break           # switch to the new frame
                    elif num == _N_RET:
                        rv = stack.pop() if stack else 0
                        frames.pop()
                        if not frames:
                            self.done = True
                            self.result = rv
                            self.pending_cycles += cycles
                            return Done(rv)
                        frames[-1].stack.append(rv)
                        break           # back to the caller's frame
                    elif num == _N_RT:
                        name, static, nargs = arg
                        if nargs:
                            args = tuple(stack[len(stack) - nargs:])
                            del stack[len(stack) - nargs:]
                        else:
                            args = ()
                        frame.pc = pc + 1
                        self.pending_cycles += cycles + 1
                        return RtCall(name, static, args)
                    elif num == _N_PRINT:
                        vals = tuple(stack[len(stack) - arg:])
                        del stack[len(stack) - arg:]
                        frame.pc = pc + 1
                        self.pending_cycles += cycles + 1
                        return IoOut(vals)
                    else:
                        raise VMError(f"unknown opcode number {num!r}")
            except IndexError:
                instrs = code.instrs
                raise VMError(
                    f"VM fault in {code.name} at pc={pc}: "
                    f"{instrs[pc] if pc < len(instrs) else 'pc out of range'}"
                ) from None
            self.pending_cycles += cycles

    def _run_compiled(self):
        """Drive the generated-code tier: call the current frame's
        exec-compiled function until it returns an event.  ``None``
        means a frame switch (call pushed / ret popped) -- loop with
        the surviving slice budget, exactly like the interpreter's
        outer while.  The ``_DEOPT`` sentinel (entry pc without a
        resume stub) permanently drops this VM to the interpreter,
        which re-runs from the identical synced state."""
        if self.done:
            return Done(self.result)
        if self._pending_push:
            raise VMError("event result was never pushed")
        budget = self.MAX_SLICE
        frames = self.frames
        cfns = self._cfns
        while True:
            ev, budget = cfns[frames[-1].fidx](self, frames[-1], budget)
            if ev is not None:
                if ev is _DEOPT:
                    self._cfns = None
                    return self.run()
                return ev
