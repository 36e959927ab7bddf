"""The ``compile`` hot-path tier: bytecode -> exec-generated Python.

The interpreter's translated-stream dispatch (PR 5) still pays one
linear if/elif scan plus tuple unpacking per executed instruction.
This module removes the fetch/decode/dispatch loop entirely: each
:class:`~repro.compiler.bytecode.Code` object is translated *once* into
the source text of a single Python function, compiled with ``exec``,
and driven by :meth:`VM._run_compiled`.  Straight-line bytecode becomes
straight-line Python over height-indexed virtual stack registers
(``s0, s1, ...``), so CPython's own bytecode does the dispatching.

Within a block the operand stack is symbolic, one entry per height:
the register ``sN``, an *atom* (a literal or a local name: no effect,
cannot trap) or an *expression*.  The image holds base ops only, so
this is where ``l0 * 5 + l1`` or a loop's ``i < n`` and ``i = i + 1``
become one Python expression each.  At most one expression is pending,
so traps fire in the interpreter's order, and one nested deeper than
``_MAX_EXPR_NEST`` goes into its register at once; an effect -- a store, a
memory op, a call, ``rt``/``print``, a conditional branch, a block
exit -- first materializes every entry it does not consume (so a store
to slot *k* never overtakes an atom naming ``l<k>``); a flat index or
a stored value named twice goes through one temporary ``x``; and a
``pop`` of an expression still evaluates it.

Control flow follows the loop nest.  The function is cut into basic
blocks at every yield point and branch, numbered in pc order, and the
current block id lives in the local ``b``.  A run of blocks is a
*ladder* of sequential ``if b == k:`` guards in fall-through order, so
a block that falls into the next one costs one compare.  Every natural
loop (a backward ``jump`` and the id range it spans) is a
native ``while lo <= b <= hi:`` around the ladder of its body: the back
edge is the ``while`` test, an exit is ``b = target`` plus ``break``,
and an iteration never looks at a block outside the loop.  A run of
more than ``_LADDER_MAX`` sibling nodes is halved by ``if b < mid`` /
``if b >= mid`` until it is short.  Around everything stays one
``while 1:``: whatever the structure does not route directly -- a resume
in the middle of a body, a range that does not nest, a loop past
``_MAX_LOOP_NEST`` -- goes round it and finds its block from the top,
so the structure decides speed and never results.

Four mechanisms keep a path through private variables -- the paper's
"control flow and address generation rely mostly on private variables",
which the simulator charges a fixed hit and never simulates -- off the
frame and off the ladder:

* **write-through locals** -- slot *k* of ``frame.locals`` is read as
  the Python local ``l<k>`` and written as ``L[k] = l<k> = expr``.  The
  frame is never stale, so no exit writes anything back, there is no
  dirty set, and a trap in the middle of a block leaves the locals the
  interpreter would have left.  (Writing back at exits instead is
  cheaper per store, but in general needs a may-dirty set per exit and
  definite assignment for every write-back, and leaves the frame stale
  at a mid-block trap; CHANGES.md has the sizes.)  Every
  slot is bound on entry, in one statement ``l0, ..., lN, = L``.  A
  backward liveness pass over the block CFG (``_live_in`` over the
  per-opcode ``_LOCAL_RW`` table) decides only the resident sets of
  collapsed loops, the one exception, below.
* **single-predecessor merging** -- a block that no resume enters and
  exactly one edge reaches is emitted where that edge is: inside the
  ``if``/``else`` arm, or after the forward ``jump``.  Its id leaves
  the ladder, and the static charge the predecessor has not yet added
  to ``c`` is carried into it, so a path pays one ``c = c + ...``
  instead of one per block.  ``_MAX_MERGE_NEST`` bounds the nest; the
  block after the cap goes back to the ladder.
* **collapsed loops** -- a loop whose blocks all merged into its header
  is ``if b == lo:`` over ``for _t in range(_n):`` with the header's
  body directly under it: the back edge is ``continue`` (``b`` never
  left ``lo``) and ``b`` changes only right before a ``break``, so
  nothing re-tests it.  ``_n`` is the slice budget left (at least 1),
  so the ``for`` counts the trips the budget allows, and a trip pays
  no budget test and no charge of its own: the smallest back-edge
  charge ``K`` is settled as ``c + K * _t`` and ``budget - _t`` before
  every ``break`` and ``return`` inside the trip (a dearer back edge
  pays its excess over ``K`` in place), and as ``K * _n`` and
  ``budget - _n`` in the ``for``'s ``else:``, the loop's one
  ``TimeSlice`` -- where the per-trip test would have yielded, with
  the same ``frame.pc`` and budget.  Such a loop keeps its *resident*
  slots -- those it writes that are live at its header -- in Python
  locals only, and writes them to the frame in one line before every
  ``return`` and ``break`` and in an ``except BaseException:`` handler
  around the ``for``.  Every
  slot is bound from the entry on, the exits are the loop's own lines,
  and a trap leaves through the handler, so the frame holds what
  write-through would have left wherever anything can look at it: a
  trip makes no call, and the ``fr``/``fw`` hooks never see a frame.
  A slot the loop writes but that is not live at its header stays
  write-through, so a slot a liveness hole misses is written through,
  which is still exact.
* **counted loops** -- a collapsed loop of the *counted shape* is
  counted once: its header tests ``k < B`` or ``k <= B`` on a resident
  counter ``k``, ``B`` an int literal or a slot the loop never stores;
  the loop's one back-edge path ends with ``k = k + 1``, no other line
  of the trip names ``k``, and the test's false arm is the loop's only
  way out (``_counted``).  On entry ``_trips`` works out how many
  trips ``_m`` of the ``_n`` the budget allows the test lets run:
  ``clamp(B - k (+1 for <=), 0, _n)`` when ``k`` and ``B`` are exactly
  ``int``, else by stepping a copy of the counter through the same
  additions and comparisons the trips would make (exact for floats,
  NaN and infinities).  ``for _t in range(_m):`` then runs the body
  with no test and no step (and is left out when nothing but the step
  is left of a trip).  After it ``k`` takes its final value, and
  with ``_t = _m`` the exit arm runs (``_m < _n``; its transfers fall
  off its end instead of breaking) or the slice ends as above
  (``_m == _n``).  A trap in trip ``_t`` leaves ``k`` stepped ``_t``
  times from its entry value (``_step``).  Every other collapsed loop
  -- a body that reads ``k``, a second back edge, an exit inside the
  trip (a shared access, a call) -- keeps the test in its trips.

An A-stream turns its shared stores into prefetches and skips
reductions and prints, so it runs its own *A-stream version* of each
function (``generate_source(code, "A", globals)``, built on an image's
first A-stream VM by ``compiled_functions(program, "A")``): the
A-needed pass (``_a_needed``) leaves out every operation whose value
only those consume and that cannot raise, and the charges, yields,
events, addresses and branches stay the full version's.

Exactness contract (the golden tables must be bit-identical with the
tier on or off):

* **cycles** -- every instruction's static charge (``OP_COST`` plus the
  per-operator ``BINOP_COST`` / per-intrinsic ``ICALL_COST``, exactly
  as :func:`~repro.interp.interpreter._translate` folds them) is
  constant-folded into accumulator updates ``c = c + <sum>``, one per
  ladder block and path through what merged under it (the charges are
  integers, so the sum does not depend on how it is split); every
  exit hands ``c + <tail>`` to its exit helper, which adds it to
  ``vm.pending_cycles`` just like the interpreter flushes its local
  ``cycles``.  An exception mid-block discards the local accumulator
  in both worlds.
* **yield points** -- shared-memory ops, runtime calls and prints
  return the same event objects in the same order, trying the shell's
  ``fast_read``/``fast_write`` callbacks first; backward jumps decrement
  the same ``MAX_SLICE`` budget and yield ``TimeSlice`` on exhaustion
  (a collapsed loop counts its trips instead and settles the budget
  where it leaves).
* **state sync** -- ``frame.locals`` is current after every store
  (write-through) and at every exit from a collapsed loop (write-back,
  inline ahead of the ``return``); every exit is one ``return``
  through a helper of the exec namespace -- ``_leave`` (events),
  ``_miss`` (a shared load, pushed on resume), ``_call`` and ``_ret``
  (frame switches) -- which sets ``frame.pc``, syncs ``frame.stack``
  to the registers it is handed and flushes the charge.  Snapshots
  taken at barriers,
  ``clone``, ``restore``/``corrupt`` and every shell-side observer see
  exactly the state the interpreter would have left.
* **resume** -- the generated function is re-entered through an
  ``_ENTRY`` table mapping resumable pcs (function entry, post-yield,
  post-call, backward-jump targets) to their block ids.  Once, before
  the ``while 1:``, it binds every frame slot (``l0, ..., lN, = L``)
  and the virtual registers of the stack it finds, by a short chain on
  ``len(S)`` over the heights some resume pc has.  A VM that
  slipstream recovery restored or fault injection corrupted is between
  events, at a yield point, so it resumes here like any other.  An
  unknown pc returns the ``_DEOPT`` sentinel and the VM transparently
  falls back to the interpreter loop for the rest of its life.

Functions whose bytecode the translator cannot prove statically
well-shaped (unreachable-depth conflicts, unknown ops -- in practice
only hand-built test Codes) raise :class:`NotCompilable`, and source
CPython will not compile fails in ``compiled_functions``; either way
the whole program stays on the interpreter: generated code is
all-or-nothing per image, so a partially compiled call chain can
never mix conventions.

The generated source is attached to each ``Code`` as ``gen_src`` when
the image is built (see ``compiler.codegen.compile_program``), lives
with the image in the in-process ``npb/cache.py`` compile cache, and is
exec'd lazily once per process per program.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..compiler.bytecode import (BINOP_COST, ICALL_COST, OP_COST,
                                 RT_RETURNS, Code, CompiledProgram,
                                 GlobalDecl)
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from .interpreter import (MISS, VMError, Frame, _DEOPT, _exp, _log,
                          _op_div, _op_mod, _pow, _sqrt)

__all__ = ["NotCompilable", "generate_source", "attach_generated",
           "compiled_functions"]


class NotCompilable(Exception):
    """This Code cannot be translated; the VM keeps the interpreter."""


def _no_fr(gidx, flat):
    """Stands in for an absent ``vm.fast_read`` hook: always a miss."""
    return MISS


def _no_fw(gidx, flat, value):
    """Stands in for an absent ``vm.fast_write`` hook: never absorbs."""
    return False


def _trips(k, bound, n, le):
    """A counted loop's entry: ``(m, k after m trips)``, where ``m`` is
    how many of at most ``n`` trips find ``k < bound`` (``k <= bound``
    with ``le``) true, the counter stepping by 1 a trip.  Exactly-int
    operands are counted by one subtraction; any other value steps a
    copy of the counter through the additions and comparisons the trips
    would have made, so a float, NaN or an infinity stops where they
    would have."""
    if type(k) is int and type(bound) is int:
        m = bound - k + le
        m = 0 if m < 0 else n if m > n else m
        return m, k + m
    m = 0
    while m < n and (k <= bound if le else k < bound):
        k = k + 1
        m += 1
    return m, k


def _step(k, t):
    """A counted loop's counter ``t`` trips after ``k``: what a trap in
    trip ``t`` leaves in the frame."""
    if type(k) is int:
        return k + t
    for _ in range(t):
        k = k + 1
    return k


def _leave(vm, frame, pc, stack, charge, event):
    """A yield point's exit: the frame synced at ``pc`` with ``stack``,
    the charge flushed, and ``event`` handed back."""
    frame.pc = pc
    frame.stack[:] = stack
    vm.pending_cycles = vm.pending_cycles + charge
    return event


def _miss(vm, frame, pc, stack, charge, event):
    """:func:`_leave` for a shared load its hook missed: the value is
    pushed on resume."""
    frame.pc = pc
    frame.stack[:] = stack
    vm.pending_cycles = vm.pending_cycles + charge
    vm._pending_push = True
    return event


def _call(vm, frame, pc, stack, charge, fidx, args):
    """:func:`_leave` into a callee's new frame (no event)."""
    frame.pc = pc
    frame.stack[:] = stack
    vm.pending_cycles = vm.pending_cycles + charge
    vm.frames.append(Frame(fidx, vm.program.funcs[fidx], args))


def _ret(vm, charge, value):
    """A ``ret``: ``value`` onto the caller's stack (no event), or
    ``Done`` when the last frame returns."""
    vm.frames.pop()
    vm.pending_cycles = vm.pending_cycles + charge
    if vm.frames:
        vm.frames[-1].stack.append(value)
        return None
    vm.done = True
    vm.result = value
    return Done(value)


# Names the generated code resolves as globals of its exec namespace.
_BASE_NS = {
    "_MISS": MISS, "_no_fr": _no_fr, "_no_fw": _no_fw,
    "_trips": _trips, "_step": _step,
    "_leave": _leave, "_miss": _miss, "_call": _call, "_ret": _ret,
    "_div": _op_div, "_mod": _op_mod,
    "_sqrt": _sqrt, "_exp": _exp, "_log": _log, "_pow": _pow,
    "_floor": math.floor,
    "_MemRead": MemRead, "_MemWrite": MemWrite, "_RtCall": RtCall,
    "_IoOut": IoOut, "_TimeSlice": TimeSlice,
    "_VMError": VMError, "_DEOPT": _DEOPT,
}

_ARITH_OPS = frozenset(("+", "-", "*"))
_CMP_OPS = frozenset(("<", "<=", ">", ">=", "==", "!="))

#: Ops that may yield a memory event (block-terminating, resumable).
_MEM_YIELDS = frozenset(("gload", "geload", "gstore", "gestore"))
#: Ops that always leave the function (resumable at pc+1).
_LEAVES = frozenset(("rt", "print", "call"))

#: A run of sibling nodes longer than this is halved by ``if b < mid``.
_LADDER_MAX = 8
#: ``while`` loops nested deeper than this are laid out as plain blocks
#: of the innermost emitted loop.  CPython allows 20 statically nested
#: blocks; ``try`` and the catch-all ``while 1:`` take two of them, and
#: a collapsed loop's ``try`` one more.
_MAX_LOOP_NEST = 8
#: Blocks merged under one ladder block nest at most this deep; the next
#: one goes back to the ladder.  Each level indents by at most one, and
#: CPython's tokenizer stops at 100 levels of indentation.
_MAX_MERGE_NEST = 32
#: A pending expression nested deeper than this goes into its register
#: at once, so a long chain such as ``t + t + ... + t`` is split into
#: statements.  CPython's tokenizer stops at 200 nested parentheses.
_MAX_EXPR_NEST = 32

_TERMINAL = _MEM_YIELDS | _LEAVES | frozenset(
    ("jump", "jfalse", "jnone", "ret"))

#: A write-through store as the emitter spells it; group 2 is what a
#: collapsed loop keeps of a store to a resident slot.
_STORE = re.compile(r"L\[(\d+)\] = (l\1 = )")
#: A collapsed loop's header test on a counter ``k`` (group 1) against a
#: slot (group 3) or an int literal (group 4).
_COUNTED_TEST = re.compile(r"if l(\d+) (<=?) (?:l(\d+)|(-?\d+)):$")

#: Kinds of a symbolic stack entry: in its register ``sN``, an atom, or
#: an expression still to be evaluated.
_REG, _ATOM, _EXPR = range(3)


class _Back(NamedTuple):
    """A back edge in a block's lines, in place of its text: the static
    charge its path has not yet added to ``c``.  The assembler writes
    the edge, budget test and all, or -- in a collapsed loop, whose
    ``for`` counts the trips -- what the charge exceeds the per-trip
    charge by and a ``continue``."""
    charge: float


def _counted(body: List[Tuple], lo: int, resident: Tuple[int, ...]):
    """``(k, bound, le, trip lines, exit lines)`` when a collapsed
    loop's header lines have the counted shape, else None.  The shape:
    the header tests ``l<k> < B`` or ``<=``, ``k`` resident and ``B`` an
    int literal or a slot the loop never stores; the test's true arm is
    the trip, straight-line and without an exit, whose last two lines
    are ``k = k + 1`` and the loop's one back edge, and no other line of
    it names ``k``; its false arm is the loop's one way out."""
    sub, text, _target, _d = body[0]
    test = (_COUNTED_TEST.match(text)
            if sub == 0 and isinstance(text, str) else None)
    if test is None or int(test.group(1)) not in resident:
        return None
    k = int(test.group(1))
    tops = [i for i, line in enumerate(body) if line[0] == 0]
    if len(tops) != 2 or body[tops[1]][1] != "else:" or tops[1] < 3:
        return None
    trip, exits = body[1:tops[1] - 2], body[tops[1] + 1:]
    (_s, step, _t, _d), (_s, back, target, _d) = body[tops[1] - 2:tops[1]]
    if (step != "L[%d] = l%d = (l%d + 1)" % (k, k, k)
            or not isinstance(back, _Back) or target != lo
            or any(isinstance(text, _Back) and target == lo
                   for _s, text, target, _d in exits)):
        return None
    names_k = re.compile(r"\bl%d\b" % k).search
    for _s, text, target, _d in trip:
        if (target is not None or not isinstance(text, str)
                or text.startswith("return ") or names_k(text)):
            return None
    if test.group(3) is not None:
        slot = test.group(3)
        if any(isinstance(text, str) and (store := _STORE.match(text))
               and store.group(1) == slot for _s, text, _t, _d in body):
            return None
    bound = test.group(4) or "l" + test.group(3)
    return k, bound, int(test.group(2) == "<="), trip, exits


def _bexpr(o: str, a: str, b: str) -> Tuple[str, str]:
    """(full value expression, truthiness expression) for a binop.

    Comparisons keep the interpreter's int results (``1``/``0``, never
    bool -- a printed ``True`` would diverge from the oracle) but hand
    conditional-jump consumers the raw comparison.
    """
    if o in _ARITH_OPS:
        e = "(%s %s %s)" % (a, o, b)
        return e, e
    if o in _CMP_OPS:
        raw = "%s %s %s" % (a, o, b)
        return "(1 if %s else 0)" % raw, raw
    if o == "/":
        e = "_div(%s, %s)" % (a, b)
        return e, e
    if o == "%":
        e = "_mod(%s, %s)" % (a, b)
        return e, e
    raise NotCompilable("unknown binop %r" % (o,))


_ICALL_INLINE = {
    "fabs": "abs(%s)",
    "sqrt": "_sqrt(%s)", "exp": "_exp(%s)", "log": "_log(%s)",
    "floor": "_floor(%s)",
    "pow": "_pow(%s, %s)", "mod": "_mod(%s, %s)",
}


def _cost(ins: Tuple) -> float:
    """One instruction's folded static charge -- must mirror
    :func:`repro.interp.interpreter._translate` exactly."""
    op = ins[0]
    if op == "binop":
        return OP_COST[op] + BINOP_COST.get(ins[1], 0)
    if op == "icall":
        name, _n = ins[1]
        return OP_COST[op] + ICALL_COST.get(name, 1)
    try:
        return OP_COST[op]
    except KeyError:
        raise NotCompilable("unknown opcode %r" % (op,)) from None


def _succ(ins: Tuple, pc: int, d: int) -> List[Tuple[int, int]]:
    """Control successors of one instruction as (pc, depth-after) edges
    (post-resume depth for yielding ops).  Raises on stack underflow."""
    op = ins[0]
    arg = ins[1] if len(ins) > 1 else None

    def need(k: int) -> None:
        if d < k:
            raise NotCompilable("stack underflow at pc=%d (%r)" % (pc, op))

    def fall(nd: int) -> List[Tuple[int, int]]:
        return [(pc + 1, nd)]

    if op in ("const", "lload", "gload"):
        return fall(d + 1)
    if op == "dup":
        need(1)
        return fall(d + 1)
    if op in ("lstore", "pop", "gstore"):
        need(1)
        return fall(d - 1)
    if op in ("unop", "aload", "geload"):
        need(1)
        return fall(d)
    if op == "unpack2":
        need(1)
        return fall(d + 1)
    if op == "binop":
        need(2)
        return fall(d - 1)
    if op == "icall":
        _name, n = arg
        need(n)
        return fall(d - n + 1)
    if op in ("astore", "gestore"):
        need(2)
        return fall(d - 2)
    if op == "jump":
        return [(arg, d)]
    if op == "jfalse":
        need(1)
        return [(arg, d - 1), (pc + 1, d - 1)]
    if op == "jnone":
        need(1)
        return [(arg, d - 1), (pc + 1, d)]
    if op == "call":
        _fidx, n = arg
        need(n)
        return [(pc + 1, d - n + 1)]
    if op == "ret":
        return []
    if op == "rt":
        name, _static, n = arg
        need(n)
        return [(pc + 1, d - n + (1 if name in RT_RETURNS else 0))]
    if op == "print":
        need(arg)
        return [(pc + 1, d - arg)]
    raise NotCompilable("unknown opcode %r" % (op,))


#: Frame-local slots an instruction names: op -> (operand positions
#: read, operand positions written); a scalar operand is position 0, and
#: an instruction reads before it writes.  Every op the emitter spells
#: with an ``l<k>`` name is here (tests/test_interp_compile.py walks
#: them): liveness is only as good as this table.
_LOCAL_RW = {
    "lload": ((0,), ()), "lstore": ((), (0,)),
    "aload": ((0,), ()), "astore": ((0,), ()),   # the array reference
}


def _local_rw(ins: Tuple) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(slots read, slots written) by one instruction."""
    rw = _LOCAL_RW.get(ins[0])
    if rw is None:
        return (), ()
    arg = ins[1] if isinstance(ins[1], tuple) else (ins[1],)
    return tuple(arg[i] for i in rw[0]), tuple(arg[i] for i in rw[1])


def _analyze(instrs: List[Tuple]) -> Dict[int, int]:
    """Reachable pc -> operand-stack depth before the instruction.

    The depth at every pc must be unique across all paths reaching it
    (it is, for compiler-emitted bytecode); a conflict means we cannot
    assign static register names and the function stays interpreted.
    """
    n = len(instrs)
    depths = {0: 0}
    work = [0]
    while work:
        pc = work.pop()
        for (t, nd) in _succ(instrs[pc], pc, depths[pc]):
            if not 0 <= t < n:
                raise NotCompilable("edge to pc=%d out of range" % t)
            if nd < 0:
                raise NotCompilable("stack underflow at pc=%d" % pc)
            prev = depths.get(t)
            if prev is None:
                depths[t] = nd
                work.append(t)
            elif prev != nd:
                raise NotCompilable(
                    "inconsistent depth at pc=%d (%d vs %d)" % (t, prev, nd))
    return depths


def _entry_pcs(instrs: List[Tuple], depths: Dict[int, int]) -> Set[int]:
    """Pcs the driver may re-enter at: function start, every post-yield
    / post-call resume point, and backward-jump (TimeSlice) targets."""
    entries = {0}
    for pc in depths:
        ins = instrs[pc]
        op = ins[0]
        if op in _MEM_YIELDS or op in _LEAVES:
            if pc + 1 in depths:
                entries.add(pc + 1)
        elif op == "jump" and ins[1] < pc:
            entries.add(ins[1])
    return entries


def _leader_pcs(instrs: List[Tuple], depths: Dict[int, int],
                entries: Set[int]) -> Set[int]:
    """Basic-block leaders: entries plus every branch edge target."""
    leaders = set(entries)
    for pc in depths:
        ins = instrs[pc]
        op = ins[0]
        if op == "jump":
            leaders.add(ins[1])
        elif op in ("jfalse", "jnone"):
            leaders.add(ins[1])
            leaders.add(pc + 1)
    return {pc for pc in leaders if pc in depths}


def _block_pcs(start: int, instrs: List[Tuple],
               leaders: Set[int]) -> List[int]:
    pcs = []
    pc = start
    while True:
        pcs.append(pc)
        if instrs[pc][0] in _TERMINAL or pc + 1 in leaders:
            return pcs
        pc += 1


def _cfg(instrs: List[Tuple]):
    """``(depths, entries, blocks, succs)``: the stack depth at every
    reachable pc, the resume pcs, each block's pcs by its leader, and
    each leader's successor leaders."""
    if not instrs:
        raise NotCompilable("empty code object")
    depths = _analyze(instrs)
    entries = _entry_pcs(instrs, depths)
    leaders = _leader_pcs(instrs, depths, entries)
    blocks = {pc: _block_pcs(pc, instrs, leaders) for pc in leaders}
    succs = {leader: [t for t, _d in _succ(instrs[pcs[-1]], pcs[-1],
                                           depths[pcs[-1]])]
             for leader, pcs in blocks.items()}
    return depths, entries, blocks, succs


def _live_in(instrs: List[Tuple], blocks: Dict[int, List[int]],
             succs: Dict[int, List[int]]) -> Dict[int, int]:
    """Backward liveness over the block CFG: leader pc -> bitmask of the
    frame-local slots some path from the top of the block reads before
    it writes them.  Round-robin in reverse pc order over int masks; a
    pass per loop-nest level reaches the fixed point."""
    use: Dict[int, int] = {}
    defs: Dict[int, int] = {}
    for leader, pcs in blocks.items():
        u = d = 0
        for pc in pcs:
            reads, writes = _local_rw(instrs[pc])
            for k in reads:
                u |= (1 << k) & ~d
            for k in writes:
                d |= 1 << k
        use[leader], defs[leader] = u, d
    live = dict.fromkeys(blocks, 0)
    backward = sorted(blocks, reverse=True)
    changed = True
    while changed:
        changed = False
        for leader in backward:
            out = 0
            for t in succs[leader]:
                out |= live[t]
            new = use[leader] | (out & ~defs[leader])
            if new != live[leader]:
                live[leader] = new
                changed = True
    return live


# ----------------------------------------------------------- A-needed pass
#
# An A-stream turns its shared stores into prefetches and skips
# reductions and I/O, so the values those consume are thrown away.  Its
# version of a function leaves out every computation whose value only
# reaches them and that cannot raise.  A value type is ``_F`` (float),
# ``_I`` (int), ``None`` (anything else) or, while slot types settle,
# ``_TOP`` (not known yet).

_F, _I, _TOP = "f", "i", "?"
_NUM = (_F, _I)


def _arith_t(a, b):
    """The type of ``a + b``/``-``/``*``/``/``/``%`` when it completes:
    float with a float operand, int with two."""
    if a == _F or b == _F:
        return _F
    if a is None or b is None:
        return None
    return _I if a == b == _I else _TOP


def _meet_t(a, b):
    """One type for two values: equal types, or ``None``."""
    if a == _TOP:
        return b
    if b == _TOP or a == b:
        return a
    return None


def _a_flow(instrs: List[Tuple], pcs: List[int], reg_t: List,
            slot_t: List, gtypes: Dict[int, str]):
    """One block, forward over a stack of value ids: ``(steps, types,
    stack)``.  A step is ``(pc, op, arg, ids consumed, id produced,
    raises)``; ``types`` maps an id to its type, and ``stack`` is what
    the block leaves, with the value a load, ``call`` or ``rt`` pushes
    on resume on top.  The registers the block starts with are ids
    ``0..len(reg_t)-1``, of the types ``reg_t``."""
    stack = list(range(len(reg_t)))
    types: Dict[int, Optional[str]] = dict(enumerate(reg_t))
    steps = []
    for pc in pcs:
        ins = instrs[pc]
        op = ins[0]
        arg = ins[1] if len(ins) > 1 else None
        if op == "dup":
            stack.append(stack[-1])
            continue
        n_in, n_out, raises = _A_SHAPE.get(op, (0, 0, True))
        t = None
        if op == "const":
            if isinstance(arg, float):
                t = _F
            elif isinstance(arg, int) and not isinstance(arg, bool):
                t = _I
        elif op == "lload":
            t = slot_t[arg]
        elif op in ("gload", "geload"):
            t = gtypes.get(arg)
        elif op == "binop":
            a, b = (types[i] for i in stack[-2:])
            if arg in _CMP_OPS:
                t, raises = _I, not (a in _NUM and b in _NUM)
            else:
                t = _arith_t(a, b)
                raises = not (arg in _ARITH_OPS and a == b and a in _NUM)
        elif op == "unop":
            a = types[stack[-1]]
            t = a if arg == "-" else _I
            raises = a not in _NUM
        elif op == "icall":
            name, n_in = arg
            ops = [types[i] for i in stack[len(stack) - n_in:]]
            if name in ("fabs", "min", "max"):
                t = ops[0] if n_in == 1 else _meet_t(*ops)
                raises = not all(a in _NUM for a in ops)
            elif name in ("sqrt", "exp", "log", "pow"):
                t = _F
            elif name == "floor":
                t = _I
            elif n_in == 2:
                t = _arith_t(*ops)
        elif op in ("call", "print"):
            n_in = arg[1] if op == "call" else arg
        elif op == "rt":
            n_in, n_out = arg[2], int(arg[0] in RT_RETURNS)
        elif op == "ret":
            n_in = 1 if stack else 0
        ins_ids = tuple(stack[len(stack) - n_in:])
        del stack[len(stack) - n_in:]
        out = len(types) if n_out else None
        for i in range(n_out):
            types[out + i] = t
            stack.append(out + i)
        steps.append((pc, op, arg, ins_ids, out, raises))
    return steps, types, stack


#: ``op -> (values consumed, values produced, raises)`` where the op's
#: operands do not decide them.  A ``jnone`` consumes nothing: on the
#: path that falls through the value it tests stays, and its block
#: leaves it; a ``call``'s value is pushed when the callee returns.
_A_SHAPE = {
    "const": (0, 1, False), "lload": (0, 1, False),
    "lstore": (1, 0, True), "pop": (1, 0, True),
    "gload": (0, 1, True), "geload": (1, 1, True),
    "gstore": (1, 0, True), "gestore": (2, 0, True),
    "aload": (1, 1, True), "astore": (2, 0, True),
    "binop": (2, 1, True), "unop": (1, 1, True),
    "icall": (0, 1, True), "unpack2": (1, 2, True),
    "jfalse": (1, 0, True), "call": (0, 1, True),
}


def _a_back(steps, stack, depth: int, need: int, slot_t: List,
            drops: Optional[Tuple[Set[int], Set[int]]] = None) -> int:
    """One block, backward from ``need``, what some path from its end
    uses in a needed way (bit *k* a slot, bit ``len(slot_t) + h`` the
    register at height *h*): the same at its top.  With ``drops`` (dead
    pcs, dropped stores) the block's share of each is added.  A value is
    needed when it reaches a branch, a shared or private-array access's
    index, a private-array store, a runtime call other than as
    ``reduce``'s operand, a ``call`` or ``ret``, a store to a slot of no
    type (so a dropped store never leaves a number where the full
    version has something else), a needed slot or register, or an
    operation that can raise."""
    nl = len(slot_t)
    needed = {i for h, i in enumerate(stack) if need >> (nl + h) & 1}
    need &= (1 << nl) - 1
    for pc, op, arg, ins, out, raises in reversed(steps):
        if op == "lstore":
            if need >> arg & 1 or slot_t[arg] is None:
                needed.add(ins[0])
            elif drops is not None:
                drops[1].add(pc)
            need &= ~(1 << arg)
        elif op == "lload":
            if out in needed:
                need |= 1 << arg
        elif op in ("binop", "unop", "icall"):
            if out in needed or raises:
                needed.update(ins)
            elif drops is not None:
                drops[0].add(pc)
        elif op in ("aload", "astore"):
            needed.update(ins)
            need |= 1 << arg
        elif op in ("const", "gstore", "print", "pop") or (
                op == "rt" and arg[0] == "reduce"):
            pass
        elif op == "gestore":
            needed.add(ins[0])
        else:
            needed.update(ins)
    for h in range(depth):
        if h in needed:
            need |= 1 << (nl + h)
    return need


def _a_needed(code: Code, gdecls: Sequence[GlobalDecl] = ()):
    """The A-needed pass over one function of an image whose globals are
    ``gdecls``: ``(dead, dropped, need_in)``.  ``dead`` holds the pcs of
    operations whose value nothing needed uses and that cannot raise,
    ``dropped`` the ``lstore`` pcs whose slot nothing needed reads before
    it is stored again, and ``need_in`` maps a leader to what is needed
    at its top, as :func:`_a_back` masks it.

    Types first, to a fixed point down from "not known": a slot is
    float-typed (int-typed) when every store to it is float-valued
    (int-valued) -- a slot no ``lstore`` names has no type -- and a
    register a block starts with has the type every edge into it hands
    over.  ``+``, ``-`` and ``*`` cannot raise on two float-typed or two
    int-typed operands; comparisons, ``abs``, ``min``, ``max``, negation
    and ``!`` cannot raise on numbers; everything else can.  Then
    neededness, backward over the block CFG like :func:`_live_in`."""
    instrs = code.instrs
    depths, _entries, blocks, succs = _cfg(instrs)
    gtypes = {g.index: _F if g.typ == "double" else _I for g in gdecls}
    stored = {ins[1] for ins in instrs if ins[0] == "lstore"}
    slot_t: List = [_TOP if k in stored else None
                    for k in range(code.n_locals)]
    order = sorted(blocks)
    reg_t = {leader: [_TOP] * depths[leader] for leader in order}
    while True:
        changed = False
        for leader in order:
            steps, types, stack = _a_flow(instrs, blocks[leader],
                                          reg_t[leader], slot_t, gtypes)
            for _pc, op, arg, ins, _o, _r in steps:
                if op == "lstore":
                    t = _meet_t(slot_t[arg], types[ins[0]])
                    if t != slot_t[arg]:
                        slot_t[arg], changed = t, True
            for succ in succs[leader]:
                regs = reg_t[succ]
                for h, i in enumerate(stack[:len(regs)]):
                    t = _meet_t(regs[h], types[i])
                    if t != regs[h]:
                        regs[h], changed = t, True
        if not changed:
            if _TOP not in slot_t and not any(
                    _TOP in regs for regs in reg_t.values()):
                break
            slot_t = [None if t == _TOP else t for t in slot_t]
            for regs in reg_t.values():
                regs[:] = [None if t == _TOP else t for t in regs]
    flows = {leader: _a_flow(instrs, blocks[leader], reg_t[leader],
                             slot_t, gtypes) for leader in order}

    def need_out(leader: int) -> int:
        out = 0
        for t in succs[leader]:
            out |= need_in[t]
        return out

    need_in = dict.fromkeys(order, 0)
    changed = True
    while changed:
        changed = False
        for leader in reversed(order):
            steps, _types, stack = flows[leader]
            new = _a_back(steps, stack, depths[leader], need_out(leader),
                          slot_t)
            if new != need_in[leader]:
                need_in[leader], changed = new, True
    dead: Set[int] = set()
    dropped: Set[int] = set()
    for leader in order:
        steps, _types, stack = flows[leader]
        _a_back(steps, stack, depths[leader], need_out(leader), slot_t,
                (dead, dropped))
    return dead, dropped, need_in


# --------------------------------------------------------------- emission

def generate_source(code: Code, stream: str = "R",
                    gdecls: Sequence[GlobalDecl] = ()) -> Tuple[str, Tuple]:
    """Translate one Code into ``(python_source, hoisted_constants)``.

    The source defines ``_ENTRY`` (resume-pc -> dispatch id) and
    ``_fn(vm, frame, budget) -> (event_or_None, budget)``; constants
    whose repr does not round-trip (non-finite floats, tuples) are
    hoisted and injected into the exec namespace as ``_K<i>``.
    Raises :class:`NotCompilable` for bytecode the static analysis
    cannot shape.

    A frame local is read as the Python local ``l<k>``; the function
    binds every slot on entry, so a slot the liveness misses is never
    unbound: it stays out of a collapsed loop's resident set and is
    written through.

    ``stream="A"`` emits the A-stream version (:func:`_a_needed`, with
    the element types of ``gdecls``, the image's globals): every
    computation whose value no needed use reaches and that cannot raise
    is left out -- its slot keeps the number it held, a shared store,
    ``reduce`` or ``print`` is handed ``0.0`` for it -- and one that can
    raise is still evaluated, then discarded.  Charges, yields, events,
    addresses and branches are the full version's.
    """
    instrs = code.instrs
    depths, entries, blocks, succs = _cfg(instrs)

    # Blocks are numbered in pc order, so a loop is a contiguous id
    # range [header, block ending in its last back edge].
    order = sorted(blocks)
    bid = {leader: i for i, leader in enumerate(order)}
    loop_hi: Dict[int, int] = {}             # header id -> last id
    npred = dict.fromkeys(order, 0)
    for i, leader in enumerate(order):
        pc = blocks[leader][-1]
        ins = instrs[pc]
        if ins[0] == "jump" and ins[1] < pc:
            loop_hi[bid[ins[1]]] = i
        for t in succs[leader]:
            npred[t] += 1
    live = _live_in(instrs, blocks, succs)
    dead: Set[int] = set()
    dropped: Set[int] = set()
    if stream == "A":
        dead, dropped, _need = _a_needed(code, gdecls)
    # A block one edge reaches and no resume enters is emitted where
    # that edge is (``goto``); its id never shows in the ladder.
    inline = {pc for pc in order if npred[pc] == 1 and pc not in entries}

    consts: List = []

    def lit(v) -> str:
        if v is None or isinstance(v, bool) or isinstance(v, (int, str)):
            return repr(v)
        if isinstance(v, float) and math.isfinite(v):
            return repr(v)
        consts.append(v)             # non-finite float, tuple, ...
        return "_K%d" % (len(consts) - 1)

    def tup(texts: List[str]) -> str:
        if not texts:
            return "()"
        return "(%s,)" % ", ".join(texts)

    def regs(k: int) -> str:
        """The operand stack of height ``k`` as an exit syncs it."""
        return tup(["s%d" % i for i in range(k)])

    def ld(k: int) -> str:
        return "l%d" % k

    def st(k: int, expr: str) -> str:
        # Write-through: the frame is never stale, so no exit, trap or
        # snapshot has anything to write back.
        return "L[%d] = l%d = %s" % (k, k, expr)

    bodies: Dict[int, List[Tuple]] = {}
    roots = [pc for pc in order if pc not in inline]

    def emit_block(leader: int, out: List[Tuple], ind: int, nest: int,
                   pend: float) -> None:
        """Append the block's lines to ``out`` as ``(indent, text,
        target, depth)``; ``target`` is the block id a ``b = N`` line or
        a back edge (text a :class:`_Back`) transfers to (None on every
        other line), so the assembler can tell a loop exit from a
        transfer inside the loop, and ``depth`` is the operand stack's
        height when the line was written.  ``pend`` is the static
        charge of the blocks this one was merged under (``nest`` of
        them), not yet added to ``c``.  The operand stack is symbolic
        (see the module docstring): one ``(value, truthiness, kind,
        level)`` entry per height, ``level`` an expression's nesting."""
        pcs = blocks[leader]

        def reg(h: int) -> Tuple[str, str, int, int]:
            return ("s%d" % h, "s%d" % h, _REG, 0)

        sym = [reg(h) for h in range(depths[leader])]

        def w(i: int, text: str) -> None:
            out.append((ind + i, text, None, len(sym)))

        def mat(h: int) -> None:
            """Entry ``h`` into its register.  Alone only for the one
            pending expression: an atom may sit above registers an
            expression below it still reads."""
            text, _c, kind, _n = sym[h]
            if kind != _REG:
                w(0, "s%d = %s" % (h, text))
                sym[h] = reg(h)

        def settle(keep: int = 0) -> None:
            """Materialize every entry below the top ``keep``."""
            for h in range(len(sym) - keep):
                mat(h)

        def hold(n: int) -> None:
            """The pending expression, if it is among the top ``n``
            entries, into its register."""
            for h in range(len(sym) - n, len(sym)):
                if sym[h][2] == _EXPR:
                    mat(h)

        def push(text: str, cond: Optional[str] = None,
                 kind: int = _EXPR, level: int = 0) -> None:
            if kind == _EXPR:
                hold(len(sym))
            sym.append((text, cond if cond is not None else text, kind,
                        level))
            if level > _MAX_EXPR_NEST:
                mat(len(sym) - 1)

        def level_of(n: int) -> int:
            """Nesting depth of an expression over the top n entries."""
            return 1 + max(e[3] for e in sym[len(sym) - n:])

        def pop_vals(n: int) -> List[str]:
            """Oldest-first value texts of the top n entries."""
            texts = [e[0] for e in sym[len(sym) - n:]]
            del sym[len(sym) - n:]
            return texts

        def named_twice(e: Tuple[str, str, int, int]) -> str:
            """An operand a statement names more than once: an
            expression is evaluated once, into the temporary ``x``."""
            if e[2] == _EXPR:
                w(0, "x = %s" % e[0])
                return "x"
            return e[0]

        def leave(n: int) -> List[str]:
            """The top ``n`` entries as the texts of a statement that
            leaves the function: everything below them materialized, and
            the one expression evaluated before the state is synced."""
            settle(n)
            hold(n)
            return pop_vals(n)

        def flushed(extra: float = 0.0) -> str:
            tot = pend + extra
            return "c" if tot == 0 else "c + %r" % float(tot)

        def exit_to(i: int, pc: int, tail: str, extra: float = 0.0,
                    helper: str = "_leave") -> None:
            """Return through an exit helper, to resume at ``pc`` with
            the stack as it stands; ``tail`` is the helper's last
            arguments (the event, for ``_leave`` and ``_miss``)."""
            w(i, "return %s(vm, frame, %d, %s, %s, %s), budget"
              % (helper, pc, regs(len(sym)), flushed(extra), tail))

        def flush(i: int) -> None:
            if pend:
                w(i, "c = c + %r" % float(pend))

        def transfer(i: int, target_pc: int) -> None:
            out.append((ind + i, "b = %d" % bid[target_pc], bid[target_pc],
                        len(sym)))

        def goto(i: int, target_pc: int) -> None:
            """Continue at a block: in place when this is the one edge
            into it, carrying the charge not yet added, so that a path
            pays one ``c = c + ...`` and no dispatch for it."""
            if target_pc in inline:
                if nest < _MAX_MERGE_NEST:
                    emit_block(target_pc, out, ind + i, nest + 1, pend)
                    return
                roots.append(target_pc)      # too deep: a ladder block
            flush(i)
            transfer(i, target_pc)

        def cond_jump(cond: str, fall_pc: int, target_pc: int) -> None:
            # Truthy condition falls through, falsy jumps -- the shape
            # of every jfalse-family op.
            w(0, "if %s:" % cond)
            goto(1, fall_pc)
            w(0, "else:")
            goto(1, target_pc)

        def back_jump(target_pc: int) -> None:
            # A resume point: never merged.
            out.append((ind, _Back(float(pend)), bid[target_pc], len(sym)))

        def mem_load(pc: int, gidx: int, flat: str) -> None:
            # The stack holds the entries below the flat index; the
            # interpreter leaves exactly those when it yields MemRead
            # (the push happens on resume via vm.push).
            d = len(sym)
            w(0, "v = fr(%d, %s)" % (gidx, flat))
            w(0, "if v is _MISS:")
            exit_to(1, pc + 1, "_MemRead(%d, %s)" % (gidx, flat),
                    helper="_miss")
            w(0, "s%d = v" % d)
            sym.append(reg(d))
            goto(0, pc + 1)

        def mem_store(pc: int, gidx: int, flat: str, val: str) -> None:
            w(0, "if not fw(%d, %s, %s):" % (gidx, flat, val))
            exit_to(1, pc + 1, "_MemWrite(%d, %s, %s)" % (gidx, flat, val))
            goto(0, pc + 1)

        for pc in pcs:
            ins = instrs[pc]
            op = ins[0]
            arg = ins[1] if len(ins) > 1 else None
            pend += _cost(ins)

            if pc in dead or pc in dropped:
                # An A-stream drops it: a kept operand that can raise is
                # evaluated, and a value still goes on the stack.
                n = _A_SHAPE[op][0] if op != "icall" else arg[1]
                for text, _c, kind, _n in sym[len(sym) - n:]:
                    if kind == _EXPR:
                        w(0, text)
                del sym[len(sym) - n:]
                if pc in dead:
                    push("0.0", kind=_ATOM)
                continue
            if op == "const":
                push(lit(arg), kind=_ATOM)
            elif op == "lload":
                push(ld(arg), kind=_ATOM)
            elif op == "lstore":
                val = sym.pop()
                settle()                     # an atom may name l<arg>
                w(0, st(arg, val[0]))
            elif op == "dup":
                hold(1)
                text, cond, _k, _n = sym[-1]
                push(text, cond, _ATOM)
            elif op == "pop":
                text, _c, kind, _n = sym.pop()
                if kind == _EXPR:
                    # The interpreter evaluated this expression when it
                    # was pushed; dropping it unevaluated could skip a
                    # trap (division, wild index) the A-stream relies on.
                    w(0, text)
            elif op == "unop":
                level = level_of(1)
                t = sym.pop()[0]
                push("(-%s)" % t if arg == "-" else "(0 if %s else 1)" % t,
                     level=level)
            elif op == "unpack2":
                t = sym.pop()[0]
                settle()
                d = len(sym)
                w(0, "s%d, s%d = %s" % (d, d + 1, t))
                sym += [reg(d), reg(d + 1)]
            elif op == "binop":
                level = level_of(2)
                a_t, b_t = pop_vals(2)
                push(*_bexpr(arg, a_t, b_t), level=level)
            elif op == "icall":
                name, n = arg
                if name in ("min", "max"):
                    # Both operands are named twice: an expression goes
                    # through its register first.
                    hold(2)
                    a_t, b_t = pop_vals(2)
                    o = "<" if name == "min" else ">"
                    push("(%s if %s %s %s else %s)" % (a_t, a_t, o, b_t, b_t),
                         level=1)
                elif name in _ICALL_INLINE:
                    level = level_of(n)
                    push(_ICALL_INLINE[name] % tuple(pop_vals(n)), level=level)
                else:
                    raise NotCompilable("unknown intrinsic %r" % (name,))
            elif op == "aload":
                level = level_of(1)
                t = sym.pop()[0]
                push("%s[%s].item()" % (ld(arg), t), level=level)
            elif op == "astore":
                flat, val = pop_vals(2)
                settle()
                # Python evaluates the right side before the subscript;
                # of the two at most one is an expression, and an atom
                # cannot trap, so traps fire in the interpreter's order.
                w(0, "%s[%s] = %s" % (ld(arg), flat, val))
            elif op == "gload":
                settle()
                mem_load(pc, arg, "0")
            elif op == "geload":
                flat = sym.pop()
                settle()
                mem_load(pc, arg, named_twice(flat))
            elif op == "gstore":
                val = sym.pop()
                settle()
                mem_store(pc, arg, "0", named_twice(val))
            elif op == "gestore":
                val = sym.pop()
                flat = sym.pop()
                settle()
                mem_store(pc, arg, named_twice(flat), named_twice(val))
            elif op == "jump":
                settle()
                if arg < pc:
                    back_jump(arg)
                else:
                    goto(0, arg)
            elif op == "jfalse":
                cond = sym.pop()[1]
                settle()
                cond_jump(cond, pc + 1, arg)
            elif op == "jnone":
                settle()
                w(0, "if s%d is None:" % (len(sym) - 1))
                sym.pop()
                goto(1, arg)
                w(0, "else:")
                goto(1, pc + 1)
            elif op == "call":
                fidx, n = arg
                args = leave(n)
                exit_to(0, pc + 1, "%d, %s" % (fidx, tup(args)),
                        helper="_call")
            elif op == "ret":
                rv = leave(1)[0] if sym else "0"
                w(0, "return _ret(vm, %s, %s), budget" % (flushed(), rv))
            elif op == "rt":
                name, static, n = arg
                args = leave(n)
                exit_to(0, pc + 1, "_RtCall(%s, %s, %s)"
                        % (lit(name), lit(static), tup(args)), 1.0)
            elif op == "print":
                args = leave(arg)
                exit_to(0, pc + 1, "_IoOut(%s)" % tup(args), 1.0)
            else:
                raise NotCompilable("unknown opcode %r" % (op,))

        if instrs[pcs[-1]][0] not in _TERMINAL:
            # Plain fall-through into the next leader.
            settle()
            goto(0, pcs[-1] + 1)

    # ``roots`` grows while it is walked: a block the nest cap kept out
    # of its arm joins the ladder.
    for leader in roots:
        bodies[bid[leader]] = out = []
        emit_block(leader, out, 0, 0, 0.0)

    # Loop nest over the ids left in the ladder.  A node is a block id
    # or a loop ``(lo, hi, nodes)``.  A range that straddles the loop it
    # starts in and a loop nested past the cap stay plain blocks of
    # their parent: the enclosing ``while`` (at worst the outer
    # ``while 1:``) carries their back edges, so structure only ever
    # decides speed.
    root: List = []
    open_loops = [(len(order) - 1, root)]    # (hi, nodes), innermost last
    placed = 0                               # ids below this are in the tree

    def place(nodes: List, upto: int) -> None:
        nonlocal placed
        nodes.extend(i for i in range(placed, upto) if i in bodies)
        placed = upto

    def close_loops(below: int) -> None:
        while open_loops and open_loops[-1][0] < below:
            hi, nodes = open_loops.pop()
            place(nodes, hi + 1)

    for lo, hi in sorted(loop_hi.items()):
        close_loops(lo)
        # open_loops holds the root and the loops around ``lo``.
        if hi > open_loops[-1][0] or len(open_loops) > _MAX_LOOP_NEST:
            continue
        nodes = open_loops[-1][1]
        place(nodes, lo)
        inner: List = []
        nodes.append((lo, hi, inner))
        open_loops.append((hi, inner))
    close_loops(len(order))

    lines: List[str] = []

    def w(ind: int, text: str) -> None:
        lines.append(" " * ind + text)

    def write_back(slots: Tuple[int, ...]) -> str:
        return "%s = %s" % (", ".join("L[%d]" % k for k in slots),
                            ", ".join(ld(k) for k in slots))

    def back_edge(ind: int, charge: float, target: int, depth: int,
                  back: Optional[str]) -> None:
        """A back edge as a ladder runs it: one budget unit a trip, and
        the slice ends at the target when the budget does."""
        if charge:
            w(ind, "c = c + %r" % charge)
        w(ind, "budget = budget - 1")
        w(ind, "if budget <= 0:")
        if back:
            w(ind + 1, back)
        w(ind + 1, "return _leave(vm, frame, %d, %s, c, _TimeSlice()), budget"
          % (order[target], regs(depth)))
        w(ind, "b = %d" % target)

    def emit_body(ind: int, node: int, loop: Tuple[int, int],
                  resident: Tuple[int, ...] = (),
                  trip: Optional[float] = None,
                  body: Optional[List[Tuple]] = None,
                  falls: bool = False) -> None:
        """One ladder block with everything merged under it.  ``loop``
        is the id range of the innermost ``while`` around it: a transfer
        out of that range also breaks, which skips the guards left in
        the ladder.  ``trip`` is set for the header of a collapsed loop,
        written under its ``for``: the per-trip charge.  There a back
        edge to ``node`` is a ``continue`` that pays only what its path
        costs above ``trip``, every transfer leaves the ``for``, and the
        trips before this one are settled once on the way out of it
        (``c + trip * _t``, ``budget - _t``); stores to ``resident``
        slots skip the frame, which gets them back before every
        ``return`` and ``break``.  ``body`` is a part of the node's
        lines to write in place of all of them; with ``falls`` a
        transfer ends its path where it is, with no ``break``."""
        back = write_back(resident) if resident else None
        lines = bodies[node] if body is None else body

        def settle(i: int) -> None:
            w(i, "c = c + %r * _t" % trip)
            w(i, "budget = budget - _t")

        for sub, text, target, depth in lines:
            i = ind + sub
            owed = trip is not None
            if isinstance(text, _Back):
                if owed and target == node:
                    if text.charge > trip:
                        w(i, "c = c + %r" % (text.charge - trip))
                    w(i, "continue")
                    continue
                if owed:
                    settle(i)
                    owed = False
                back_edge(i, text.charge, target, depth, back)
            else:
                if back:
                    store = _STORE.match(text)
                    if store and int(store.group(1)) in resident:
                        text = text[store.start(2):]
                    elif text.startswith("return "):
                        w(i, back)
                if owed and text.startswith("return "):
                    settle(i)
                w(i, text)
            if target is not None and (
                    trip is not None or not loop[0] <= target <= loop[1]):
                if back:
                    w(i, back)
                if owed:
                    settle(i)
                if not falls:
                    w(i, "break")

    def emit_collapsed(ind: int, lo: int) -> None:
        """A loop whose blocks all merged into its header: ``b`` is
        tested once on the way in, the ``for`` counts the trips the
        slice budget allows, and the slots live at the header that the
        loop writes stay Python locals until it exits (or traps: the
        handler writes them back and re-raises).  The ``for``'s
        ``else:`` is the slice ending where the last trip's back edge
        would have ended it, with the budget spent.

        A loop of the counted shape (:func:`_counted`) works out on
        entry how many trips ``_m`` of the ``_n`` its test lets run
        (:func:`_trips`), and the ``for`` runs those with no test and no
        step of the counter (there is no ``for`` when a trip has no line
        left but the step).  After them the counter takes its final
        value ``_k`` and the exit arm runs with ``_t = _m``, its
        transfers falling off its end, or, all ``_n`` trips run, the
        slice ends; a trap in trip ``_t`` leaves the counter stepped
        ``_t`` times (:func:`_step`)."""
        written = {int(store.group(1)) for _sub, text, _t, _d in bodies[lo]
                   if isinstance(text, str) and (store := _STORE.match(text))}
        resident = tuple(k for k in sorted(written)
                         if live[order[lo]] >> k & 1)
        # The cheapest back-edge path: what every trip pays.
        trip = min((text.charge for _sub, text, target, _d in bodies[lo]
                    if isinstance(text, _Back) and target == lo),
                   default=0.0)
        counted = _counted(bodies[lo], lo, resident)
        w(ind, "if b == %d:" % lo)
        w(ind + 1, "_n = budget if budget > 0 else 1")
        inner = ind + 2 if resident else ind + 1
        if counted:
            k, bound, le, trips, exits = counted
            w(ind + 1, "_m, _k = _trips(l%d, %s, _n, %d)" % (k, bound, le))
        if resident:
            w(ind + 1, "try:")
        if counted:
            if trips:
                w(inner, "for _t in range(_m):")
                # The trip's lines sit one level under the dropped test.
                emit_body(inner, lo, (lo, lo), resident, trip, trips)
            w(inner, "_t = _m")
            w(inner, "l%d = _k" % k)
            w(inner, "if _m < _n:")
            emit_body(inner, lo, (lo, lo), resident, trip, exits, True)
        else:
            w(inner, "for _t in range(_n):")
            emit_body(inner + 1, lo, (lo, lo), resident, trip)
        w(inner, "else:")
        if resident:
            w(inner + 1, write_back(resident))
        w(inner + 1, "return _leave(vm, frame, %d, %s, c + %r * _n, "
          "_TimeSlice()), budget - _n"
          % (order[lo], regs(depths[order[lo]]), trip))
        if resident:
            w(ind + 1, "except BaseException:")
            if counted and counted[3]:
                w(ind + 2, "if _t < _m:")
                w(ind + 3, "l%d = _step(l%d, _t)" % (k, k))
            w(ind + 2, write_back(resident))
            w(ind + 2, "raise")

    def emit_nodes(ind: int, nodes: List, loop: Tuple[int, int]) -> None:
        """A ladder of ``if b == k:`` guards in fall-through order; long
        sibling runs are halved so reaching any node costs O(log n).
        Both halves are guarded (no ``else``): the first falls into the
        second."""
        if len(nodes) > _LADDER_MAX:
            mid = len(nodes) // 2
            node = nodes[mid]
            pivot = node if isinstance(node, int) else node[0]
            w(ind, "if b < %d:" % pivot)
            emit_nodes(ind + 1, nodes[:mid], loop)
            w(ind, "if b >= %d:" % pivot)
            emit_nodes(ind + 1, nodes[mid:], loop)
            return
        for node in nodes:
            if isinstance(node, int):
                w(ind, "if b == %d:" % node)
                emit_body(ind + 1, node, loop)
                continue
            lo, hi, inner = node
            if inner == [lo]:
                emit_collapsed(ind, lo)
            else:
                w(ind, "while %d <= b <= %d:" % (lo, hi))
                emit_nodes(ind + 1, inner, (lo, hi))

    w(0, "_ENTRY = {%s}" % ", ".join(
        "%d: %d" % (pc, bid[pc]) for pc in sorted(entries)))
    w(0, "def _fn(vm, frame, budget):")
    w(1, "b = _ENTRY.get(frame.pc, -1)")
    w(1, "if b < 0:")
    w(2, "return _DEOPT, budget")
    # Every slot is bound on entry, and the registers the resume's
    # stack height names: a chain on ``len(S)`` over the heights some
    # entry has.
    w(1, "S = frame.stack")
    w(1, "L = frame.locals")
    if code.n_locals:
        w(1, "%s, = L" % ", ".join(ld(k) for k in range(code.n_locals)))
    heights = sorted({depths[e] for e in entries} - {0})
    if heights:
        w(1, "if S:")
        for j, d in enumerate(heights):
            if j < len(heights) - 1:
                w(2, "%s len(S) == %d:" % ("elif" if j else "if", d))
            elif j:
                w(2, "else:")
            w(3 if len(heights) > 1 else 2, "%s, = S" % ", ".join(
                "s%d" % i for i in range(d)))
    w(1, "fr = vm.fast_read or _no_fr")
    w(1, "fw = vm.fast_write or _no_fw")
    w(1, "c = 0.0")
    w(1, "try:")
    w(2, "while 1:")
    # The catch-all spans every id, so nothing under it breaks out of it.
    emit_nodes(3, root, (0, len(order) - 1))
    # Same wrap as the interpreter loop: a wild index (array op or a
    # fast-path callback's store access) surfaces as VMError either way.
    w(1, "except IndexError:")
    w(2, 'raise _VMError("VM fault in %s (compiled) near pc=%%d"'
         " %% frame.pc) from None" % code.name)
    return "\n".join(lines) + "\n", tuple(consts)


# ------------------------------------------------------------ program API

def attach_generated(program: CompiledProgram) -> bool:
    """Attach generated source (``Code.gen_src``) to every function of
    an image; all-or-nothing so a compiled caller can never call into
    an uncompiled callee mid-image.  Returns True when attached."""
    generated = []
    try:
        for code in program.funcs:
            generated.append(generate_source(code))
    except NotCompilable:
        return False
    for code, gs in zip(program.funcs, generated):
        code.gen_src = gs
    return True


def _exec(gen_src: Tuple[str, Tuple], name: str):
    """The ``_fn`` of one generated ``(source, constants)``, or None when
    CPython will not compile it."""
    src, consts = gen_src
    ns = dict(_BASE_NS)
    for i, v in enumerate(consts):
        ns["_K%d" % i] = v
    try:
        exec(compile(src, "<repro-compiled:%s>" % name, "exec"), ns)
    except (SyntaxError, RecursionError):
        # RecursionError: CPython's compiler gives up on statements
        # nested too deep, as it rejects other source it cannot take.
        return None
    return ns["_fn"]


def _a_function(code: Code, full, gdecls: Sequence[GlobalDecl]):
    """The callable of one function's A-stream version: ``full``, the
    full version's, when the two texts agree or CPython refuses the A
    text."""
    gs = generate_source(code, "A", gdecls)
    return full if gs == code.gen_src else _exec(gs, code.name) or full


def compiled_functions(program: CompiledProgram,
                       stream: str = "R") -> Optional[List]:
    """exec the attached sources into callables, one per function,
    cached on the program (and rebuilt after unpickling -- the cache is
    dropped by ``CompiledProgram.__getstate__``).  Returns None when
    any function lacks ``gen_src``: the VM keeps the interpreter.

    ``stream="A"`` returns the A-stream versions, generated and exec'd
    on the first call (an image no A-stream runs never pays for them);
    a function whose A-stream text is its full text, or that CPython
    will not compile, is the full version's callable."""
    cache = "_afns" if stream == "A" else "_cfns"
    try:
        return getattr(program, cache)
    except AttributeError:
        pass
    if stream == "A":
        full = compiled_functions(program)
        fns = None if full is None else [
            _a_function(code, fn, program.globals)
            for code, fn in zip(program.funcs, full)]
    else:
        fns = [_exec(code.gen_src, code.name) if code.gen_src else None
               for code in program.funcs]
        if None in fns:
            fns = None
    setattr(program, cache, fns)
    return fns
