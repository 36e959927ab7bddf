"""The ``compile`` hot-path tier: bytecode -> exec-generated Python.

The interpreter's translated-stream dispatch (PR 5) still pays one
linear if/elif scan plus tuple unpacking per executed instruction.
This module removes the fetch/decode/dispatch loop entirely: each
:class:`~repro.compiler.bytecode.Code` object is translated *once* into
the source text of a single Python function, compiled with ``exec``,
and driven by :meth:`VM._run_compiled`.  Straight-line bytecode becomes
straight-line Python over height-indexed virtual stack registers
(``s0, s1, ...``), so CPython's own bytecode does the dispatching.

Control flow follows the loop nest.  The function is cut into basic
blocks at every yield point and branch, numbered in pc order, and the
current block id lives in the local ``b``.  A run of blocks is a
*ladder* of sequential ``if b == k:`` guards in fall-through order, so
a block that falls into the next one costs one compare.  Every natural
loop (a backward ``jump`` or ``lcbsj`` and the id range it spans) is a
native ``while lo <= b <= hi:`` around the ladder of its body: the back
edge is the ``while`` test, an exit is ``b = target`` plus ``break``,
and an iteration never looks at a block outside the loop.  A run of
more than ``_LADDER_MAX`` sibling nodes is halved by ``if b < mid`` /
``if b >= mid`` until it is short.  Around everything stays one
``while 1:``: whatever the structure does not route directly -- a resume
in the middle of a body, a range that does not nest, a loop past
``_MAX_LOOP_NEST`` -- goes round it and finds its block from the top,
so the structure decides speed and never results.

Three mechanisms keep a path through private variables -- the paper's
"control flow and address generation rely mostly on private variables",
which the simulator charges a fixed hit and never simulates -- off the
frame and off the ladder:

* **write-through locals** -- slot *k* of ``frame.locals`` is read as
  the Python local ``l<k>`` and written as ``L[k] = l<k> = expr``.  The
  frame is never stale, so no exit writes anything back, there is no
  dirty set, and a trap in the middle of a block leaves the locals the
  interpreter would have left.  (Writing back at exits instead is
  cheaper per store, but needs a may-dirty set per exit and definite
  assignment for every write-back, and leaves the frame stale at a
  mid-block trap; DESIGN.md section 6 has the sizes.)  What a function
  needs bound on entry comes from a backward liveness pass over the
  block CFG (``_live_in`` over the per-opcode ``_LOCAL_RW`` table).
* **single-predecessor merging** -- a block that no resume enters and
  exactly one edge reaches is emitted where that edge is: inside the
  ``if``/``else`` arm, or after the forward ``jump``.  Its id leaves
  the ladder, and the static charge the predecessor has not yet added
  to ``c`` is carried into it, so a path pays one ``c = c + ...``
  instead of one per block.  ``_MAX_MERGE_NEST`` bounds the nest; the
  block after the cap goes back to the ladder.
* **collapsed loops** -- a loop whose blocks all merged into its header
  is ``while b == lo:`` with the header's body directly under it: no
  guard inside, and the back edge is ``continue`` (``b`` never left
  ``lo``).

Exactness contract (the golden tables must be bit-identical with the
tier on or off):

* **cycles** -- every instruction's static charge (``OP_COST`` plus the
  per-operator ``BINOP_COST`` / per-intrinsic ``ICALL_COST``, exactly
  as :func:`~repro.interp.interpreter._translate` folds them) is
  constant-folded into accumulator updates ``c = c + <sum>``, one per
  ladder block and path through what merged under it (the charges are
  integers, so the sum does not depend on how it is split); event
  returns flush ``vm.pending_cycles += c + <tail>`` just like the
  interpreter flushes its local ``cycles``.  An exception mid-block
  discards the local accumulator in both worlds.
* **yield points** -- shared-memory ops, runtime calls and prints
  return the same event objects in the same order, trying the shell's
  ``fast_read``/``fast_write`` callbacks first; backward jumps decrement
  the same ``MAX_SLICE`` budget and yield ``TimeSlice`` on exhaustion.
* **state sync** -- ``frame.locals`` is current after every store
  (write-through); ``frame.pc``/``frame.stack`` are written back at
  every exit (event return, call/ret frame switch).  Snapshots taken at
  barriers, ``clone``, ``restore``/``corrupt`` and every shell-side
  observer see exactly the state the interpreter would have left.
* **resume** -- the generated function is re-entered through an
  ``_ENTRY`` table mapping resumable pcs (function entry, post-yield,
  post-call, backward-jump targets) to the block id itself when the
  operand stack is empty there and no local is live into the block,
  else to a stub id past the last block; the stubs run once, before the
  ``while 1:``, reload the virtual registers from ``frame.stack`` and
  the live locals from ``frame.locals`` (``l0, l2 = L[0], L[2]``) and
  set ``b``.  An unknown pc returns the ``_DEOPT`` sentinel and the VM
  transparently falls back to the interpreter loop
  (restore/corrupt/armed-fault paths).

Functions whose bytecode the translator cannot prove statically
well-shaped (unreachable-depth conflicts, unknown ops -- in practice
only hand-built test Codes) raise :class:`NotCompilable`, and the
whole program stays on the interpreter: the tier is all-or-nothing per
image, so a partially compiled call chain can never mix conventions.

The generated source is attached to each ``Code`` as ``gen_src`` when
the image is built (see ``compiler.codegen.compile_program``), pickles
with the image into the ``npb/cache.py`` disk layer (the ``compile=``
key flag keeps tier-on and tier-off images apart), and is exec'd
lazily once per process per program.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Set, Tuple

from ..compiler.bytecode import (BINOP_COST, ICALL_COST, OP_COST,
                                 RT_RETURNS, Code, CompiledProgram)
from .events import Done, IoOut, MemRead, MemWrite, RtCall, TimeSlice
from .interpreter import (MISS, VMError, Frame, _DEOPT, _exp, _log,
                          _op_div, _op_mod, _pow, _sqrt)

__all__ = ["NotCompilable", "generate_source", "attach_generated",
           "compiled_functions"]


class NotCompilable(Exception):
    """This Code cannot be translated; the VM keeps the interpreter."""


def _strict() -> bool:
    """Fail loudly instead of falling back (tests set this)."""
    return os.environ.get("REPRO_COMPILE_STRICT") == "1"


def _no_fr(gidx, flat):
    """Stands in for an absent ``vm.fast_read`` hook: always a miss."""
    return MISS


def _no_fw(gidx, flat, value):
    """Stands in for an absent ``vm.fast_write`` hook: never absorbs."""
    return False


# Names the generated code resolves as globals of its exec namespace.
_BASE_NS = {
    "_MISS": MISS, "_no_fr": _no_fr, "_no_fw": _no_fw,
    "_div": _op_div, "_mod": _op_mod,
    "_sqrt": _sqrt, "_exp": _exp, "_log": _log, "_pow": _pow,
    "_floor": math.floor,
    "_Frame": Frame,
    "_MemRead": MemRead, "_MemWrite": MemWrite, "_RtCall": RtCall,
    "_IoOut": IoOut, "_Done": Done, "_TimeSlice": TimeSlice,
    "_VMError": VMError, "_DEOPT": _DEOPT,
}

_ARITH_OPS = frozenset(("+", "-", "*"))
_CMP_OPS = frozenset(("<", "<=", ">", ">=", "==", "!="))

#: Ops that may yield a memory event (block-terminating, resumable).
_MEM_YIELDS = frozenset(("gload", "geload", "gstore", "gestore",
                         "ixge", "cblbge"))
#: Ops that always leave the function (resumable at pc+1).
_LEAVES = frozenset(("rt", "print", "call"))

#: A run of sibling nodes longer than this is halved by ``if b < mid``.
_LADDER_MAX = 8
#: ``while`` loops nested deeper than this are laid out as plain blocks
#: of the innermost emitted loop.  CPython allows 20 statically nested
#: blocks; ``try`` and the catch-all ``while 1:`` take two of them.
_MAX_LOOP_NEST = 8
#: Blocks merged under one ladder block nest at most this deep; the next
#: one goes back to the ladder.  Each level indents by at most one, and
#: CPython's tokenizer stops at 100 levels of indentation.
_MAX_MERGE_NEST = 32

_TERMINAL = _MEM_YIELDS | _LEAVES | frozenset(
    ("jump", "jfalse", "jnone", "cjf", "lcjf", "lljf", "lcbsj", "ret"))


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
    B = BINOP_COST.get
    if op == "binop":
        return OP_COST[op] + B(ins[1], 0)
    if op == "icall":
        name, _n = ins[1]
        return OP_COST[op] + ICALL_COST.get(name, 1)
    one = {"cb": 1, "lb": 1, "cjf": 0, "ll2b": 2, "lcb": 2, "lcbs": 2,
           "llbs": 2, "lcjf": 2, "lljf": 2, "lcbsj": 2}
    if op in one:
        return OP_COST[op] + B(ins[1][one[op]], 0)
    if op in ("cblb", "lbcb", "cblbge"):
        return OP_COST[op] + B(ins[1][1], 0) + B(ins[1][3], 0)
    if op == "lcblb":
        return OP_COST[op] + B(ins[1][2], 0) + B(ins[1][4], 0)
    if op in ("ix", "ixge"):
        a, k1, o1, b, o2, k2, o3, c, o4 = ins[1][:9]
        return OP_COST[op] + sum(B(o, 0) for o in (o1, o2, o3, o4))
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

    if op in ("const", "lload", "ll2b", "lcb", "lcblb", "ix", "gload",
              "ixge"):
        return fall(d + 1)
    if op == "dup":
        need(1)
        return fall(d + 1)
    if op in ("lstore", "pop", "gstore"):
        need(1)
        return fall(d - 1)
    if op in ("llst", "cs", "lcbs", "llbs"):
        return fall(d)
    if op in ("unop", "aload", "cb", "lb", "cblb", "lbcb", "geload",
              "cblbge"):
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
    if op == "cjf":
        need(2)
        return [(arg[1], d - 2), (pc + 1, d - 2)]
    if op in ("lcjf", "lljf"):
        return [(arg[3], d), (pc + 1, d)]
    if op == "lcbsj":
        return [(arg[4], d)]
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
    "llst": ((0,), (1,)), "cs": ((), (1,)),
    "ll2b": ((0, 1), ()), "lcb": ((0,), ()), "lb": ((0,), ()),
    "lcbs": ((0,), (3,)), "llbs": ((0, 1), (3,)),
    "lcjf": ((0,), ()), "lljf": ((0, 1), ()), "lcbsj": ((0,), (3,)),
    "cblb": ((2,), ()), "lbcb": ((0,), ()), "lcblb": ((0, 3), ()),
    "ix": ((0, 3, 7), ()), "ixge": ((0, 3, 7), ()), "cblbge": ((2,), ()),
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
        elif op == "lcbsj" and ins[1][4] <= pc:
            entries.add(ins[1][4])
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
        elif op == "cjf":
            leaders.add(ins[1][1])
            leaders.add(pc + 1)
        elif op in ("lcjf", "lljf"):
            leaders.add(ins[1][3])
            leaders.add(pc + 1)
        elif op == "lcbsj":
            leaders.add(ins[1][4])
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


# --------------------------------------------------------------- emission

def generate_source(code: Code) -> Tuple[str, Tuple]:
    """Translate one Code into ``(python_source, hoisted_constants)``.

    The source defines ``_ENTRY`` (resume-pc -> dispatch id) and
    ``_fn(vm, frame, budget) -> (event_or_None, budget)``; constants
    whose repr does not round-trip (non-finite floats, tuples) are
    hoisted and injected into the exec namespace as ``_K<i>``.
    Raises :class:`NotCompilable` for bytecode the static analysis
    cannot shape.

    A frame local is read as the Python local ``l<k>``, which the entry
    stubs bind from the liveness of the block they enter.  A slot the
    liveness misses is an ``UnboundLocalError`` out of ``vm.run()``:
    the generated code catches ``IndexError`` only and the shell's
    A-stream net does not list ``NameError``, so a hole in
    ``_LOCAL_RW`` is a crash, never a silent deopt or a recovery.
    """
    instrs = code.instrs
    if not instrs:
        raise NotCompilable("empty code object")
    depths = _analyze(instrs)
    entries = _entry_pcs(instrs, depths)
    leaders = _leader_pcs(instrs, depths, entries)
    blocks = {pc: _block_pcs(pc, instrs, leaders) for pc in leaders}

    # Blocks are numbered in pc order, so a loop is a contiguous id
    # range [header, block ending in its last back edge].
    order = sorted(leaders)
    bid = {leader: i for i, leader in enumerate(order)}
    loop_hi: Dict[int, int] = {}             # header id -> last id
    succs: Dict[int, List[int]] = {}         # leader -> successor leaders
    npred = dict.fromkeys(leaders, 0)
    for i, leader in enumerate(order):
        pc = blocks[leader][-1]
        ins = instrs[pc]
        if ins[0] == "jump" and ins[1] < pc:
            loop_hi[bid[ins[1]]] = i
        elif ins[0] == "lcbsj" and ins[1][4] <= pc:
            loop_hi[bid[ins[1][4]]] = i
        succs[leader] = [t for t, _d in _succ(ins, pc, depths[pc])]
        for t in succs[leader]:
            npred[t] += 1
    live = _live_in(instrs, blocks, succs)
    # A block one edge reaches and no resume enters is emitted where
    # that edge is (``goto``); its id never shows in the ladder.
    inline = {pc for pc in leaders if npred[pc] == 1 and pc not in entries}

    consts: List = []

    def lit(v) -> str:
        if v is None or isinstance(v, bool) or isinstance(v, (int, str)):
            return repr(v)
        if isinstance(v, float) and math.isfinite(v):
            return repr(v)
        consts.append(v)             # non-finite float, tuple, ...
        return "_K%d" % (len(consts) - 1)

    def sync(k: int) -> str:
        if k == 0:
            return "del S[:]"
        return "S[:] = (%s,)" % ", ".join("s%d" % i for i in range(k))

    def tup(texts: List[str]) -> str:
        if not texts:
            return "()"
        return "(%s,)" % ", ".join(texts)

    def ld(k: int) -> str:
        return "l%d" % k

    def st(k: int, expr: str) -> str:
        # Write-through: the frame is never stale, so no exit, trap or
        # snapshot has anything to write back.
        return "L[%d] = l%d = %s" % (k, k, expr)

    bodies: Dict[int, List[Tuple[int, str, Optional[int]]]] = {}
    roots = [pc for pc in order if pc not in inline]

    def emit_block(leader: int, out: List[Tuple[int, str, Optional[int]]],
                   ind: int, nest: int, pend: float) -> None:
        """Append the block's lines to ``out`` as ``(indent, text,
        target)``; ``target`` is the block id a ``b = N`` line transfers
        to (None on every other line), so the assembler can tell a loop
        exit from a transfer inside the loop.  ``pend`` is the static
        charge of the blocks this one was merged under (``nest`` of
        them), not yet added to ``c``."""
        pcs = blocks[leader]
        d = depths[leader]
        # (value, truthiness, is a literal or a local name)
        deferred: Optional[Tuple[str, str, bool]] = None

        def w(i: int, text: str) -> None:
            out.append((ind + i, text, None))

        def mat() -> None:
            nonlocal deferred
            if deferred is not None:
                w(0, "s%d = %s" % (d - 1, deferred[0]))
                deferred = None

        def push(full: str, cond: Optional[str] = None,
                 atom: bool = False) -> None:
            nonlocal d, deferred
            assert deferred is None
            deferred = (full, cond if cond is not None else full, atom)
            d += 1

        def pop1() -> Tuple[str, str, bool]:
            nonlocal d, deferred
            d -= 1
            if deferred is not None:
                t = deferred
                deferred = None
                return (t[0], t[1], True)
            return ("s%d" % d, "s%d" % d, False)

        def pop_vals(n: int) -> List[str]:
            """Oldest-first value texts of the top n entries."""
            texts = [pop1()[0] for _ in range(n)]
            texts.reverse()
            return texts

        def flushed(extra: float = 0.0) -> str:
            tot = pend + extra
            return "c" if tot == 0 else "c + %r" % float(tot)

        def flush(i: int) -> None:
            if pend:
                w(i, "c = c + %r" % float(pend))

        def transfer(i: int, target_pc: int) -> None:
            out.append((ind + i, "b = %d" % bid[target_pc], bid[target_pc]))

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
            flush(0)
            w(0, "budget = budget - 1")
            w(0, "if budget <= 0:")
            w(1, "frame.pc = %d" % target_pc)
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + c")
            w(1, "return _TimeSlice(), budget")
            transfer(0, target_pc)           # a resume point: never merged

        def mem_load(pc: int, gidx: int, flat: str) -> None:
            # d is the depth after operand pops, before the result push;
            # the interpreter leaves exactly d entries on the stack when
            # it yields MemRead (push happens on resume via vm.push).
            w(0, "v = fr(%d, %s)" % (gidx, flat))
            w(0, "if v is _MISS:")
            w(1, "frame.pc = %d" % (pc + 1))
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + (%s)" % flushed())
            w(1, "vm._pending_push = True")
            w(1, "return _MemRead(%d, %s), budget" % (gidx, flat))
            w(0, "s%d = v" % d)
            goto(0, pc + 1)

        def mem_store(pc: int, gidx: int, flat: str, val: str) -> None:
            w(0, "if not fw(%d, %s, %s):" % (gidx, flat, val))
            w(1, "frame.pc = %d" % (pc + 1))
            w(1, sync(d))
            w(1, "vm.pending_cycles = vm.pending_cycles + (%s)" % flushed())
            w(1, "return _MemWrite(%d, %s, %s), budget" % (gidx, flat, val))
            goto(0, pc + 1)

        for pc in pcs:
            ins = instrs[pc]
            op = ins[0]
            arg = ins[1] if len(ins) > 1 else None
            pend += _cost(ins)

            if op == "const":
                mat()
                push(lit(arg), atom=True)
            elif op == "lload":
                mat()
                push(ld(arg), atom=True)
            elif op == "lstore":
                t, _c, _df = pop1()
                w(0, st(arg, t))
            elif op == "llst":
                mat()
                w(0, st(arg[1], ld(arg[0])))
            elif op == "cs":
                mat()
                w(0, st(arg[1], lit(arg[0])))
            elif op == "dup":
                mat()
                push("s%d" % (d - 1))
            elif op == "pop":
                t, _c, was_def = pop1()
                if was_def:
                    # The interpreter evaluated this expression when it
                    # was pushed; dropping it unevaluated could skip a
                    # trap (division, wild index) the A-stream relies on.
                    w(0, t)
            elif op == "unop":
                t, _c, _df = pop1()
                if arg == "-":
                    push("(-%s)" % t)
                else:
                    push("(0 if %s else 1)" % t)
            elif op == "unpack2":
                mat()
                t, _c, _df = pop1()
                w(0, "s%d, s%d = %s" % (d, d + 1, t))
                d += 2
            elif op == "binop":
                b_t, a_t = pop1()[0], pop1()[0]
                push(*_bexpr(arg, a_t, b_t))
            elif op == "icall":
                name, n = arg
                if name in ("min", "max"):
                    # Both operands are named twice.  A literal or a
                    # local is pure text; anything else goes through a
                    # stack register first.
                    if deferred is not None and not deferred[2]:
                        mat()
                    a_t, b_t = pop_vals(2)
                    o = "<" if name == "min" else ">"
                    push("(%s if %s %s %s else %s)" % (a_t, a_t, o, b_t, b_t))
                elif name in _ICALL_INLINE:
                    push(_ICALL_INLINE[name] % tuple(pop_vals(n)))
                else:
                    raise NotCompilable("unknown intrinsic %r" % (name,))
            elif op == "aload":
                t, _c, _df = pop1()
                push("%s[%s].item()" % (ld(arg), t))
            elif op == "astore":
                vals = pop_vals(2)           # [flat, value]; only the
                w(0, "%s[%s] = %s" % (ld(arg), vals[0], vals[1]))
                # value can be deferred, and Python evaluates the RHS
                # before the subscripted store -- interpreter order.
            elif op == "ll2b":
                mat()
                push(*_bexpr(arg[2], ld(arg[0]), ld(arg[1])))
            elif op == "cb":
                t, _c, _df = pop1()
                push(*_bexpr(arg[1], t, lit(arg[0])))
            elif op == "lcb":
                mat()
                push(*_bexpr(arg[2], ld(arg[0]), lit(arg[1])))
            elif op == "lb":
                t, _c, _df = pop1()
                push(*_bexpr(arg[1], t, ld(arg[0])))
            elif op == "lcbs":
                mat()
                w(0, st(arg[3], _bexpr(arg[2], ld(arg[0]), lit(arg[1]))[0]))
            elif op == "llbs":
                mat()
                w(0, st(arg[3], _bexpr(arg[2], ld(arg[0]), ld(arg[1]))[0]))
            elif op == "cblb":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, lit(arg[0]))[0]
                push(*_bexpr(arg[3], e1, ld(arg[2])))
            elif op == "lbcb":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, ld(arg[0]))[0]
                push(*_bexpr(arg[3], e1, lit(arg[2])))
            elif op == "lcblb":
                mat()
                e1 = _bexpr(arg[2], ld(arg[0]), lit(arg[1]))[0]
                push(*_bexpr(arg[4], e1, ld(arg[3])))
            elif op in ("ix", "ixge"):
                a, k1, o1, b, o2, k2, o3, cslot, o4 = arg[:9]
                e = _bexpr(o1, ld(a), lit(k1))[0]
                e = _bexpr(o2, e, ld(b))[0]
                e = _bexpr(o3, e, lit(k2))[0]
                e = _bexpr(o4, e, ld(cslot))[0]
                if op == "ix":
                    mat()
                    push(e)
                else:
                    mat()
                    w(0, "x = %s" % e)
                    mem_load(pc, arg[9], "x")
            elif op == "gload":
                mat()
                mem_load(pc, arg, "0")
            elif op == "geload":
                mat()                        # flat is used twice
                t, _c, _df = pop1()
                mem_load(pc, arg, t)
            elif op == "cblbge":
                t, _c, _df = pop1()
                e1 = _bexpr(arg[1], t, lit(arg[0]))[0]
                e = _bexpr(arg[3], e1, ld(arg[2]))[0]
                w(0, "x = %s" % e)
                mem_load(pc, arg[4], "x")
            elif op == "gstore":
                mat()                        # value is used twice
                t, _c, _df = pop1()
                mem_store(pc, arg, "0", t)
            elif op == "gestore":
                mat()
                vals = pop_vals(2)           # [flat, value], both temps
                mem_store(pc, arg, vals[0], vals[1])
            elif op == "jump":
                mat()
                if arg < pc:
                    back_jump(arg)
                else:
                    goto(0, arg)
            elif op == "jfalse":
                _t, cond, _df = pop1()
                cond_jump(cond, pc + 1, arg)
            elif op == "jnone":
                mat()
                w(0, "if s%d is None:" % (d - 1))
                goto(1, arg)
                w(0, "else:")
                goto(1, pc + 1)
            elif op == "cjf":
                b_t, a_t = pop1()[0], pop1()[0]
                cond_jump(_bexpr(arg[0], a_t, b_t)[1], pc + 1, arg[1])
            elif op == "lcjf":
                mat()
                cond = _bexpr(arg[2], ld(arg[0]), lit(arg[1]))[1]
                cond_jump(cond, pc + 1, arg[3])
            elif op == "lljf":
                mat()
                cond = _bexpr(arg[2], ld(arg[0]), ld(arg[1]))[1]
                cond_jump(cond, pc + 1, arg[3])
            elif op == "lcbsj":
                mat()
                w(0, st(arg[3], _bexpr(arg[2], ld(arg[0]), lit(arg[1]))[0]))
                if arg[4] <= pc:
                    back_jump(arg[4])
                else:
                    goto(0, arg[4])
            elif op == "call":
                mat()
                fidx, n = arg
                args = pop_vals(n)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed())
                w(0, "vm.frames.append(_Frame(%d, _FUNCS[%d], %s))"
                  % (fidx, fidx, tup(args)))
                w(0, "return None, budget")
            elif op == "ret":
                mat()
                rv = "s%d" % (d - 1) if d > 0 else "0"
                w(0, "vm.frames.pop()")
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed())
                w(0, "if vm.frames:")
                w(1, "vm.frames[-1].stack.append(%s)" % rv)
                w(1, "return None, budget")
                w(0, "vm.done = True")
                w(0, "vm.result = %s" % rv)
                w(0, "return _Done(%s), budget" % rv)
            elif op == "rt":
                mat()
                name, static, n = arg
                args = pop_vals(n)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed(1.0))
                w(0, "return _RtCall(%s, %s, %s), budget"
                  % (lit(name), lit(static), tup(args)))
            elif op == "print":
                mat()
                args = pop_vals(arg)
                w(0, "frame.pc = %d" % (pc + 1))
                w(0, sync(d))
                w(0, "vm.pending_cycles = vm.pending_cycles + (%s)"
                  % flushed(1.0))
                w(0, "return _IoOut(%s), budget" % tup(args))
            else:
                raise NotCompilable("unknown opcode %r" % (op,))

        if instrs[pcs[-1]][0] not in _TERMINAL:
            # Plain fall-through into the next leader.
            mat()
            goto(0, pcs[-1] + 1)

    # ``roots`` grows while it is walked: a block the nest cap kept out
    # of its arm joins the ladder.
    for leader in roots:
        bodies[bid[leader]] = out = []
        emit_block(leader, out, 0, 0, 0.0)

    # Entry stubs: reload the virtual registers from the synced stack
    # and the locals live into the block from the frame, then dispatch
    # to the block.  An entry that needs neither maps straight to the
    # block id.
    entry_map: Dict[int, int] = {}
    stubs: List[Tuple[int, int]] = []        # (stub id, entry pc)
    for e in sorted(entries):
        if depths[e] == 0 and not live[e]:
            entry_map[e] = bid[e]
        else:
            entry_map[e] = len(order) + len(stubs)
            stubs.append((entry_map[e], e))

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

    def emit_stubs(ind: int, some: List[Tuple[int, int]]) -> None:
        if len(some) > 1:
            mid = len(some) // 2
            w(ind, "if b < %d:" % some[mid][0])
            emit_stubs(ind + 1, some[:mid])
            w(ind, "else:")
            emit_stubs(ind + 1, some[mid:])
            return
        e = some[0][1]
        if depths[e]:
            w(ind, "%s= S" % "".join("s%d, " % i for i in range(depths[e])))
        slots = [k for k in range(live[e].bit_length()) if live[e] >> k & 1]
        if slots:
            w(ind, "%s = %s" % (", ".join(ld(k) for k in slots),
                                ", ".join("L[%d]" % k for k in slots)))
        w(ind, "b = %d" % bid[e])

    def emit_body(ind: int, node: int, loop: Tuple[int, int]) -> None:
        """One ladder block with everything merged under it.  ``loop``
        is the id range of the innermost ``while`` around it: a transfer
        out of that range also breaks, which skips the guards left in
        the ladder.  A range of the block alone is a collapsed loop:
        ``b`` never leaves the header's id, so the back edge is a bare
        ``continue``."""
        collapsed = loop == (node, node)
        for sub, text, target in bodies[node]:
            if collapsed and target == node:
                w(ind + sub, "continue")
                continue
            w(ind + sub, text)
            if target is not None and not loop[0] <= target <= loop[1]:
                w(ind + sub, "break")

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
                # Everything the loop runs merged into its header: the
                # ``while`` test is the only dispatch of an iteration.
                w(ind, "while b == %d:" % lo)
                emit_body(ind + 1, lo, (lo, lo))
            else:
                w(ind, "while %d <= b <= %d:" % (lo, hi))
                emit_nodes(ind + 1, inner, (lo, hi))

    w(0, "_ENTRY = {%s}" % ", ".join(
        "%d: %d" % (pc, i) for pc, i in sorted(entry_map.items())))
    w(0, "def _fn(vm, frame, budget):")
    w(1, "b = _ENTRY.get(frame.pc, -1)")
    w(1, "if b < 0:")
    w(2, "return _DEOPT, budget")
    w(1, "S = frame.stack")
    w(1, "L = frame.locals")
    w(1, "fr = vm.fast_read or _no_fr")
    w(1, "fw = vm.fast_write or _no_fw")
    w(1, "c = 0.0")
    w(1, "try:")
    if stubs:
        w(2, "if b >= %d:" % len(order))
        emit_stubs(3, stubs)
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
        if _strict():
            raise
        return False
    for code, gs in zip(program.funcs, generated):
        code.gen_src = gs
    return True


def compiled_functions(program: CompiledProgram) -> Optional[List]:
    """exec the attached sources into callables, one per function,
    cached on the program (and rebuilt after unpickling -- the cache is
    dropped by ``CompiledProgram.__getstate__``).  Returns None when
    any function lacks ``gen_src``: the VM keeps the interpreter."""
    try:
        return program._cfns
    except AttributeError:
        pass
    fns: List = []
    result: Optional[List] = None
    for code in program.funcs:
        gs = getattr(code, "gen_src", None)
        if gs is None:
            break
        src, consts = gs
        ns = dict(_BASE_NS)
        ns["_FUNCS"] = program.funcs
        for i, v in enumerate(consts):
            ns["_K%d" % i] = v
        try:
            exec(compile(src, "<repro-compiled:%s>" % code.name,
                         "exec"), ns)
        except (SyntaxError, RecursionError):
            # RecursionError: CPython's compiler gives up on statements
            # nested too deep, as it rejects other source it cannot take.
            if _strict():
                raise
            break
        fns.append(ns["_fn"])
    else:
        result = fns
    program._cfns = result
    return result
