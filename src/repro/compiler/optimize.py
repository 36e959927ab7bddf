"""Peephole optimizer for the bytecode IR.

Omni is "an optimizing compiler for OpenMP"; our back end gets a small
but real optimization pass: constant folding, branch folding on
constant conditions, and dead push/pop elimination, all performed as a
single linear peephole scan with jump-target remapping.

The pass is semantics-preserving by construction: windows never span a
jump target (every branch target starts a fresh window), and the old->
new index map rewrites every branch.  Mode-independence is unaffected
-- the optimizer runs before the image is sealed, identically for every
execution mode.

A final *superinstruction fusion* pass collapses the dominant
stack-shuffle sequences of the NPB inner loops into single fused
opcodes -- up to whole loop idioms like ``i = i + 1`` (``lcbs``) and
``i < n`` (``lcjf``); see the table in ``bytecode``.  Fusion is
cycle-exact by construction: each fused op charges the exact sum of
its parts, a window never contains a branch target past its first
instruction, and -- so per-line profile totals cannot shift -- only
instructions sharing one source line fuse.
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from .bytecode import Code, CompiledProgram

__all__ = ["optimize_code", "optimize_program", "fuse_code",
           "fuse_program"]

_JUMPS = ("jump", "jfalse", "jnone")

#: Fused ops that carry a branch target, with the target's position in
#: their arg tuple (kept visible to target collection and remapping).
_FUSED_JUMPS = {"cjf": 1, "lcjf": 3, "lljf": 3, "lcbsj": 4}

_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
}


def _fold_div(a, b):
    if b == 0:
        return None                      # leave runtime semantics alone
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _jump_targets(instrs: List[Tuple]) -> Set[int]:
    targets: Set[int] = set()
    for ins in instrs:
        if ins[0] in _JUMPS:
            targets.add(ins[1])
        else:
            pos = _FUSED_JUMPS.get(ins[0])
            if pos is not None:
                targets.add(ins[1][pos])
    return targets


def _remap_branches(out: List[Tuple], remap: Dict[int, int]) -> None:
    """Rewrite every branch target in ``out`` through ``remap``."""
    for k, ins in enumerate(out):
        if ins[0] in _JUMPS:
            out[k] = (ins[0], remap[ins[1]])
        else:
            pos = _FUSED_JUMPS.get(ins[0])
            if pos is not None:
                arg = list(ins[1])
                arg[pos] = remap[arg[pos]]
                out[k] = (ins[0], tuple(arg))


def optimize_code(code: Code, max_passes: int = 4) -> int:
    """Optimize one function in place; returns instructions removed."""
    removed_total = 0
    for _ in range(max_passes):
        removed = _one_pass(code)
        removed_total += removed
        if removed == 0:
            break
    return removed_total


def _one_pass(code: Code) -> int:
    instrs = code.instrs
    targets = _jump_targets(instrs)
    out: List[Tuple] = []
    out_lines: List[int] = []            # kept in lockstep with ``out``
    remap: Dict[int, int] = {}
    i = 0
    n = len(instrs)
    lines = code.lines if len(code.lines) == n else [0] * n

    def is_const(idx_out: int) -> bool:
        """Is out[idx_out] a const not serving as a branch target?"""
        return idx_out >= 0 and out[idx_out][0] == "const"

    while i < n:
        remap[i] = len(out)
        ins = instrs[i]
        op = ins[0]
        barrier = i in targets           # window may not extend over this

        if not barrier and op == "binop" and len(out) >= 2 \
                and is_const(len(out) - 1) and is_const(len(out) - 2) \
                and _window_free(remap, targets, i, 2):
            a = out[-2][1]
            b = out[-1][1]
            o = ins[1]
            folded = None
            if o in _FOLDABLE and not isinstance(a, str) \
                    and not isinstance(b, str):
                folded = _FOLDABLE[o](a, b)
            elif o == "/" and not isinstance(a, str) \
                    and not isinstance(b, str):
                folded = _fold_div(a, b)
            if folded is not None and _finite(folded):
                out.pop()
                out.pop()
                out.append(("const", folded))
                out_lines.pop()
                out_lines.pop()
                out_lines.append(lines[i])
                i += 1
                continue

        if not barrier and op == "unop" and ins[1] == "-" and out \
                and is_const(len(out) - 1) \
                and not isinstance(out[-1][1], str) \
                and _window_free(remap, targets, i, 1):
            v = out.pop()[1]
            out.append(("const", -v))
            out_lines[-1] = lines[i]
            i += 1
            continue

        if not barrier and op == "pop" and out \
                and out[-1][0] in ("const", "dup", "lload") \
                and _window_free(remap, targets, i, 1):
            # push immediately discarded
            out.pop()
            out_lines.pop()
            i += 1
            continue

        if not barrier and op == "jfalse" and out \
                and is_const(len(out) - 1) \
                and _window_free(remap, targets, i, 1):
            cond = out.pop()[1]
            out_lines.pop()
            if cond:
                pass                      # never taken: drop both
            else:
                out.append(("jump", ins[1]))
                out_lines.append(lines[i])
            i += 1
            continue

        out.append(ins)
        out_lines.append(lines[i])
        i += 1

    remap[n] = len(out)                  # branches may point past the end
    _remap_branches(out, remap)
    removed = len(instrs) - len(out)
    code.instrs[:] = out
    code.lines[:] = out_lines
    return removed


def _window_free(remap: Dict[int, int], targets: Set[int],
                 upto_old: int, window: int) -> bool:
    """The last ``window`` emitted instructions must not correspond to
    any branch target (else collapsing them would break a jump)."""
    floor = remap[upto_old] - window
    for t in targets:
        if t in remap and floor <= remap[t] < remap[upto_old]:
            return False
        if t not in remap and t < upto_old:
            # Target inside the window's source range not yet remapped
            # can't happen (remap is filled in order), but be safe.
            return False
    return True


def _finite(v) -> bool:
    try:
        return not isinstance(v, float) or math.isfinite(v)
    except TypeError:
        return False


#: Operators eligible for fusion -- exactly the interpreter's binop set.
_FUSABLE = frozenset(
    {"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="})


def fuse_code(code: Code) -> int:
    """Fuse superinstruction windows in one function, in place.

    Greedy longest-match left-to-right over the (already peephole-
    optimized) stream.  4-wide windows capture whole loop idioms
    (``lload; const; binop; lstore`` -> ``lcbs``, ``lload; const;
    binop; jfalse`` -> ``lcjf``, and their two-local twins ``llbs``/
    ``lljf``); 3-wide fuse a load pair into its binop (``lcb``/
    ``ll2b``); 2-wide mop up the rest (``lb``/``cb``/``llst``/``cjf``).
    A window fuses only when no branch targets its interior and all
    its instructions carry the same source line (so per-line profile
    totals cannot shift).  Returns the number of instructions
    eliminated."""
    instrs = code.instrs
    n = len(instrs)
    targets = _jump_targets(instrs)
    lines = code.lines if len(code.lines) == n else [0] * n
    out: List[Tuple] = []
    out_lines: List[int] = []
    remap: Dict[int, int] = {}
    i = 0

    def window_ok(width: int) -> bool:
        if i + width > n:
            return False
        ln = lines[i]
        for j in range(i + 1, i + width):
            if j in targets or lines[j] != ln:
                return False
        return True

    while i < n:
        remap[i] = len(out)
        ins = instrs[i]
        op = ins[0]
        ln = lines[i]
        fused = None
        width = 0
        if op == "lload":
            if window_ok(10) or window_ok(9):
                o = instrs
                if (o[i + 1][0] == "const" and o[i + 2][0] == "binop"
                        and o[i + 2][1] in _FUSABLE
                        and o[i + 3][0] == "lload"
                        and o[i + 4][0] == "binop"
                        and o[i + 4][1] in _FUSABLE
                        and o[i + 5][0] == "const"
                        and o[i + 6][0] == "binop"
                        and o[i + 6][1] in _FUSABLE
                        and o[i + 7][0] == "lload"
                        and o[i + 8][0] == "binop"
                        and o[i + 8][1] in _FUSABLE):
                    poly = (ins[1], o[i + 1][1], o[i + 2][1], o[i + 3][1],
                            o[i + 4][1], o[i + 5][1], o[i + 6][1],
                            o[i + 7][1], o[i + 8][1])
                    if window_ok(10) and o[i + 9][0] == "geload":
                        fused = ("ixge", poly + (o[i + 9][1],))
                        width = 10
                    elif window_ok(9):
                        fused = ("ix", poly)
                        width = 9
            if fused is None and window_ok(5):
                o1, o2, o3, o4 = (instrs[i + 1], instrs[i + 2],
                                  instrs[i + 3], instrs[i + 4])
                if o1[0] == "const" and o2[0] == "binop" \
                        and o2[1] in _FUSABLE:
                    if o3[0] == "lstore" and o4[0] == "jump":
                        fused = ("lcbsj",
                                 (ins[1], o1[1], o2[1], o3[1], o4[1]))
                        width = 5
                    elif o3[0] == "lload" and o4[0] == "binop" \
                            and o4[1] in _FUSABLE:
                        fused = ("lcblb",
                                 (ins[1], o1[1], o2[1], o3[1], o4[1]))
                        width = 5
            if fused is None and window_ok(4):
                o1, o2, o3 = instrs[i + 1], instrs[i + 2], instrs[i + 3]
                if o2[0] == "binop" and o2[1] in _FUSABLE \
                        and o3[0] in ("lstore", "jfalse"):
                    store = o3[0] == "lstore"
                    if o1[0] == "const":
                        fused = ("lcbs" if store else "lcjf",
                                 (ins[1], o1[1], o2[1], o3[1]))
                        width = 4
                    elif o1[0] == "lload":
                        fused = ("llbs" if store else "lljf",
                                 (ins[1], o1[1], o2[1], o3[1]))
                        width = 4
                elif o1[0] == "binop" and o1[1] in _FUSABLE \
                        and o2[0] == "const" and o3[0] == "binop" \
                        and o3[1] in _FUSABLE:
                    fused = ("lbcb", (ins[1], o1[1], o2[1], o3[1]))
                    width = 4
            if fused is None and window_ok(3):
                o1, o2 = instrs[i + 1], instrs[i + 2]
                if o2[0] == "binop" and o2[1] in _FUSABLE:
                    if o1[0] == "const":
                        fused = ("lcb", (ins[1], o1[1], o2[1]))
                        width = 3
                    elif o1[0] == "lload":
                        fused = ("ll2b", (ins[1], o1[1], o2[1]))
                        width = 3
            if fused is None and window_ok(2):
                o1 = instrs[i + 1]
                if o1[0] == "binop" and o1[1] in _FUSABLE:
                    fused = ("lb", (ins[1], o1[1]))
                    width = 2
                elif o1[0] == "lstore":
                    fused = ("llst", (ins[1], o1[1]))
                    width = 2
        elif op == "const":
            if window_ok(4):
                o1, o2, o3 = instrs[i + 1], instrs[i + 2], instrs[i + 3]
                if o1[0] == "binop" and o1[1] in _FUSABLE \
                        and o2[0] == "lload" and o3[0] == "binop" \
                        and o3[1] in _FUSABLE:
                    if window_ok(5) and instrs[i + 4][0] == "geload":
                        fused = ("cblbge", (ins[1], o1[1], o2[1], o3[1],
                                            instrs[i + 4][1]))
                        width = 5
                    else:
                        fused = ("cblb", (ins[1], o1[1], o2[1], o3[1]))
                        width = 4
            if fused is None and window_ok(2):
                o1 = instrs[i + 1]
                if o1[0] == "binop" and o1[1] in _FUSABLE:
                    fused = ("cb", (ins[1], o1[1]))
                    width = 2
                elif o1[0] == "lstore":
                    fused = ("cs", (ins[1], o1[1]))
                    width = 2
        elif op == "binop" and ins[1] in _FUSABLE:
            if window_ok(2) and instrs[i + 1][0] == "jfalse":
                fused = ("cjf", (ins[1], instrs[i + 1][1]))
                width = 2
        if fused is not None:
            out.append(fused)
            out_lines.append(ln)
            i += width
        else:
            out.append(ins)
            out_lines.append(ln)
            i += 1
    remap[n] = len(out)                  # branches may point past the end
    _remap_branches(out, remap)
    code.instrs[:] = out
    code.lines[:] = out_lines
    return n - len(out)


def fuse_program(program: CompiledProgram) -> int:
    """Fuse every function; returns total instructions eliminated."""
    return sum(fuse_code(f) for f in program.funcs)


def optimize_program(program: CompiledProgram) -> int:
    """Optimize every function; returns total instructions removed.

    Superinstruction fusion runs last, over the fully peephole-
    optimized stream."""
    removed = sum(optimize_code(f) for f in program.funcs)
    return removed + fuse_program(program)
