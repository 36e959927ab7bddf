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

The pass emits only the base opcodes of ``bytecode``: every consumer
of an image (interpreter, generated code, profiler, ``VM.corrupt``,
disassembler) sees one opcode set.  The generated-code tier builds
whole expressions out of the base stack ops itself (see
``interp.compile``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Set, Tuple

from .bytecode import Code, CompiledProgram

__all__ = ["optimize_code", "optimize_program"]

_JUMPS = ("jump", "jfalse", "jnone")

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
    return {ins[1] for ins in instrs if ins[0] in _JUMPS}


def _remap_branches(out: List[Tuple], remap: Dict[int, int]) -> None:
    """Rewrite every branch target in ``out`` through ``remap``."""
    for k, ins in enumerate(out):
        if ins[0] in _JUMPS:
            out[k] = (ins[0], remap[ins[1]])


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


def optimize_program(program: CompiledProgram) -> int:
    """Optimize every function; returns total instructions removed."""
    return sum(optimize_code(f) for f in program.funcs)
