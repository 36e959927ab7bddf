"""Generated code (``REPRO_HOTPATH`` token ``compile``, the default):
the exec'd functions must be observationally identical to the reference
interpreter loop.

The contract under test is *bit-identity of the event/cycle stream*:
for any program, driving a VM whose Codes run as generated Python
functions must produce exactly the same sequence of events -- same
types, same payloads, and same ``take_cycles()`` reading at every
yield point -- as the tuple-dispatch interpreter, plus the same final
memory image and, at every event, the same frames (pc, operand stack,
locals: generated code keeps locals in Python locals and writes every
store through to the frame, except that a collapsed loop writes its
resident slots back where it exits).  A seeded random-program sweep
covers the combinatorial space; directed tests pin liveness (what a
resume must reload), the deopt edges (restore, corrupt, armed faults,
profiling, wild pc) where the tier must step aside without perturbing
a single cycle, and the shape of the emitted code.
"""

import random
import re
import sys

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.compiler.bytecode import OP_COST, Code
from repro.compiler.optimize import optimize_code
from repro.config import PAPER_MACHINE
from repro.harness import RunSpec, execute_spec
from repro.hotpath import reset_for_tests
from repro.interp import (VM, Done, FunctionalRunner, IoOut, MemRead,
                          MemWrite, RtCall)
from repro.interp.compile import (_LOCAL_RW, NotCompilable, _local_rw,
                                  attach_generated, generate_source)
from repro.interp.events import TimeSlice
from repro.interp.interpreter import MISS, VMError
from repro.obs.profile import TrackProfile

from .test_examples_sources import EXAMPLES, load

# ------------------------------------------------------------ random SlipC

N_ARR = 16


def _iexpr(rng, depth):
    """A terminating int expression over loop counter i and scratch j."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(["i", "j", str(rng.randint(0, 9))])
    a, b = _iexpr(rng, depth - 1), _iexpr(rng, depth - 1)
    op = rng.choice(["+", "-", "*", "%"])
    if op == "%":
        b = str(rng.randint(2, 7))           # nonzero literal divisor
    return f"({a} {op} {b})"


MAIN_LEAVES = ("x", "y", "i", "j", f"arr[i % {N_ARR}]")


def _dexpr(rng, depth, leaves=MAIN_LEAVES):
    """A double expression; division only by nonzero literals and no
    raw sqrt/log of possibly-negative values, so no NaNs or traps --
    traces stay comparable with plain ``==``."""
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(list(leaves) + ["%.2f" % rng.uniform(-4, 4)])
    kind = rng.random()
    a = _dexpr(rng, depth - 1, leaves)
    b = _dexpr(rng, depth - 1, leaves)
    if kind < 0.15:
        return f"min({a}, {b})"
    if kind < 0.3:
        return f"max({a}, {b})"
    if kind < 0.4:
        return f"fabs({a})"
    if kind < 0.5:
        return f"sqrt(fabs({a}))"
    if kind < 0.6:
        return f"(-{a})"
    if kind < 0.7:
        return "({} / {:.2f})".format(a, rng.uniform(1.0, 5.0))
    return f"({a} {rng.choice(['+', '-', '*'])} {b})"


def _clamp(e):
    """Stored values stay bounded however often a nest repeats the
    statement: no overflow to inf, so no NaN further on."""
    return f"min(max({e}, -99.5), 99.5)"


def _stmt(rng, depth=2):
    r = rng.random()
    if r < 0.2:
        return f"x = {_clamp(_dexpr(rng, depth))};"
    if r < 0.35:
        return f"y = {_clamp(f'f0({_dexpr(rng, 1)}, {_dexpr(rng, 1)})')};"
    if r < 0.5:
        return f"j = {_iexpr(rng, depth)} % 1000;"
    if r < 0.65:
        return f"arr[i % {N_ARR}] = {_clamp(_dexpr(rng, depth))};"
    if r < 0.78:
        return f"ga = ga + {_dexpr(rng, 1)};"
    if r < 0.88:
        cmp = rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return (f"if ({_dexpr(rng, 1)} {cmp} {_dexpr(rng, 1)}) "
                f"{{ {_stmt(rng, 1)} }} else {{ {_stmt(rng, 1)} }}")
    return "gb = j;"


LOOP_VARS = ("i", "k", "m")                 # one counter per nest level


def _loop(rng, level=0, depth=1):
    """One ``while`` or ``for`` loop over ``LOOP_VARS[level]`` with up to
    ``depth`` levels in all, sometimes left early by ``break`` or cut
    short by ``continue`` (which steps the counter first in a ``while``,
    so every loop terminates)."""
    v = LOOP_VARS[level]
    use_for = rng.random() < 0.5
    step = f"{v} = {v} + 1"
    body = [_stmt(rng) for _ in range(rng.randint(1, 3))]
    if depth > 1 and rng.random() < 0.7:
        body.insert(rng.randint(0, len(body)),
                    _loop(rng, level + 1, depth - 1))
    r = rng.random()
    if r < 0.2:
        body.insert(rng.randint(0, len(body)),
                    f"if ({v} == {rng.randint(1, 4)}) {{ break; }}")
    elif r < 0.4:
        skip = "continue;" if use_for else f"{step}; continue;"
        body.insert(rng.randint(0, len(body)),
                    f"if ({v} == {rng.randint(0, 3)}) {{ {skip} }}")
    inner = "\n        ".join(body)
    bound = rng.randint(2, 6)
    if use_for:
        return f"""
    for ({v} = 0; {v} < {bound}; {step}) {{
        {inner}
    }}"""
    return f"""
    {v} = 0;
    while ({v} < {bound}) {{
        {inner}
        {step};
    }}"""


def make_program(seed):
    rng = random.Random(seed)
    body = []
    for _ in range(rng.randint(2, 4)):
        body.append(_stmt(rng))
    loops = [_loop(rng, depth=rng.randint(1, 3))
             for _ in range(rng.choice((1, 2, 3, 3, 5, 9, 17, 40)))]
    return f"""
double ga;
int gb;
double arr[{N_ARR}];

double f0(double a, double b) {{
    double r;
    r = {_dexpr(rng, 2, leaves=("a", "b"))};
    return r + min(a, b);
}}

void main() {{
    int i;
    int k;
    int m;
    int j;
    double x;
    double y;
    i = 0;
    j = {rng.randint(0, 5)};
    x = 0.5;
    y = -1.25;
    {' '.join(body)}
    {''.join(loops)}
    print(ga, gb, x, y, j);
}}
"""


# ------------------------------------------------------------------ driver

def new_store(prog):
    store = {}
    for g in prog.globals:
        store[g.index] = [0.0] * g.size if g.dims else (g.init or 0)
    return store


class DictStore:
    """``new_store``'s dict behind ``GlobalStore``'s ``read``/``write``,
    so the functional runner's team-of-one runtime can serve ``drive``."""

    def __init__(self, prog):
        self.data = new_store(prog)

    def read(self, g, flat):
        v = self.data[g]
        return v[flat] if isinstance(v, list) else v

    def write(self, g, flat, val):
        v = self.data[g]
        if isinstance(v, list):
            v[flat] = val
        else:
            self.data[g] = val


def frame_state(vm):
    """Every live frame as plain values: ``(fidx, pc, stack, locals)``,
    private arrays by value."""
    return tuple(
        (f.fidx, f.pc, tuple(f.stack),
         tuple(v.tolist() if isinstance(v, np.ndarray) else v
               for v in f.locals))
        for f in vm.frames)


def drive(prog, compiled, fast=False, frames=True):
    """Run to Done, logging every event with its cycles and -- unless
    the runs compared are of two different images -- the state of every
    frame at the event; optionally with fast-path hooks that hit on even
    flat indices and miss on odd.  Runtime calls are served as a team of
    one by the functional runner."""
    vm = VM(prog, prog.main_index)
    if not compiled:
        vm.disable_compiled()
    rt = FunctionalRunner(prog)
    rt.store = store = DictStore(prog)
    if fast:
        def fast_read(g, flat):
            return store.read(g, flat) if flat % 2 == 0 else MISS

        def fast_write(g, flat, val):
            if flat % 2:
                return False
            store.write(g, flat, val)
            return True
        vm.fast_read = fast_read
        vm.fast_write = fast_write
    trace = []
    for _ in range(200_000):
        ev = vm.run()
        at = (vm.take_cycles(),)
        if frames:
            at += (frame_state(vm),)
        k = type(ev)
        if k is MemRead:
            trace.append(("R", ev.gidx, ev.flat) + at)
            vm.push(store.read(ev.gidx, ev.flat))
        elif k is MemWrite:
            trace.append(("W", ev.gidx, ev.flat, ev.value) + at)
            store.write(ev.gidx, ev.flat, ev.value)
        elif k is IoOut:
            trace.append(("IO", ev.values) + at)
        elif k is TimeSlice:
            trace.append(("TS",) + at)
        elif k is RtCall:
            trace.append(("RT", ev.name, ev.args) + at)
            rt._rt(vm, ev, 0)
        elif k is Done:
            trace.append(("DONE", ev.value) + at)
            return trace, store.data, vm
    raise AssertionError("program did not terminate")


def assert_same_drive(run_a, run_b, a_vs_b):
    """Two ``drive`` results: equal events, cycles and frames, equal
    stores."""
    (t_a, s_a, _), (t_b, s_b, _) = run_a, run_b
    for n, (a, b) in enumerate(zip(t_a, t_b)):
        assert a == b, f"event {n} diverged, {a_vs_b}: {a} vs {b}"
    assert len(t_a) == len(t_b), a_vs_b
    assert s_a == s_b, a_vs_b


def assert_same_run(prog, fast=False):
    """Returns the VM of the compiled run."""
    interp = drive(prog, compiled=False, fast=fast)
    compiled = drive(prog, compiled=True, fast=fast)
    assert_same_drive(interp, compiled, "interp vs compiled")
    return compiled[2]


def _ops(prog):
    return {ins[0] for code in prog.funcs for ins in code.instrs}


def compile_unfused(src):
    """The image ``compile_source`` built before fusion existed: the
    peephole pass alone, generated code attached over that stream."""
    prog = compile_source(src, optimize=False)
    unfused_ops = _ops(prog)
    for code in prog.funcs:
        optimize_code(code)
    assert _ops(prog) <= unfused_ops        # no op codegen does not emit
    assert attach_generated(prog)
    return prog


# ------------------------------------------------------- property sweep

@pytest.mark.parametrize("seed", range(30))
def test_random_programs_identical_streams(seed, monkeypatch):
    """Seeded random programs: identical (event, cycles) streams and
    final stores, with and without the uncontended fast path."""
    src = make_program(seed)
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(src)
    assert all(f.gen_src is not None for f in prog.funcs)
    assert_same_run(prog, fast=False)
    assert_same_run(prog, fast=True)


@pytest.mark.parametrize("max_slice", [3, 7, 11])
@pytest.mark.parametrize("seed", range(30))
def test_random_programs_identical_under_short_slices(seed, max_slice,
                                                      monkeypatch):
    """The same sweep with a slice budget of a few backward jumps, so
    ``TimeSlice`` resumes land on every loop header of every nest, and
    with the even-hit/odd-miss hooks, so memory resumes enter loop
    bodies in the middle of a ladder."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    monkeypatch.setattr(VM, "MAX_SLICE", max_slice)
    prog = compile_source(make_program(seed))
    assert_same_run(prog, fast=False)
    assert_same_run(prog, fast=True)


@pytest.mark.parametrize("seed", [0, 3, 6, 9, 12])
def test_random_programs_identical_without_fusion(seed, monkeypatch):
    """Same property on unfused opcode streams: the generated code's
    cost folding must match the pre-fusion translation too."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_unfused(make_program(seed))
    assert all(f.gen_src is not None for f in prog.funcs)
    assert_same_run(prog, fast=False)
    assert_same_run(prog, fast=True)


_DEFAULT_SLICE = VM.MAX_SLICE


@pytest.mark.parametrize("max_slice", [_DEFAULT_SLICE, 3, 7, 11])
def test_fused_and_unfused_streams_agree_on_the_interpreter(max_slice,
                                                            monkeypatch):
    """Fusion exactness, on the reference interpreter: the same events
    (``TimeSlice`` included), the same cycles between events (each
    entry's ``take_cycles()`` reading) and the same final store from
    the fused and the unfused image of one program -- at the default
    slice budget and at budgets of a few backward jumps, where
    ``lcbsj`` must spend the budget of the back edge it absorbed."""
    monkeypatch.setattr(VM, "MAX_SLICE", max_slice)
    slices = 0
    for seed in range(30):
        src = make_program(seed)
        fused, unfused = compile_source(src), compile_unfused(src)
        assert "lcbsj" in _ops(fused) - _ops(unfused)
        for fast in (False, True):
            run = drive(fused, compiled=False, fast=fast, frames=False)
            assert_same_drive(run, drive(unfused, compiled=False, fast=fast,
                                         frames=False),
                              f"seed {seed}, fused vs unfused")
            slices += sum(ev[0] == "TS" for ev in run[0])
    assert (slices > 0) == (max_slice != _DEFAULT_SLICE)


# -------------------------------------------------------- directed deopt

SRC_LOOP = f"""
double ga;
double arr[{N_ARR}];
void main() {{
    int i;
    i = 0;
    while (i < {N_ARR}) {{
        arr[i] = i * 2.5;
        ga = ga + arr[i];
        i = i + 1;
    }}
    print(ga);
}}
"""


def test_compiled_tier_attaches_and_activates():
    prog = compile_source(SRC_LOOP)
    assert all(f.gen_src is not None for f in prog.funcs)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None


def test_tier_off_means_no_gen_src_and_interpreter(monkeypatch):
    monkeypatch.setenv("REPRO_HOTPATH", "")
    reset_for_tests()
    prog = compile_source(SRC_LOOP)
    assert all(f.gen_src is None for f in prog.funcs)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is None
    t, s, _ = drive(prog, compiled=False)
    assert t[-1][0] == "DONE"


def test_image_without_gen_src_falls_back(monkeypatch):
    """A compile-tier process handed an image built with the tier off
    (stale pickle, foreign producer) must run it interpreted -- the
    all-or-nothing gate returns None, never a partial table."""
    monkeypatch.setenv("REPRO_HOTPATH", "")
    reset_for_tests()
    prog = compile_source(SRC_LOOP)
    monkeypatch.delenv("REPRO_HOTPATH")
    reset_for_tests()
    vm = VM(prog, prog.main_index)          # tier on, but no gen_src
    assert vm._cfns is None
    t, _, _ = drive(prog, compiled=False)
    assert t[-1][0] == "DONE"


def _run_to_nth_write(vm, store, n):
    writes = 0
    while True:
        ev = vm.run()
        vm.take_cycles()
        if isinstance(ev, MemRead):
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif isinstance(ev, MemWrite):
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
            writes += 1
            if writes == n:
                return ev


def test_restore_deopts_and_replays_exactly():
    """Snapshot mid-run under the compiled tier, restore, finish: the
    VM drops to the interpreter for good and the replayed tail matches
    a never-compiled run bit for bit."""
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    store = new_store(prog)
    _run_to_nth_write(vm, store, 5)
    snap = vm.snapshot()
    snap_store = {k: (list(v) if isinstance(v, list) else v)
                  for k, v in store.items()}
    vm.restore(snap)
    assert vm._cfns is None                 # permanent deopt

    # Reference: an interpreter-only VM advanced to the same point.
    ref = VM(prog, prog.main_index)
    ref.disable_compiled()
    ref_store = new_store(prog)
    _run_to_nth_write(ref, ref_store, 5)
    # Generated code wrote every local through: the snapshot it was
    # interrupted for holds what the interpreter's holds.
    assert ([(f.pc, f.stack, f.locals) for f in snap]
            == [(f.pc, f.stack, f.locals) for f in ref.snapshot()])
    ref.restore(ref.snapshot())

    def finish(v, st):
        tail = []
        while True:
            ev = v.run()
            c = v.take_cycles()
            if isinstance(ev, MemRead):
                val = st[ev.gidx]
                v.push(val[ev.flat] if isinstance(val, list) else val)
                tail.append(("R", ev.gidx, ev.flat, c))
            elif isinstance(ev, MemWrite):
                val = st[ev.gidx]
                if isinstance(val, list):
                    val[ev.flat] = ev.value
                else:
                    st[ev.gidx] = ev.value
                tail.append(("W", ev.gidx, ev.flat, ev.value, c))
            elif isinstance(ev, IoOut):
                tail.append(("IO", ev.values, c))
            elif isinstance(ev, Done):
                tail.append(("DONE", c))
                return tail

    assert finish(vm, snap_store) == finish(ref, ref_store)


def test_corrupt_deopts():
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    store = new_store(prog)
    _run_to_nth_write(vm, store, 2)
    assert vm.corrupt((0, 999.0)) is not None
    assert vm._cfns is None


def test_profile_binding_takes_priority():
    """A profiling VM must interpret even with compiled functions
    attached -- and tally the same busy cycles."""
    prog = compile_source(SRC_LOOP)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None
    TrackProfile("T0").bind_vm(vm)
    t_p, s_p, _ = _drive_bound(vm, prog)
    t_c, s_c, _ = drive(prog, compiled=True, frames=False)
    assert t_p == t_c and s_p == s_c
    assert vm.profile and sum(vm.profile.values()) > 0


def _drive_bound(vm, prog):
    store = new_store(prog)
    trace = []
    while True:
        ev = vm.run()
        c = vm.take_cycles()
        if isinstance(ev, MemRead):
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
            trace.append(("R", ev.gidx, ev.flat, c))
        elif isinstance(ev, MemWrite):
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
            trace.append(("W", ev.gidx, ev.flat, ev.value, c))
        elif isinstance(ev, IoOut):
            trace.append(("IO", ev.values, c))
        elif isinstance(ev, Done):
            trace.append(("DONE", ev.value, c))
            return trace, store, vm


def test_wild_pc_faults_like_interpreter():
    """A pc the generated code has no entry for deopts to the
    interpreter, which raises its usual VMError -- no KeyError or
    silent miscompile from the dispatch table."""
    prog = compile_source(SRC_LOOP)
    for compiled in (True, False):
        vm = VM(prog, prog.main_index)
        if not compiled:
            vm.disable_compiled()
        vm.frames[-1].pc = 10 ** 6
        with pytest.raises(VMError):
            vm.run()


def _crash(prog, compiled):
    """Run until the VM traps: the message, and (exception type, cycles
    flushed, the top frame's locals as the trap left them)."""
    vm = VM(prog, prog.main_index)
    if not compiled:
        vm.disable_compiled()
    store = DictStore(prog)
    try:
        while True:
            ev = vm.run()
            if isinstance(ev, MemRead):
                vm.push(store.read(ev.gidx, ev.flat))
            elif isinstance(ev, MemWrite):
                store.write(ev.gidx, ev.flat, ev.value)
            elif isinstance(ev, Done):
                raise AssertionError("ran to Done")
    except VMError as e:
        return str(e), (type(e), vm.pending_cycles, frame_state(vm)[-1][3])


def test_division_trap_identical():
    """``a = 9`` and the trapping division run in one block, after the
    resume from the load of ``z``: the frame must hold the 9 at the trap
    (generated code writes stores through; writing back at exits would
    leave the 7)."""
    src = ("int z;\nvoid main() { int a; int b; a = 7; z = 0; b = z; "
           "a = 9; a = a / b; }")
    prog = compile_source(src)
    assert _crash(prog, True) == _crash(prog, False)
    message, (_kind, _cycles, locs) = _crash(prog, True)
    assert "division by zero" in message and locs == (9, 0)


def test_wild_index_trap_identical():
    """A private-array index past the end is an ``IndexError`` inside
    both loops and a ``VMError`` out of both (each with its own
    message), with ``x = 3.5`` -- stored earlier in the trapping block
    -- in the frame."""
    src = ("int z;\nvoid main() { int i; double x; double p[4]; x = 1.5; "
           "i = z; x = 3.5; p[i + 100] = x; }")
    prog = compile_source(src)
    state = _crash(prog, True)[1]
    assert state == _crash(prog, False)[1]
    assert state[0] is VMError and state[2] == (0, 3.5, [0.0] * 4)


def test_trap_mid_trip_of_a_collapsed_loop_identical():
    """An int division by a private that reaches 0 traps in the third
    trip of a loop over private scalars, after ``a`` and ``d`` were
    written earlier in that trip.  The loop keeps them in Python locals
    only; the handler around it writes them back before the trap leaves,
    so the frame holds what the interpreter's holds, not their values
    from before the loop."""
    src = ("int z;\nvoid main() { int a; int d; int k; int q; a = 1; d = 3; "
           "k = 0; q = 0; z = 0; while (k < 9) { a = a + 5; d = d - 1; "
           "q = q + 12 / d; k = k + 1; } z = q; }")
    prog = compile_source(src)
    assert "except BaseException:" in prog.funcs[prog.main_index].gen_src[0]
    assert _crash(prog, True) == _crash(prog, False)
    message, (_kind, _cycles, locs) = _crash(prog, True)
    assert "division by zero" in message and locs == (16, 0, 2, 18)


# ------------------------------------------------------------- liveness
#
# Generated code reads a frame local as the Python local ``l<k>``, bound
# by the entry stub of the block a resume enters from that block's live
# set.  The odd-index misses of ``drive(fast=True)`` put resumes in the
# middle of a chain, so a slot the liveness pass lost is an
# ``UnboundLocalError`` here (nothing on the way catches it), and a slot
# it reloads stale is a frame or event mismatch.

_LIVENESS_CASES = {
    # t is read before any write while i <= 2: the frame's initial 0.
    "read-before-write-on-one-path": """
        int i; int t;
        i = 0;
        while (i < 6) {
            if (i > 2) { t = i * 3; }
            ga = ga + arr[i] + t;
            i = i + 1;
        }
        print(ga, t);""",
    # x is written in one arm only; the join is followed by a load that
    # misses on odd i, and x is read after the resume.
    "written-in-one-arm-read-after-a-missed-access": """
        int i; double x; double y;
        i = 0; x = 0.25;
        while (i < 6) {
            if (i % 3 == 0) { x = arr[i] + i; }
            y = arr[i + 1];
            ga = ga + x * y;
            arr[i] = x + 1.0;
            i = i + 1;
        }
        print(ga, x);""",
    "live-across-a-call-and-a-barrier": """
        int i; double x; double y;
        x = 1.5; i = 3;
        y = f0(x, 2.0) + x;
        #pragma omp barrier
        ga = ga + x + y + i;
        y = f0(y, x);
        #pragma omp barrier
        print(ga, x, y, i);""",
    # lcbs / lcbsj read the slot they write.
    "increment-of-one-slot": """
        int i; int n;
        n = 0;
        for (i = 0; i < 5; i = i + 1) {
            n = n + 1;
            arr[i] = n;
            n = n + 2;
        }
        print(n, i);""",
    # t is written before any read in a trip, so it is not live at the
    # header of the collapsed loop and stays write-through there; the
    # loop leaves through a shared store that misses, and t is read
    # after the resume.
    "written-in-a-collapsed-loop-read-after-it": """
        int i; double t; double x;
        i = 0; x = 0.5;
        for (;;) {
            t = x * 2.0;
            x = t - x * 0.75;
            i = i + 1;
            if (i >= 5) { break; }
        }
        arr[3] = x + t;
        print(t, x, i);""",
    # The same loop shape run for no trip: t is never bound, so a
    # write-back that named it would raise at the exit.
    "written-in-a-collapsed-loop-that-runs-no-trip": """
        int i; double t; double x;
        i = 7; x = 0.5;
        while (i < 5) {
            t = x * 2.0;
            x = t - x * 0.75;
            i = i + 1;
        }
        arr[3] = x;
        print(x, i);""",
    # aload / astore read the array reference out of the slot.
    "private-array": """
        int i; double p[4];
        for (i = 0; i < 9; i = i + 1) {
            p[i % 4] = p[(i + 1) % 4] + arr[i];
            ga = ga + p[i % 4];
        }
        print(ga, p[0], p[3]);""",
}


@pytest.mark.parametrize("case", sorted(_LIVENESS_CASES))
def test_liveness_directed(case, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(f"""
double ga;
double arr[{N_ARR}];
double f0(double a, double b) {{ double r; r = a * b; return r + min(a, b); }}
void main() {{
    #pragma omp parallel
    {{{_LIVENESS_CASES[case]}
    }}
}}
""")
    for fast in (False, True):
        vm = assert_same_run(prog, fast=fast)
        assert vm._cfns is not None         # ran generated to the end


#: One instruction per opcode, every local slot a different number >= 10
#: and no other operand that large; ``_T`` stands for a jump target.
_T = "target"
_OP_TEMPLATES = {
    "const": 1, "lload": 10, "lstore": 10, "gload": 0, "gstore": 0,
    "geload": 0, "gestore": 0, "aload": 10, "astore": 10, "binop": "+",
    "unop": "-", "dup": None, "pop": None, "jump": _T, "jfalse": _T,
    "jnone": _T, "unpack2": None, "call": (0, 0), "icall": ("fabs", 1),
    "rt": ("barrier", (1,), 0), "print": 1, "ret": None,
    "ll2b": (10, 11, "+"), "lcb": (10, 2, "+"), "lb": (10, "+"),
    "cb": (2, "+"), "llst": (10, 11), "cjf": ("<", _T),
    "lcbs": (10, 2, "+", 11), "llbs": (10, 11, "+", 12),
    "lcjf": (10, 2, "<", _T), "lljf": (10, 11, "<", _T), "cs": (2, 10),
    "cblb": (2, "+", 10, "+"), "lbcb": (10, "+", 2, "+"),
    "lcblb": (10, 2, "+", 11, "+"), "lcbsj": (10, 2, "+", 11, _T),
    "ix": (10, 2, "*", 11, "+", 3, "*", 12, "+"),
    "ixge": (10, 2, "*", 11, "+", 3, "*", 12, "+", 0),
    "cblbge": (2, "*", 10, "+", 0),
}


def _emitted_alone(op, arg):
    """``(instruction, generated text)`` of a Code that is the one
    instruction under as many pushes as it pops, a ``ret`` on each edge
    out of it (jumps go to the second)."""
    for pushes in range(3):
        # A tuple below a scalar suits every op, unpack2 included.
        instrs = [("const", (1, 1)), ("const", 1)][2 - pushes:]
        target = len(instrs) + 2
        if arg is None:
            ins = (op,)
        elif isinstance(arg, tuple):
            ins = (op, tuple(target if a is _T else a for a in arg))
        else:
            ins = (op, target if arg is _T else arg)
        code = Code("t", [], instrs + [ins, ("ret",), ("ret",)], n_locals=13)
        try:
            return ins, generate_source(code)[0]
        except NotCompilable:               # stack underflow: push more
            pass
    raise AssertionError(f"no stack depth suits {op}")


def test_read_write_table_covers_every_local_the_emitter_names():
    """The liveness pass sees an instruction through ``_LOCAL_RW`` only.
    Emit each opcode alone and read the ``l<k>`` names out of the text:
    the table must list exactly those slots, and the stores as writes."""
    assert set(_OP_TEMPLATES) == set(OP_COST)
    assert set(_LOCAL_RW) <= set(OP_COST)
    for op, arg in _OP_TEMPLATES.items():
        ins, text = _emitted_alone(op, arg)
        body = text[text.index("while 1:"):]            # past the stubs
        named = {int(k) for k in re.findall(r"\bl(\d+)\b", body)}
        stored = {int(k) for k in re.findall(r"L\[(\d+)\] = l\1 = ", body)}
        loaded = {int(k) for k in re.findall(r"\bl(\d+)\b(?! = )", body)}
        reads, writes = _local_rw(ins)
        assert named == set(reads) | set(writes), (op, text)
        assert stored == set(writes), (op, text)
        assert loaded == set(reads), (op, text)


# ------------------------------------------------ shape of the emitted code

def _sibling_loops(n, trips=None):
    """``n`` identical loops one after another in ``main``; ``trips``
    maps a loop's position to its trip count (default 1)."""
    trips = trips or {}
    loops = "\n".join(
        f"    i = 0; while (i < {trips.get(p, 1)}) "
        f"{{ ga = ga + arr[i % {N_ARR}]; i = i + 1; }}" for p in range(n))
    return (f"double ga;\ndouble arr[{N_ARR}];\n"
            f"void main() {{\n    int i;\n{loops}\n    print(ga);\n}}\n")


def _loop_nest(depth):
    """``depth`` loops inside one another; every fourth one runs twice."""
    vs = [f"i{d}" for d in range(depth)]
    decl = " ".join(f"int {v};" for v in vs)
    heads = " ".join(f"{v} = 0; while ({v} < {2 if d % 4 == 0 else 1}) {{"
                     for d, v in enumerate(vs))
    tails = " ".join(f"{v} = {v} + 1; }}" for v in reversed(vs))
    return (f"double ga;\nvoid main() {{ {decl} {heads} ga = ga + 1.0; "
            f"{tails} print(ga); }}\n")


def _else_if_chain(arms):
    chain = " else ".join(f"if (j == {a}) {{ ga = ga + {a}.0; }}"
                          for a in range(arms))
    return ("double ga;\nvoid main() { int i; int j; i = 0; "
            f"while (i < 6) {{ j = i * 37; {chain} i = i + 1; }} "
            "print(ga); }\n")


@pytest.mark.parametrize("src", [
    # 3 604 blocks in main: as one elif chain CPython's compiler hit its
    # recursion limit and VM(...) raised instead of compiling.
    pytest.param(_sibling_loops(600), id="600-sibling-loops"),
    # More loops inside one another than CPython nests blocks (20).
    pytest.param(_loop_nest(24), id="24-deep-nest"),
    pytest.param(_else_if_chain(200), id="200-arm-else-if"),
])
def test_large_shapes_compile_and_run_generated(src, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(src)
    for fast in (False, True):
        vm = assert_same_run(prog, fast=fast)
        assert vm._cfns is not None         # ran generated to the end


def test_source_cpython_cannot_compile_falls_back(monkeypatch):
    """Source that CPython's compiler gives up on with RecursionError
    (which depth does it depends on the version, so it is raised here)
    is handled like a SyntaxError: interpreter, or a raise under
    strict."""
    import repro.interp.compile as tier

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded "
                             "during compilation")
    monkeypatch.setattr(tier, "compile", too_deep, raising=False)
    monkeypatch.delenv("REPRO_COMPILE_STRICT", raising=False)
    prog = compile_source(SRC_LOOP)
    assert tier.compiled_functions(prog) is None
    assert VM(prog, prog.main_index)._cfns is None
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    with pytest.raises(RecursionError):
        tier.compiled_functions(compile_source(SRC_LOOP))


_DISPATCH_LINE = re.compile(r"\s*(if|while) (\d+ <= )?b (==|<|>=|<=) \d+:")
#: What a block body sits under: its ladder guard, or the guard of a
#: loop whose blocks all merged into the header.
_BLOCK_GUARD = re.compile(r"\s*if b == \d+:")
_LOCAL_STORE = re.compile(r"\s*L\[(\d+)\] = l\1 = ")
#: A collapsed loop's resident slots going back to the frame at an exit.
_WRITE_BACK = re.compile(r"\s*L\[(\d+)\](, L\[\d+\])* = l\1(, l\d+)*$")
#: The header of a collapsed loop, with or without a resident set.
_COLLAPSED = re.compile(r"( *)if b == \d+:\n\1 (try:\n\1  )?while 1:\n")


def _line_hits(src):
    """Run ``src`` generated with always-hit hooks under line tracing:
    (source lines of ``main``, line number -> times executed)."""
    prog = compile_source(src)
    main = prog.funcs[prog.main_index]
    text = main.gen_src[0].split("\n")
    vm = VM(prog, prog.main_index)
    fn_code = vm._cfns[prog.main_index].__code__
    store = DictStore(prog)
    vm.fast_read = store.read

    def fast_write(g, flat, val):
        store.write(g, flat, val)
        return True
    vm.fast_write = fast_write
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_lineno] = hits.get(frame.f_lineno, 0) + 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is fn_code else None

    sys.settrace(tracer)
    try:
        while not isinstance(vm.run(), Done):
            pass
    finally:
        sys.settrace(None)
    return text, hits


def _dispatch_counts(src):
    """(dispatch lines executed, block bodies entered) inside ``main``."""
    text, hits = _line_hits(src)
    dispatch = sum(n for ln, n in hits.items()
                   if _DISPATCH_LINE.match(text[ln - 1]))
    entered = sum(hits.get(ln + 1, 0) for ln in hits
                  if _BLOCK_GUARD.match(text[ln - 1]))
    return dispatch, entered


def _lines_of_one_iteration(make_src, extra=40):
    """The generated lines one more trip of a loop executes, each as
    often as it runs in that trip: ``make_src(trips)`` traced at two
    trip counts ``extra`` apart."""
    text, few = _line_hits(make_src(5))
    text_many, many = _line_hits(make_src(5 + extra))
    assert len(text) == len(text_many)      # the trip count is a literal
    per_trip = []
    for ln, n in sorted(many.items()):
        more = n - few.get(ln, 0)
        assert more % extra == 0
        per_trip += [text_many[ln - 1]] * (more // extra)
    return per_trip


def test_inner_loop_cost_is_independent_of_its_position(monkeypatch):
    """An iteration of a loop stays inside that loop's ``while``: it
    costs the same dispatch lines whether the loop is the 1st or the
    200th of its siblings, and about one per block it runs."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    siblings = 200
    per_iter = {}
    for pos in (0, siblings - 1):
        d_few, b_few = _dispatch_counts(_sibling_loops(siblings, {pos: 5}))
        d_many, b_many = _dispatch_counts(_sibling_loops(siblings, {pos: 45}))
        assert (d_many - d_few) % 40 == 0 and (b_many - b_few) % 40 == 0
        per_iter[pos] = ((d_many - d_few) // 40, (b_many - b_few) // 40)
    assert per_iter[0] == per_iter[siblings - 1]
    dispatch, blocks = per_iter[0]
    assert blocks >= 3
    assert dispatch <= blocks + 2


def _dense_loop(trips):
    """The loop of the ``vm_dense`` benchmark workload: private scalars
    only, ``min``/``max``/``fabs`` arithmetic, one shared store after
    the loop."""
    return f"""
double out[4];
void main() {{
    int i; int k; double x; double y;
    i = 1;
    x = 1.25 + i * 0.015;
    y = 0.5;
    k = 0;
    while (k < {trips}) {{
        x = min(max(x * 1.1 + y, -3.0), 3.0);
        y = fabs(y - x * 0.5) * 0.5 + 0.125;
        k = k + 1;
    }}
    out[i] = x + y;
}}
"""


def test_private_scalar_loop_runs_on_python_locals(monkeypatch):
    """What the ``vm_dense`` claim rests on: a trip of a loop over
    private scalars is no dispatch (the collapsed loop tests ``b`` once
    on the way in), one charge, and no frame access at all -- x, y and
    k are resident and reach the frame where the loop exits;
    ``min``/``max`` name their literal operand in place."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    trip = _lines_of_one_iteration(_dense_loop)
    assert [t for t in trip if _DISPATCH_LINE.match(t)] == []
    assert sum(t.lstrip().startswith("c = c + ") for t in trip) == 1
    assert [t for t in trip if "L[" in t] == []
    assert any("if s0 > -3.0 else -3.0" in t for t in trip)
    assert any("if s0 < 3.0 else 3.0" in t for t in trip)
    assert not any(re.match(r"\s*s\d+ = -?3\.0$", t) for t in trip)


def test_loop_with_shared_accesses_dispatches_once_per_access(monkeypatch):
    """A resume may land behind every shared access, so each one ends a
    ladder block; a trip pays the ``while`` and one guard per block."""
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    trip = _lines_of_one_iteration(lambda n: _sibling_loops(1, {0: n}))
    accesses = sum("fr(" in t or "fw(" in t for t in trip)
    assert accesses == 3                    # ga, arr[...], ga =
    dispatch = [t for t in trip if _DISPATCH_LINE.match(t)]
    assert len(dispatch) <= accesses + 2
    assert sum(t.lstrip().startswith("while ") for t in dispatch) == 1


def test_random_programs_exercise_collapsed_loops():
    """The random-program sweeps (every slice budget, both hook modes)
    run the collapsed-loop emitter and its resident sets: a third of the
    seeds emit at least one collapsed loop."""
    seeds = sum(
        any(_COLLAPSED.search(f.gen_src[0])
            for f in compile_source(make_program(seed)).funcs)
        for seed in range(30))
    assert seeds >= 10


#: Bytes of generated source per image at the commit before the
#: loop-ladder emitter (PR 14), all functions of the image together.
_PARENT_SOURCE_BYTES = {
    ("bt", "test"): 59162, ("bt", "bench"): 59168,
    ("cg", "test"): 26628, ("cg", "bench"): 26632,
    ("ep", "test"): 7031, ("ep", "bench"): 7032,
    ("lu", "test"): 28846, ("lu", "bench"): 28846,
    ("mg", "test"): 61552, ("mg", "bench"): 111479,
    ("sp", "test"): 34635, ("sp", "bench"): 34641,
}


@pytest.mark.parametrize("bench,size", sorted(_PARENT_SOURCE_BYTES))
def test_registry_kernels_compile_strict_and_stay_small(bench, size,
                                                        monkeypatch):
    from repro.interp.compile import compiled_functions
    from repro.npb import REGISTRY
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    prog = compile_source(REGISTRY[bench].source(
        **REGISTRY[bench].params(size)))
    assert compiled_functions(prog) is not None
    nbytes = sum(len(f.gen_src[0]) for f in prog.funcs)
    assert nbytes <= _PARENT_SOURCE_BYTES[bench, size]
    # One emitter: locals are Python locals everywhere past the entry
    # stubs, written through or written back over a collapsed loop's
    # resident set, and no collapsed loop re-tests or keeps the guard of
    # its header (the catch-all ``while 1:`` is the first line).
    for f in prog.funcs:
        text = f.gen_src[0]
        lines = text[text.index("  while 1:"):].split("\n")
        for above, line in zip(lines[1:], lines[2:]):
            assert ("L[" not in line or _LOCAL_STORE.match(line)
                    or _WRITE_BACK.match(line)), line
            assert not re.match(r"\s*while b == \d+:", line), line
            assert not (above.strip() == "while 1:"
                        and re.match(r"\s*if b == \d+:", line)), line


#: Worksharing, reductions, ``schedule(runtime)``, a barrier under a
#: branch and regions under a shared loop counter, at a size ``drive``
#: logs in a second: (file, constant, (extent in the file, here)...).
_EXAMPLE_SHAPES = [
    ("jacobi.c", None, ("8192", "96"), ("8191", "95")),
    ("quickstart.py", "SOURCE", ("8192", "96"), ("8191", "95")),
    ("scheduling_comparison.py", "SOURCE", ("512", "24")),
    ("divergence_recovery.py", "INJECTED", ("512", "40")),
    ("divergence_recovery.py", "ORGANIC", ("256", "40"), ("255", "39")),
]

#: What the examples leave out: sections, a critical section, a call in
#: a worksharing loop, ``single`` and a ``max`` reduction.
_CONSTRUCTS = """
double a[24];
double total;
double peak;
int hits;
int i;
double scale(double v, int by) { double r; r = v * by; return r + 0.5; }
void main() {
    #pragma omp parallel
    {
        double mine;
        mine = 0.0;
        #pragma omp sections
        {
            #pragma omp section
            { a[0] = scale(1.5, 2); }
            #pragma omp section
            { a[1] = scale(2.5, 3); mine = a[1]; }
        }
        #pragma omp for reduction(max: peak)
        for (i = 2; i < 24; i = i + 1) {
            a[i] = scale(a[i - 1], i % 3) - a[i - 2];
            peak = max(peak, a[i]);
        }
        #pragma omp critical
        { total = total + mine + a[23]; hits = hits + 1; }
        #pragma omp single
        { print(total, peak, hits); }
    }
}
"""


@pytest.mark.parametrize("shape", _EXAMPLE_SHAPES + [None], ids=lambda s: (
    "constructs" if s is None else f"{s[0]}:{s[1]}"))
def test_examples_identical_under_strict_mode(shape, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILE_STRICT", "1")
    if shape is None:
        src = _CONSTRUCTS
    else:
        path, constant = shape[:2]
        src = (getattr(load(path), constant) if constant
               else (EXAMPLES / path).read_text())
        for extent, here in shape[2:]:
            assert extent in src
            src = src.replace(extent, here)
    prog = compile_source(src)
    assert all(f.gen_src is not None for f in prog.funcs)
    for fast in (False, True):
        vm = assert_same_run(prog, fast=fast)
        assert vm._cfns is not None         # ran generated to the end


# ------------------------------------------------- machine-level identity

def test_benchmark_identical_with_tier_on_and_off(monkeypatch):
    """Full runtime path (slipstream shells, rt ops, faults disarmed):
    cycles, rt_stats and breakdowns are tier-invariant."""
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    results = {}
    for tiers in (None, ""):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        run = execute_spec(RunSpec.make("cg", "G0", size="test", cfg=cfg))
        results[tiers] = run
    on, off = results[None], results[""]
    assert on.cycles == off.cycles
    assert on.result.rt_stats == off.result.rt_stats
    assert on.result.r_breakdown == off.result.r_breakdown
    assert on.result.classes.as_dict() == off.result.classes.as_dict()


@pytest.mark.parametrize("bench", ["cg", "lu"])
def test_benchmark_identical_with_fused_and_unfused_image(bench):
    """Fusion exactness through a whole machine: one kernel's fused and
    unfused image, in single and in G0 slipstream mode, spend the same
    cycles and see the same memory traffic."""
    from repro.npb import REGISTRY
    from repro.runtime import RuntimeEnv, run_program
    src = REGISTRY[bench].source(**REGISTRY[bench].params("test"))
    fused, unfused = compile_source(src), compile_unfused(src)
    assert _ops(fused) - _ops(unfused)
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    g0 = RuntimeEnv(slipstream=("GLOBAL_SYNC", 0), slipstream_set=True)
    for mode, env in (("single", None), ("slipstream", g0)):
        a = run_program(fused, cfg=cfg, mode=mode, env=env)
        b = run_program(unfused, cfg=cfg, mode=mode, env=env)
        assert a.cycles == b.cycles, mode
        assert a.mem_stats.as_dict() == b.mem_stats.as_dict(), mode
        assert a.output == b.output, mode


def test_fault_armed_shells_run_interpreted(monkeypatch):
    """Armed fault plans force the interpreter (injection hooks need
    live Frame state) -- and the campaign's results are tier-invariant
    because only disarmed A-streams ever ran compiled."""
    from repro.faults import FaultConfig
    cfg = PAPER_MACHINE.with_(n_cmps=4)
    outcomes = {}
    for tiers in (None, ""):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        spec = RunSpec.make("cg", "G0", size="test", verify=True,
                            faults=FaultConfig(4, classes=("vm",)),
                            timeout_cycles=5e6, cfg=cfg)
        r = execute_spec(spec).result
        outcomes[tiers] = (r.cycles, r.rt_stats, r.faults["fired"],
                           r.recoveries)
    assert outcomes[None] == outcomes[""]


@pytest.mark.parametrize("classes, schedule", [
    (("net",), None), (("channel",), ("dynamic", 4))],
    ids=["net", "channel"])
def test_plans_without_a_stream_kinds_keep_generated_code(monkeypatch,
                                                          classes, schedule):
    """A plan that schedules no A-stream kind -- ``net`` jitter fires in
    the network interfaces, ``channel`` faults in the pair channel --
    arms no shell, so no VM is sent to the interpreter; the campaign's
    cycles, firings and recoveries are those of interpreting
    everything."""
    from repro.faults import FaultConfig
    interpreted = []
    real = VM.disable_compiled

    def spy(vm):
        interpreted.append(vm)
        real(vm)

    monkeypatch.setattr(VM, "disable_compiled", spy)
    outcomes = {}
    for tiers in (None, ""):
        if tiers is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", tiers)
        reset_for_tests()
        # The default 16 CMPs: at 4, CG serves too few NI requests to
        # reach the jitter window.
        spec = RunSpec.make("cg", "G0", size="test", schedule=schedule,
                            verify=True, timeout_cycles=5e6,
                            faults=FaultConfig(4, classes=classes))
        r = execute_spec(spec).result
        outcomes[tiers] = (r.cycles, r.rt_stats, r.faults["fired"],
                           r.recoveries)
    assert interpreted == []
    assert outcomes[None][2], "the campaign fired nothing"
    assert outcomes[None] == outcomes[""]
