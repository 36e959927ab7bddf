"""Generated code (the default; ``REPRO_HOTPATH=`` runs the reference
interpreter instead): the exec'd functions must be observationally
identical to the reference interpreter loop.

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
resume must reload), the VMs that keep generated code where recovery
or fault injection touches their state (restore, corrupt, armed
faults), the edges where it steps aside without perturbing a single
cycle (profiling, wild pc), and the shape of the emitted code.

Every program compiled here goes through :func:`compile_generated`,
which asserts that the whole image has generated code: a function
CPython cannot compile drops its image to the interpreter without
moving a cycle, so no comparison of runs would notice.
"""

import math
import random
import re
import sys

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.compiler.bytecode import OP_COST, Code, CompiledProgram
from repro.config import PAPER_MACHINE
from repro.harness import RunSpec, execute_spec
from repro.hotpath import reset_for_tests
from repro.interp import (VM, Done, FunctionalRunner, IoOut, MemRead,
                          MemWrite, RtCall)
from repro.interp.compile import (_LOCAL_RW, NotCompilable, _a_needed,
                                  _local_rw, attach_generated,
                                  compiled_functions, generate_source)
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

def compile_generated(src):
    """The image of ``src``, asserted to run generated code throughout."""
    prog = compile_source(src)
    assert compiled_functions(prog) is not None
    return prog


def new_vm(prog, compiled=True, fidx=None, args=()):
    """A VM on generated code or, through the reference switch
    (``REPRO_HOTPATH=``), on the interpreter."""
    with pytest.MonkeyPatch.context() as mp:
        if not compiled:
            mp.setenv("REPRO_HOTPATH", "")
        reset_for_tests()
        vm = VM(prog, prog.main_index if fidx is None else fidx, args)
    reset_for_tests()
    return vm


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


def a_frame_state(prog):
    """``frame_state`` as two A-stream runs must agree on it: pc, the
    slots and registers the A-needed pass calls needed at that pc (bit
    *k* of its mask slot *k*, bit ``n_locals + h`` the register at
    height *h*), and which of every slot and register hold a number (so
    ``VM.corrupt`` picks the same one)."""
    need = [_a_needed(code, prog.globals)[2] for code in prog.funcs]

    def state(vm):
        out = []
        for f in vm.frames:
            mask, nl = need[f.fidx][f.pc], f.code.n_locals
            values = list(f.locals) + list(f.stack)
            out.append((f.fidx, f.pc, tuple(
                (v.tolist() if isinstance(v, np.ndarray) else v)
                if mask >> i & 1 else isinstance(v, (int, float))
                for i, v in enumerate(values)), len(f.stack), nl))
        return tuple(out)
    return state


def drive(prog, compiled, fast=False, frames=True, spy=None, trap=False,
          stream="R"):
    """Run to Done, logging every event with its cycles and -- unless
    the runs compared are of two different images -- the state of every
    frame at the event; optionally with fast-path hooks that hit on even
    flat indices and miss on odd.  Runtime calls are served as a team of
    one by the functional runner.  ``spy(vm)`` sees the VM before it
    runs; with ``trap`` a ``VMError`` ends the log as its last entry
    (message, cycles and the top frame's locals).

    ``stream="A"`` drives an A-stream, on the A-stream versions when
    ``compiled``: its stores, reductions and prints change nothing and
    their values are not logged, and the frames are :func:`a_frame_state`'s."""
    a = stream == "A"
    vm = new_vm(prog, compiled)
    if a and compiled:
        vm._cfns = compiled_functions(prog, "A")
    if spy is not None:
        spy(vm)
    rt = FunctionalRunner(prog)
    rt.store = store = DictStore(prog)
    state = a_frame_state(prog) if a else frame_state
    if fast:
        def fast_read(g, flat):
            return store.read(g, flat) if flat % 2 == 0 else MISS

        def fast_write(g, flat, val):
            if flat % 2:
                return False
            if not a:
                store.write(g, flat, val)
            return True
        vm.fast_read = fast_read
        vm.fast_write = fast_write
    trace = []
    for _ in range(200_000):
        try:
            ev = vm.run()
        except VMError as e:
            if not trap:
                raise
            trace.append(("TRAP", str(e), vm.take_cycles(),
                          frame_state(vm)[-1][3]))
            return trace, store.data, vm
        at = (vm.take_cycles(),)
        if frames:
            at += (state(vm),)
        k = type(ev)
        if k is MemRead:
            trace.append(("R", ev.gidx, ev.flat) + at)
            vm.push(store.read(ev.gidx, ev.flat))
        elif k is MemWrite and a:
            trace.append(("W", ev.gidx, ev.flat) + at)
        elif k is MemWrite:
            trace.append(("W", ev.gidx, ev.flat, ev.value) + at)
            store.write(ev.gidx, ev.flat, ev.value)
        elif k is IoOut:
            trace.append(("IO", len(ev.values) if a else ev.values) + at)
        elif k is TimeSlice:
            trace.append(("TS",) + at)
        elif k is RtCall and a and ev.name == "reduce":
            trace.append(("RT", ev.name) + at)
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


def assert_same_a_run(prog, fast=False):
    """:func:`assert_same_run` for an A-stream: the A-stream versions
    against the interpreter, each run as an A-stream."""
    assert_same_drive(drive(prog, compiled=False, fast=fast, stream="A"),
                      drive(prog, compiled=True, fast=fast, stream="A"),
                      "interp vs compiled A-stream")


def _ops(prog):
    return {ins[0] for code in prog.funcs for ins in code.instrs}


# ------------------------------------------------------- property sweep

@pytest.mark.parametrize("seed", range(30))
def test_random_programs_identical_streams(seed):
    """Seeded random programs: identical (event, cycles) streams and
    final stores, with and without the uncontended fast path; and run as
    an A-stream, the same events, cycles, pcs and needed values."""
    prog = compile_generated(make_program(seed))
    for fast in (False, True):
        assert_same_run(prog, fast)
        assert_same_a_run(prog, fast)


@pytest.mark.parametrize("max_slice", [3, 7, 11])
@pytest.mark.parametrize("seed", range(30))
def test_random_programs_identical_under_short_slices(seed, max_slice,
                                                      monkeypatch):
    """The same sweep with a slice budget of a few backward jumps, so
    ``TimeSlice`` resumes land on every loop header of every nest, and
    with the even-hit/odd-miss hooks, so memory resumes enter loop
    bodies in the middle of a ladder."""
    monkeypatch.setattr(VM, "MAX_SLICE", max_slice)
    prog = compile_generated(make_program(seed))
    for fast in (False, True):
        assert_same_run(prog, fast)
        assert_same_a_run(prog, fast)


_DEFAULT_SLICE = VM.MAX_SLICE

#: The opcodes of ``compiler.bytecode``'s table: the one set every
#: consumer of an image handles.
_BASE_OPS = frozenset((
    "const", "lload", "lstore", "gload", "gstore", "geload", "gestore",
    "aload", "astore", "binop", "unop", "dup", "pop", "jump", "jfalse",
    "jnone", "unpack2", "call", "icall", "rt", "print", "ret"))


def test_images_use_only_base_opcodes():
    """The optimizer emits no opcode outside the base table: every
    registry kernel at both sizes and every random program."""
    from repro.npb import REGISTRY
    assert set(OP_COST) == _BASE_OPS
    sources = [make_program(seed) for seed in range(30)]
    sources += [REGISTRY[b].source(**REGISTRY[b].params(size))
                for b in sorted(REGISTRY) for size in ("test", "bench")]
    for src in sources:
        assert _ops(compile_generated(src)) <= _BASE_OPS


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
    prog = compile_generated(SRC_LOOP)
    assert all(f.gen_src is not None for f in prog.funcs)
    vm = VM(prog, prog.main_index)
    assert vm._cfns is not None


def test_reference_switch_runs_the_interpreter(monkeypatch):
    """``REPRO_HOTPATH=`` picks the engine and nothing else: the image
    still carries generated code, and the VM interprets it."""
    monkeypatch.setenv("REPRO_HOTPATH", "")
    reset_for_tests()
    prog = compile_generated(SRC_LOOP)
    assert prog.funcs[0].gen_src == compile_source(SRC_LOOP).funcs[0].gen_src
    vm = VM(prog, prog.main_index)
    assert vm._cfns is None
    t, s, _ = drive(prog, compiled=False)
    assert t[-1][0] == "DONE"


def test_image_without_gen_src_falls_back():
    """A process handed an image without generated code (hand-built
    Codes, a foreign producer) must run it interpreted -- the
    all-or-nothing gate returns None, never a partial table."""
    prog = compile_source(SRC_LOOP)
    prog.funcs[prog.main_index].gen_src = None
    vm = VM(prog, prog.main_index)
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


def _finish(vm, store):
    """Run to Done: every event with its cycles and frames."""
    tail = []
    while True:
        ev = vm.run()
        at = (vm.take_cycles(), frame_state(vm))
        if isinstance(ev, MemRead):
            val = store[ev.gidx]
            vm.push(val[ev.flat] if isinstance(val, list) else val)
            tail.append(("R", ev.gidx, ev.flat) + at)
        elif isinstance(ev, MemWrite):
            val = store[ev.gidx]
            if isinstance(val, list):
                val[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
            tail.append(("W", ev.gidx, ev.flat, ev.value) + at)
        elif isinstance(ev, IoOut):
            tail.append(("IO", ev.values) + at)
        elif isinstance(ev, Done):
            tail.append(("DONE",) + at)
            return tail


def test_restore_keeps_generated_code_and_replays_exactly():
    """Snapshot mid-run under generated code, restore, finish: the VM
    resumes generated code at the restored pc, and the replayed tail
    matches an interpreter's at every event."""
    prog = compile_generated(SRC_LOOP)
    vm = new_vm(prog)
    store = new_store(prog)
    _run_to_nth_write(vm, store, 5)
    snap = vm.snapshot()
    snap_store = {k: (list(v) if isinstance(v, list) else v)
                  for k, v in store.items()}
    vm.restore(snap)
    assert vm._cfns is not None

    # Reference: an interpreter VM advanced to the same point.
    ref = new_vm(prog, compiled=False)
    ref_store = new_store(prog)
    _run_to_nth_write(ref, ref_store, 5)
    # Generated code wrote every local through: the snapshot it was
    # interrupted for holds what the interpreter's holds.
    assert ([(f.pc, f.stack, f.locals) for f in snap]
            == [(f.pc, f.stack, f.locals) for f in ref.snapshot()])
    ref.restore(ref.snapshot())

    assert _finish(vm, snap_store) == _finish(ref, ref_store)
    assert vm._cfns is not None             # no deopt on the way


def test_corrupt_keeps_generated_code():
    """A corrupted local is reloaded from the frame when generated code
    resumes: the loop counter set back to 3 reruns the tail of the loop
    exactly as the interpreter does."""
    prog = compile_generated(SRC_LOOP)
    tails = []
    for compiled in (True, False):
        vm = new_vm(prog, compiled)
        store = new_store(prog)
        _run_to_nth_write(vm, store, 2)
        assert vm.corrupt((0, 3)) == "local[0]=3 in main"
        tails.append(_finish(vm, store))
        assert (vm._cfns is not None) == compiled
    assert tails[0] == tails[1]
    assert tails[0][0][:4] == ("W", prog.globals[1].index, 4, 10.0)


def test_profile_binding_takes_priority():
    """A profiling VM must interpret even with compiled functions
    attached -- and tally the same busy cycles."""
    prog = compile_generated(SRC_LOOP)
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
    prog = compile_generated(SRC_LOOP)
    for compiled in (True, False):
        vm = new_vm(prog, compiled)
        vm.frames[-1].pc = 10 ** 6
        with pytest.raises(VMError):
            vm.run()


def _crash(prog, compiled):
    """Run until the VM traps: the message, and (exception type, cycles
    flushed, the top frame's locals as the trap left them)."""
    vm = new_vm(prog, compiled)
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
    prog = compile_generated(src)
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
    prog = compile_generated(src)
    state = _crash(prog, True)[1]
    assert state == _crash(prog, False)[1]
    assert state[0] is VMError and state[2] == (0, 3.5, [0.0] * 4)


def test_trap_pending_below_a_store_fires_before_it():
    """A trapping int ``/`` is still an unevaluated expression on the
    symbolic stack when an ``lstore`` to another slot consumes the
    entry above it: the division must run first, so the trap leaves the
    frame the interpreter leaves -- slot 2 still 0, the store not run."""
    code = Code("t", ["a", "b"], [
        ("lload", 0), ("lload", 1), ("binop", "/"), ("const", 5),
        ("lstore", 2), ("pop",), ("ret",)], n_locals=3)
    prog = CompiledProgram([], [code], {"t": 0}, 0)
    assert attach_generated(prog)
    states = []
    for compiled in (True, False):
        vm = new_vm(prog, compiled, 0, (7, 0))
        assert (vm._cfns is not None) == compiled
        with pytest.raises(VMError, match="division by zero"):
            vm.run()
        states.append((vm.pending_cycles, frame_state(vm)))
    assert states[0] == states[1]
    assert states[0][1][-1][3] == (7, 0, 0)


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
    prog = compile_generated(src)
    assert "except BaseException:" in prog.funcs[prog.main_index].gen_src[0]
    assert _crash(prog, True) == _crash(prog, False)
    message, (_kind, _cycles, locs) = _crash(prog, True)
    assert "division by zero" in message and locs == (16, 0, 2, 18)


# -------------------------------------------------------- counted trips
#
# A collapsed loop is a ``for`` over the trips the slice budget allows:
# a trip neither charges ``c`` nor steps the budget, and each exit
# settles both for the trips before it.  Every case runs one collapsed
# loop in ``f`` over a trip counter ``k``, compares every event
# (cycles, pc, stack, locals) with the interpreter's, and holds every
# budget ``f``'s generated function hands back to the interpreter's
# rule: one unit per back edge, and the slice ends when none is left.
# The even-hit hooks take the loop's exit through a shared load that
# hits (a ``break``), the plain run through one that misses (a
# ``return``).

def _budget_log(prog, counter="k"):
    """``(log, spy)``: ``spy(vm)`` wraps ``f``'s generated function on
    the VM, and each call logs (budget in, budget out, trips ``counter``
    counted, event type)."""
    fi = prog.func_index["f"]
    slot = prog.funcs[fi].local_names.index(counter)
    log = []

    def spy(vm):
        fn = vm._cfns[fi]

        def counted(vm_, frame, budget):
            k = frame.locals[slot]
            ev, left = fn(vm_, frame, budget)
            log.append((budget, left, frame.locals[slot] - k, type(ev)))
            return ev, left
        vm._cfns = list(vm._cfns)
        vm._cfns[fi] = counted
    return log, spy


def _corrupting(prog, values):
    """``(left, spy)``: ``spy(vm)`` has ``VM.corrupt`` write ``values``
    to ``f``'s ``k``, one at each of the first TimeSlices ``f`` yields;
    ``left`` holds those not yet written."""
    fi = prog.func_index["f"]
    slot = prog.funcs[fi].local_names.index("k")
    left = list(values)

    def spy(vm):
        run = vm.run

        def run_and_corrupt():
            ev = run()
            frame = vm.frames[-1] if vm.frames else None
            if left and type(ev) is TimeSlice and frame.fidx == fi:
                scalars = [v for v in frame.stack + frame.locals[:slot]
                           if isinstance(v, (int, float))]
                vm.corrupt((len(scalars), left.pop(0)))
            return ev
        vm.run = run_and_corrupt
    return left, spy


def _assert_counted_trips_exact(src, max_slice, monkeypatch, counted=True,
                                counter="k", corrupt=()):
    """Both hook modes: the same events as the interpreter, and the
    budget rule at every return from ``f``, whose loop is emitted in
    the counted form or (``counted=False``) over the budget's trips.
    ``counter`` counts the trips, and ``corrupt`` lists what
    :func:`_corrupting` writes to ``k``.  Returns the last trace."""
    monkeypatch.setattr(VM, "MAX_SLICE", max_slice)
    prog = compile_generated(src)
    gen = prog.funcs[prog.func_index["f"]].gen_src[0]
    assert _COLLAPSED.search(gen)
    assert ("for _t in range(_m):" in gen) == counted
    for fast in (False, True):
        log, budget_spy = _budget_log(prog, counter)
        runs = []
        for compiled in (False, True):
            left, corrupt_spy = _corrupting(prog, corrupt)

            def spy(vm, compiled=compiled, corrupt_spy=corrupt_spy):
                if compiled:
                    budget_spy(vm)
                corrupt_spy(vm)
            runs.append(drive(prog, compiled, fast=fast, spy=spy, trap=True))
            assert not left, "f yielded too few TimeSlices to corrupt"
        interp, compiled = runs
        assert_same_drive(interp, compiled, f"interp vs compiled, {fast=}")
        assert log
        for given, left, trips, kind in log:
            assert left == given - trips, (given, left, trips, kind)
            assert (left <= 0) == (kind is TimeSlice), (given, left, kind)
    return interp[0]


#: ``f`` runs one collapsed loop over private scalars and leaves through
#: a shared load; ``main`` spends what is left of the slice after it.
#: ``_counted_src`` fills in the loop's body and head and main's calls.
_COUNTED = """
double g;
double out[4];
double f(int n) {
    %(k)s k; double x; int j; double h;
    x = 0.5;
    j = 0;
    h = n + 0.25;
    k = %(k0)s;
    while (%(test)s) {
        %(body)s
    }
    return x + g;
}
void main() {
    int i; double s;
    s = 0.0;
    %(calls)s
    for (i = 0; i < 30; i = i + 1) { s = s * 0.5 + 1.0; }
    out[0] = s;
}
"""
_ONE_PATH = "x = x * 1.5 - 0.25; k = k + 1;"
_TRIPS = 6
_EIGHT_CALLS = "for (i = 0; i < 8; i = i + 1) { s = s + f(i); }"


def _counted_src(body, calls, k="int", k0="0", test="k < n"):
    return _COUNTED % dict(body=body, calls=calls, k=k, k0=k0, test=test)


@pytest.mark.parametrize("max_slice", [_TRIPS - 1, _TRIPS, _TRIPS + 1])
def test_slice_ends_on_the_trips_around_a_collapsed_loops_last(
        max_slice, monkeypatch):
    """The slice runs out on trip k-1 of a k-trip loop (the resume runs
    one trip more), on trip k (the resume leaves at once) or one back
    edge past the loop (it leaves holding one unit of budget, which
    ``main``'s loop spends)."""
    trace = _assert_counted_trips_exact(
        _counted_src(_ONE_PATH, "s = f(%d);" % _TRIPS), max_slice,
        monkeypatch)
    assert any(e[0] == "TS" for e in trace)


@pytest.mark.parametrize("max_slice", [1, 2, 3, _DEFAULT_SLICE])
def test_collapsed_loop_entered_for_no_trip(max_slice, monkeypatch):
    """``f(0)`` leaves its loop on the test of trip 0 with nothing to
    settle; the calls after it run 1, 2 and 3 trips in the same slice."""
    _assert_counted_trips_exact(
        _counted_src(_ONE_PATH, "for (i = 0; i < 4; i = i + 1) "
                                "{ s = s + f(i); }"),
        max_slice, monkeypatch)


@pytest.mark.parametrize("max_slice", [2, 3, 4, 5, _DEFAULT_SLICE])
def test_collapsed_loop_with_back_edges_of_different_charge(max_slice,
                                                            monkeypatch):
    """Every third trip takes the dearer arm to its own back edge: the
    per-trip charge is the cheaper path's, and the dearer one pays its
    excess in place before its ``continue``."""
    src = _counted_src("k = k + 1; if (k % 3 == 0) { x = x * 0.5 + 1.0; "
                       "continue; } x = x - 0.25;", "s = f(8);")
    prog = compile_generated(src)
    gen = prog.funcs[prog.func_index["f"]].gen_src[0]
    assert re.search(r"c = c \+ [\d.]+\n\s*continue\n", gen)
    assert gen.count("continue") == 2
    _assert_counted_trips_exact(src, max_slice, monkeypatch, counted=False)


@pytest.mark.parametrize("max_slice", [2, 4, 7, _DEFAULT_SLICE])
def test_trap_mid_trip_after_counted_trips(max_slice, monkeypatch):
    """``f(12)`` and ``f(10)`` run nine trips and return; ``f(3)`` traps
    in ``_div`` on its third trip.  Every event before the trap carries
    the settled trips, and the trap leaves the resident slots of that
    trip in the frame: d = 0, a = 16, k = 2, q = 18 -- the counter as
    of the trapping trip, not its final value."""
    src = """
int out[4];
int f(int d) {
    int a; int k; int q;
    a = 1; k = 0; q = 0;
    while (k < 9) { a = a + 5; d = d - 1; q = q + 12 / d; k = k + 1; }
    return q;
}
void main() {
    int s;
    s = f(12); out[0] = s;
    s = s + f(10); out[1] = s;
    s = s + f(3); out[2] = s;
}
"""
    trace = _assert_counted_trips_exact(src, max_slice, monkeypatch)
    assert trace[-1][0] == "TRAP" and "division by zero" in trace[-1][1]
    assert trace[-1][3] == (0, 16, 2, 18)


@pytest.mark.parametrize("max_slice", [2, 4, _DEFAULT_SLICE])
def test_trap_mid_trip_steps_a_double_counter(max_slice, monkeypatch):
    """The same trap over ``double k`` from 0.5, which counts by
    stepping: the handler steps the counter once for each trip before
    the trapping one, k = 2.5.  ``j`` counts the trips."""
    src = """
int out[4];
int f(int d) {
    int a; double k; int q; int j;
    a = 1; k = 0.5; q = 0; j = 0;
    while (k < 9) {
        a = a + 5; d = d - 1; q = q + 12 / d; j = j + 1; k = k + 1;
    }
    return q;
}
void main() {
    int s;
    s = f(12); out[0] = s;
    s = s + f(3); out[1] = s;
}
"""
    trace = _assert_counted_trips_exact(src, max_slice, monkeypatch,
                                        counter="j")
    assert trace[-1][0] == "TRAP"
    assert trace[-1][3] == (0, 16, 2.5, 18, 2)


#: Heads of the counted shape, as (type of ``k``, its start, the test).
#: Over ``f(0)`` .. ``f(7)`` each runs up to several trips, and all but
#: the ``double`` bound run none on some call -- the bound below the
#: start, or the start past the bound.
_HEADS = {
    "k < n": ("int", "0", "k < n"),
    "k <= n": ("int", "1", "k <= n"),
    "k < literal": ("int", "n - 2", "k < 3"),
    "k <= literal": ("int", "n", "k <= 4"),
    "double k": ("double", "0.5", "k < n"),
    "double bound": ("int", "0", "k < h"),
}


@pytest.mark.parametrize("max_slice", [1, 2, 3, 5, _DEFAULT_SLICE])
@pytest.mark.parametrize("head", sorted(_HEADS))
def test_counted_heads_run_the_interpreters_trips(head, max_slice,
                                                  monkeypatch):
    """``<`` and ``<=``, a slot or an int literal bound, an int or a
    double counter or bound: each head is emitted counted (a ``double``
    counts by stepping), and the budgets end slices on the trips before,
    at and after the last one of each call.  ``j`` counts the trips."""
    k, k0, test = _HEADS[head]
    _assert_counted_trips_exact(
        _counted_src("x = x * 1.5 - 0.25; j = j + 1; k = k + 1;",
                     _EIGHT_CALLS, k, k0, test),
        max_slice, monkeypatch, counter="j")


def test_loop_that_reads_its_counter_keeps_the_budget_form(monkeypatch):
    """A trip that names ``k`` besides its step is not the counted
    shape: the ``for`` runs over the budget's trips and tests ``k``."""
    for max_slice in (2, 3, _DEFAULT_SLICE):
        _assert_counted_trips_exact(
            _counted_src("x = x * 0.5 + k; k = k + 1;", _EIGHT_CALLS),
            max_slice, monkeypatch, counted=False)


#: What ``VM.corrupt`` writes to ``k`` at ``f``'s first TimeSlices.
_CORRUPTIONS = {
    "nan": (math.nan,),
    "inf": (math.inf,),
    "float": (2.5,),
    "-inf, then a float": (-math.inf, 7.25),
    "huge ints": (-10**30, 10**30),
}


@pytest.mark.parametrize("max_slice", [3, 5])
@pytest.mark.parametrize("values", sorted(_CORRUPTIONS))
def test_counted_loop_resumes_on_a_corrupted_counter(values, max_slice,
                                                     monkeypatch):
    """A soft error writes ``k`` between slices, and the resume counts
    from what the frame holds: NaN, +inf and 10**30 fail the test at
    once; -inf (``k + 1`` leaves it where it is) and -10**30 pass it
    for a whole slice a resume, until the next write; a float steps to
    the bound.  ``j`` counts the trips."""
    _assert_counted_trips_exact(
        _counted_src("x = x * 0.5 + 1.0; j = j + 1; k = k + 1;",
                     "s = f(12);"),
        max_slice, monkeypatch, counter="j", corrupt=_CORRUPTIONS[values])


# ------------------------------------------------------------- liveness
#
# Generated code reads a frame local as the Python local ``l<k>``, every
# slot bound on entry; liveness decides a collapsed loop's resident set,
# the slots it keeps off the frame until it exits.  The odd-index misses
# of ``drive(fast=True)`` put resumes in the middle of a chain, so a
# resident set that leaves out a slot it needs, or writes one back
# stale or at the wrong exit, is a frame or event mismatch here.

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
    # The steps ``n = n + 1`` and ``i = i + 1`` read the slot they write.
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
    # The same loop shape run for no trip: t is never written, and the
    # frame must still hold its value from before the loop at the exit.
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
def test_liveness_directed(case):
    prog = compile_generated(f"""
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

def test_index_polynomial_is_one_expression():
    """Base ops for ``((l0 * 5 + l1) * 7 + l2)`` then ``geload``: the
    symbolic stack carries the literals and locals as atoms and emits
    the flat index once, into the load's temporary -- no register copy
    of a local."""
    code = Code("t", [], [
        ("lload", 0), ("const", 5), ("binop", "*"), ("lload", 1),
        ("binop", "+"), ("const", 7), ("binop", "*"), ("lload", 2),
        ("binop", "+"), ("geload", 0), ("ret",)], n_locals=3)
    text = generate_source(code)[0]
    assert "x = ((((l0 * 5) + l1) * 7) + l2)\n" in text
    assert "v = fr(0, x)" in text
    assert not re.search(r"\bs\d+ = l\d+$", text, re.M)


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


def _expression(terms, nested):
    """One statement of ``terms`` operands: a left-leaning chain
    ``t + t - t + ...``, one pending expression all the way down, or
    ``(t * (t - (t + ...)))`` nested to the right."""
    ops = ["+", "-", "*"]
    if nested:
        e = "t"
        for k in range(terms - 1):
            e = f"(t {ops[k % 3]} {e})"
    else:
        e = "t" + "".join(f" {ops[k % 2]} t" for k in range(terms - 1))
    return (f"double y;\nvoid main() {{ double t; t = 0.75; y = {e}; "
            "print(y); }\n")


@pytest.mark.parametrize("src", [
    # 3 604 blocks in main: as one elif chain CPython's compiler hit its
    # recursion limit and VM(...) raised instead of compiling.
    pytest.param(_sibling_loops(600), id="600-sibling-loops"),
    # More loops inside one another than CPython nests blocks (20).
    pytest.param(_loop_nest(24), id="24-deep-nest"),
    pytest.param(_else_if_chain(200), id="200-arm-else-if"),
    # One pending expression per chain: past 200 nested parentheses
    # CPython's tokenizer refused the function, and the image ran
    # interpreted.
    pytest.param(_expression(250, False), id="250-term-chain"),
    pytest.param(_expression(1000, False), id="1000-term-chain"),
    pytest.param(_expression(60, True), id="60-deep-parentheses"),
])
def test_large_shapes_compile_and_run_generated(src):
    prog = compile_generated(src)
    for fast in (False, True):
        vm = assert_same_run(prog, fast=fast)
        assert vm._cfns is not None         # ran generated to the end


def test_source_cpython_cannot_compile_falls_back(monkeypatch):
    """Source that CPython's compiler gives up on with RecursionError
    (which depth does it depends on the version, so it is raised here)
    is handled like a SyntaxError: the whole image runs interpreted."""
    import repro.interp.compile as tier

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded "
                             "during compilation")
    monkeypatch.setattr(tier, "compile", too_deep, raising=False)
    prog = compile_source(SRC_LOOP)
    assert tier.compiled_functions(prog) is None
    assert VM(prog, prog.main_index)._cfns is None
    t, _, _ = drive(prog, compiled=True)
    assert t[-1][0] == "DONE"


_DISPATCH_LINE = re.compile(r"\s*(if|while) (\d+ <= )?b (==|<|>=|<=) \d+:")
#: What a block body sits under: its ladder guard, or the guard of a
#: loop whose blocks all merged into the header.
_BLOCK_GUARD = re.compile(r"\s*if b == \d+:")
_LOCAL_STORE = re.compile(r"\s*L\[(\d+)\] = l\1 = ")
#: A collapsed loop's resident slots going back to the frame at an exit.
_WRITE_BACK = re.compile(r"\s*L\[(\d+)\](, L\[\d+\])* = l\1(, l\d+)*$")
#: The header of a collapsed loop, with or without a resident set, over
#: the trips the budget allows or, of the counted shape, over those its
#: test lets run.
_COLLAPSED = re.compile(r"( *)if b == \d+:\n"
                        r"\1 _n = budget if budget > 0 else 1\n"
                        r"(\1 _m, _k = _trips\(l\d+, \S+, _n, [01]\)\n)?"
                        r"\1 (try:\n\1  )?for _t in range\(_[nm]\):\n")


def _line_hits(src):
    """Run ``src`` generated with always-hit hooks under line tracing:
    (source lines of ``main``, line number -> times executed)."""
    prog = compile_generated(src)
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


def test_inner_loop_cost_is_independent_of_its_position():
    """An iteration of a loop stays inside that loop's ``while``: it
    costs the same dispatch lines whether the loop is the 1st or the
    200th of its siblings, and about one per block it runs."""
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


def test_private_scalar_loop_runs_on_python_locals():
    """What the ``vm_dense`` claim rests on: a trip of a loop over
    private scalars is no dispatch (the collapsed loop tests ``b`` once
    on the way in), no charge and no budget step (the ``for`` counts
    the trips, and the exits settle both), no register copy of a local
    used once on the next line, and no frame access at all -- x, y and
    k are resident and reach the frame where the loop exits;
    ``min``/``max`` name their literal operand in place.  The loop is
    counted: its trips are worked out on entry, so a trip neither tests
    nor steps ``k`` -- no line of it names ``k`` at all."""
    trip = _lines_of_one_iteration(_dense_loop)
    prog = compile_generated(_dense_loop(5))
    k = prog.funcs[prog.main_index].local_names.index("k")
    assert [t for t in trip if re.search(r"\bl%d\b" % k, t)] == []
    assert len(trip) == 5                   # the for and four assignments
    assert [t for t in trip if _DISPATCH_LINE.match(t)] == []
    assert [t for t in trip if t.lstrip().startswith("c = c + ")] == []
    assert [t for t in trip if "budget" in t] == []
    assert [t for t in trip if re.match(r"\s*s\d+ = l\d+$", t)] == []
    assert sum(t.lstrip().startswith("for _t in ") for t in trip) == 1
    assert [t for t in trip if "L[" in t] == []
    assert any("if s0 > -3.0 else -3.0" in t for t in trip)
    assert any("if s0 < 3.0 else 3.0" in t for t in trip)
    assert not any(re.match(r"\s*s\d+ = -?3\.0$", t) for t in trip)


def test_loop_with_shared_accesses_dispatches_once_per_access():
    """A resume may land behind every shared access, so each one ends a
    ladder block; a trip pays the ``while`` and one guard per block."""
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
            for f in compile_generated(make_program(seed)).funcs)
        for seed in range(30))
    assert seeds >= 10


#: Ceilings on the bytes of generated source per image, all functions
#: of the image together: each image as it compiles with one entry
#: statement a function and one exit helper a yield (255 027 in all).
_SOURCE_BYTES = {
    ("bt", "test"): 32416, ("bt", "bench"): 32422,
    ("cg", "test"): 12947, ("cg", "bench"): 12943,
    ("ep", "test"): 3851, ("ep", "bench"): 3852,
    ("lu", "test"): 14014, ("lu", "bench"): 14014,
    ("mg", "test"): 31275, ("mg", "bench"): 60463,
    ("sp", "test"): 18412, ("sp", "bench"): 18418,
}


#: An exit of a function's body: one ``return`` through an exit helper.
_HELPER_EXIT = re.compile(
    r"\s*return _(leave|miss|call|ret)\(.*\), budget( - _n)?$")


def _assert_strict_shape(text, n_locals):
    """The emitter's one shape: above the ``while 1:`` a function binds
    every frame slot in one statement and the registers by a chain on
    ``len(S)``, with no ``if b <`` tree of resume stubs; below it every
    ``return`` goes through an exit helper, and no line syncs
    ``frame.pc`` or the stack or sets ``_pending_push`` itself."""
    head, body = text.split("  while 1:\n")
    bindings = [line for line in head.split("\n")
                if re.fullmatch(r"\s*(l\d+, )+= L", line)]
    every = " %s= L" % "".join("l%d, " % k for k in range(n_locals))
    assert bindings == ([every] if n_locals else [])
    # ``if b < 0:`` is the deopt; a stub tree tests ids past it.
    assert not re.search(r"^\s*if b (<|>=) (?!0:)", head, re.M)
    assert "L[" not in head
    for line in text.split("\n"):
        assert "frame.pc =" not in line, line
        assert "del S[:]" not in line and "S[:] =" not in line, line
        assert "_pending_push" not in line, line
    returns = [line for line in body.split("\n")
               if line.lstrip().startswith("return ")]
    assert returns
    for line in returns:
        assert _HELPER_EXIT.match(line), line
    # Locals are Python locals everywhere past the entry statement,
    # written through or written back over a collapsed loop's resident
    # set.  The catch-all is the one ``while 1:``, no loop is a ``while``
    # on its header's guard, and the trips of a collapsed loop never
    # re-test the guard it was entered by.
    assert text.count("while 1:") == 1
    lines = text[text.index("  while 1:"):].split("\n")
    for above, line in zip(lines, lines[1:]):
        assert ("L[" not in line or _LOCAL_STORE.match(line)
                or _WRITE_BACK.match(line)), line
        assert not re.match(r"\s*while b == \d+:", line), line
        assert not (above.lstrip().startswith("for _t in range(")
                    and _BLOCK_GUARD.match(line)), line


@pytest.mark.parametrize("bench,size", sorted(_SOURCE_BYTES))
def test_registry_kernels_compile_strict_and_stay_small(bench, size):
    """Every registry image compiles to generated code under its byte
    ceiling, in the emitter's one shape (:func:`_assert_strict_shape`);
    so do its A-stream versions, which are no larger than the full
    ones."""
    from repro.npb import REGISTRY
    prog = compile_generated(REGISTRY[bench].source(
        **REGISTRY[bench].params(size)))
    nbytes = sum(len(f.gen_src[0]) for f in prog.funcs)
    assert nbytes <= _SOURCE_BYTES[bench, size]
    a_texts = [generate_source(f, "A", prog.globals)[0] for f in prog.funcs]
    assert sum(map(len, a_texts)) <= nbytes
    for f, a_text in zip(prog.funcs, a_texts):
        _assert_strict_shape(f.gen_src[0], f.n_locals)
        _assert_strict_shape(a_text, f.n_locals)


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
def test_examples_identical_under_strict_mode(shape):
    if shape is None:
        src = _CONSTRUCTS
    else:
        path, constant = shape[:2]
        src = (getattr(load(path), constant) if constant
               else (EXAMPLES / path).read_text())
        for extent, here in shape[2:]:
            assert extent in src
            src = src.replace(extent, here)
    prog = compile_generated(src)
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


_A_TRAP = """
int z;
double out[64];
int i;
void main() {
    #pragma omp parallel
    {
        int d;
        if (astream_probe() == 1) d = z; else d = z + 1;
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) out[i] = 7 / d * 2;
    }
}
"""


def test_a_stream_traps_in_a_dropped_store_value_alike(monkeypatch):
    """An A-stream's store value is dropped, but the int division by a
    shared zero under it can raise, so its A-stream version still
    evaluates it: each A-stream parks at the cycle it parks at when
    every stream interprets, and the run's cycles and recoveries are
    the same."""
    prog = compile_generated(_A_TRAP)
    region = prog.funcs[prog.func_index["main._region1"]]
    a_text = generate_source(region, "A", prog.globals)[0]
    assert re.search(r"^\s*_div\(7, l\d+\)$", a_text, re.M)
    assert "_MemWrite(1, l1, 0.0)" in a_text
    assert_a_streams_park_alike(_A_TRAP, monkeypatch)


def assert_a_streams_park_alike(src, monkeypatch, **kw):
    """One slipstream run of ``src`` on 4 CMPs on the reference
    interpreter, one on generated code: equal cycles, recoveries and
    parks (which A-stream, at which cycle), and every A-stream parked."""
    from repro.runtime.machine import Machine, run_program
    runs = {}
    for setting in ("", None):
        if setting is None:
            monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        else:
            monkeypatch.setenv("REPRO_HOTPATH", setting)
        reset_for_tests()
        parks = []
        real = Machine.note_parked

        def spy(machine, shell, _parks=parks, _real=real):
            _parks.append((shell.name, shell.engine.now))
            _real(machine, shell)
        monkeypatch.setattr(Machine, "note_parked", spy)
        r = run_program(compile_source(src), mode="slipstream",
                        cfg=PAPER_MACHINE.with_(n_cmps=4), **kw)
        monkeypatch.setattr(Machine, "note_parked", real)
        runs[setting] = (r.cycles, len(r.recoveries), parks)
    reset_for_tests()
    assert runs[None] == runs[""]
    assert len(runs[None][2]) == 4          # every A-stream parked


_A_MOD_STORE = """
int z;
int out[64];
int i;
void main() {
    #pragma omp parallel
    {
        int d;
        d = z + 5;
        #pragma omp for
        for (i = 0; i < 64; i = i + 1) out[i] = d % 1000;
    }
}
"""

_A_MOD_REDUCE = """
int z;
int s;
int i;
void main() {
    #pragma omp parallel
    {
        int d;
        d = z + 5;
        #pragma omp for reduction(+: s)
        for (i = 0; i < 64; i = i + 1) s = s + mod(d, 1000.0);
    }
}
"""


@pytest.mark.parametrize("src, kept", [
    (_A_MOD_STORE, "x = _mod(l{d}, 1000)"),
    (_A_MOD_REDUCE, "_mod(l{d}, 1000.0)")], ids=["percent", "mod"])
def test_a_stream_traps_on_an_injected_inf_mod_a_literal_alike(
        src, kept, monkeypatch):
    """``%`` and ``mod`` by a nonzero literal can raise: an int-typed
    slot can hold the ``inf`` that ``a_corrupt`` injects, and
    ``fmod(inf, 1000)`` is a ``ValueError``.  So an A-stream version
    still evaluates one whose value only a shared store or a reduction
    uses, and each A-stream, its ``d`` set to ``inf`` once in the
    region, parks at the cycle it parks at when every stream
    interprets."""
    from repro.faults import _CORRUPT_VALUES, FaultConfig
    from repro.runtime.shell import ThreadShell
    assert math.inf in _CORRUPT_VALUES
    prog = compile_generated(src)
    region = prog.funcs[prog.func_index["main._region1"]]
    d = region.local_names.index("d")
    a_text = generate_source(region, "A", prog.globals)[0]
    assert kept.format(d=d) in map(str.strip, a_text.splitlines())

    hit = set()

    def inject(shell):
        # In place of an armed shell's draws: ``d`` becomes ``inf`` once
        # a shell, at its first event in the region after ``d = z + 5``.
        frame = shell.vm.frames[-1] if shell.vm.frames else None
        if (frame is not None and frame.code.name == region.name
                and shell not in hit and frame.locals[d] == 5):
            hit.add(shell)
            frame.locals[d] = math.inf
        return
        yield
    monkeypatch.setattr(ThreadShell, "_inject_faults", inject)
    assert_a_streams_park_alike(src, monkeypatch,
                                faults=FaultConfig(0, classes=("vm",)))


def test_private_recurrence_is_dropped_from_the_a_stream():
    """The ``vm_dense`` loop as an A-stream: ``x`` and ``y`` only reach
    the shared store after the loop, so its A-stream version stores
    neither, runs no trip of the counted loop (``_t = _m`` with no
    ``for``), and hands the store ``0.0``; every event, cycle and needed
    value is the interpreter's."""
    prog = compile_generated(_dense_loop(50))
    main = prog.funcs[prog.main_index]
    a_text = generate_source(main, "A", prog.globals)[0]
    assert "for _t in range(_m):" in main.gen_src[0]
    assert "for _t in " not in a_text
    x, y = (main.local_names.index(v) for v in ("x", "y"))
    assert not re.search(r"\bl(%d|%d) = " % (x, y), a_text)
    assert "_MemWrite(0, l0, 0.0)" in a_text
    assert compiled_functions(prog, "A")[prog.main_index] is not \
        compiled_functions(prog)[prog.main_index]
    for fast in (False, True):
        assert_same_a_run(prog, fast)


_SHORT_CIRCUIT = """
double arr[8];
int gb;
void main() {
    int i; double x; int q; int r;
    x = 0.5;
    for (i = 0; i < 8; i = i + 1) {
        x = x * 1.25 + 0.5;
        q = (x > 2.0) && (i < 5);
        r = (x < 1.0) || (i == 3) || (x > 100.0);
        gb = q + r;
        arr[i] = q * 2.0;
        if ((x > 3.0) || (i == 6)) { arr[0] = x; }
    }
    print(q, r);
}
"""


def test_a_stream_drops_a_value_its_block_hands_on():
    """An ``||`` leaves its value on the stack for the block it joins,
    and ``r`` only reaches a store and a print: the A-stream version
    puts ``0.0`` in that register instead of the last comparison, and
    every event, cycle and needed value is still the interpreter's."""
    prog = compile_generated(_SHORT_CIRCUIT)
    main = prog.funcs[prog.main_index]
    a_text = generate_source(main, "A", prog.globals)[0]
    assert "s0 = (1 if l1 > 100.0 else 0)" in main.gen_src[0]
    assert "s0 = 0.0" in a_text
    for fast in (False, True):
        assert_same_a_run(prog, fast)


def test_a_stream_versions_are_built_lazily_and_shared():
    """The A-stream versions are made on the first A-stream VM, never
    with the image: ``attach_generated`` and a full-version VM leave no
    A cache on the program.  A function whose A-stream text is its full
    text is the full version's callable."""
    prog = compile_generated(SRC_LOOP + _A_CALLEE)
    VM(prog, prog.main_index)
    assert not hasattr(prog, "_afns")
    a_fns, r_fns = compiled_functions(prog, "A"), compiled_functions(prog)
    assert compiled_functions(prog, "A") is a_fns
    same = [generate_source(f, "A", prog.globals)[0] == f.gen_src[0]
            for f in prog.funcs]
    assert True in same and False in same
    for fa, fr, is_same in zip(a_fns, r_fns, same):
        assert (fa is fr) == is_same


_A_CALLEE = """
int twice(int v) { return v + v; }
"""


def _campaign(**spec):
    """One fault campaign on the reference interpreter, then on
    generated code: each run's (cycles, rt_stats, firings, recoveries),
    keyed by the ``REPRO_HOTPATH`` setting, and the VMs of the
    generated-code run -- every one built, and those restored or
    corrupted."""
    vms = {"__init__": [], "restore": [], "corrupt": []}
    outcomes = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in vms.items():
            def spy(vm, *args, _real=getattr(VM, name), _seen=seen,
                    **kwargs):
                _seen.append(vm)
                return _real(vm, *args, **kwargs)
            mp.setattr(VM, name, spy)
        for setting in ("", None):
            if setting is None:
                mp.delenv("REPRO_HOTPATH", raising=False)
            else:
                mp.setenv("REPRO_HOTPATH", setting)
            reset_for_tests()
            for seen in vms.values():
                seen.clear()
            r = execute_spec(RunSpec.make(
                "cg", "G0", size="test", verify=True, timeout_cycles=5e6,
                **spec)).result
            outcomes[setting] = (r.cycles, r.rt_stats, r.faults["fired"],
                                 r.recoveries)
    reset_for_tests()
    return outcomes, vms


def test_fault_armed_shells_keep_generated_code():
    """Armed A-stream faults corrupt VMs and send them through
    recovery, and every VM keeps generated code to the end (a
    ``_DEOPT`` would have dropped it): each is between events when
    it is touched, at a pc generated code resumes at.  The campaigns'
    results are those of interpreting everything.  (Seed 4 fires two
    spurious faults, seed 6 a corruption as well.)"""
    from repro.faults import FaultConfig
    touched = {"restore": 0, "corrupt": 0}
    for seed in (4, 6):
        outcomes, vms = _campaign(
            cfg=PAPER_MACHINE.with_(n_cmps=4),
            faults=FaultConfig(seed, classes=("vm",)))
        assert all(vm._cfns is not None for vm in vms["__init__"])
        assert outcomes[None] == outcomes[""]
        for kind in touched:
            touched[kind] += len(vms[kind])
    assert touched["restore"] and touched["corrupt"]


@pytest.mark.parametrize("classes, schedule", [
    (("net",), None), (("channel",), ("dynamic", 4))],
    ids=["net", "channel"])
def test_plans_without_a_stream_kinds_keep_generated_code(classes,
                                                          schedule):
    """A plan that schedules no A-stream kind -- ``net`` jitter fires in
    the network interfaces, ``channel`` faults in the pair channel --
    leaves every VM on generated code too; the campaign's cycles,
    firings and recoveries are those of interpreting everything."""
    from repro.faults import FaultConfig
    # The default 16 CMPs: at 4, CG serves too few NI requests to
    # reach the jitter window.
    outcomes, vms = _campaign(schedule=schedule,
                              faults=FaultConfig(4, classes=classes))
    assert vms["__init__"]
    assert all(vm._cfns is not None for vm in vms["__init__"])
    assert outcomes[None][2], "the campaign fired nothing"
    assert outcomes[None] == outcomes[""]
