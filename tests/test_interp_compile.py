"""Generated code (``REPRO_HOTPATH`` token ``compile``, the default):
the exec'd functions must be observationally identical to the reference
interpreter loop.

The contract under test is *bit-identity of the event/cycle stream*:
for any program, driving a VM whose Codes run as generated Python
functions must produce exactly the same sequence of events -- same
types, same payloads, and same ``take_cycles()`` reading at every
yield point -- as the tuple-dispatch interpreter, plus the same final
memory image.  A seeded random-program sweep covers the combinatorial
space; directed tests pin the deopt edges (restore, corrupt, armed
faults, profiling, wild pc) where the tier must step aside without
perturbing a single cycle.
"""

import random
import re
import sys

import pytest

from repro.compiler import compile_source
from repro.compiler.optimize import optimize_code
from repro.config import PAPER_MACHINE
from repro.harness import RunSpec, execute_spec
from repro.hotpath import reset_for_tests
from repro.interp import VM, Done, IoOut, MemRead, MemWrite, RtCall
from repro.interp.compile import attach_generated
from repro.interp.events import TimeSlice
from repro.interp.interpreter import MISS, VMError
from repro.obs.profile import TrackProfile

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


def drive(prog, compiled, fast=False):
    """Run to Done, logging every (event, cycles) pair; optionally with
    fast-path hooks that hit on even flat indices and miss on odd."""
    vm = VM(prog, prog.main_index)
    if not compiled:
        vm.disable_compiled()
    store = new_store(prog)
    if fast:
        def fast_read(g, flat):
            if flat % 2 == 0:
                v = store[g]
                return v[flat] if isinstance(v, list) else v
            return MISS

        def fast_write(g, flat, val):
            if flat % 2:
                return False
            v = store[g]
            if isinstance(v, list):
                v[flat] = val
            else:
                store[g] = val
            return True
        vm.fast_read = fast_read
        vm.fast_write = fast_write
    trace = []
    for _ in range(200_000):
        ev = vm.run()
        c = vm.take_cycles()
        k = type(ev)
        if k is MemRead:
            trace.append(("R", ev.gidx, ev.flat, c))
            v = store[ev.gidx]
            vm.push(v[ev.flat] if isinstance(v, list) else v)
        elif k is MemWrite:
            trace.append(("W", ev.gidx, ev.flat, ev.value, c))
            v = store[ev.gidx]
            if isinstance(v, list):
                v[ev.flat] = ev.value
            else:
                store[ev.gidx] = ev.value
        elif k is IoOut:
            trace.append(("IO", ev.values, c))
        elif k is TimeSlice:
            trace.append(("TS", c))
        elif k is RtCall:
            trace.append(("RT", ev.name, ev.args, c))
            vm.push(0)
        elif k is Done:
            trace.append(("DONE", ev.value, c))
            return trace, store, vm
    raise AssertionError("program did not terminate")


def assert_same_drive(run_a, run_b, a_vs_b):
    """Two ``drive`` results: equal events and cycles, equal stores."""
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
            run = drive(fused, compiled=False, fast=fast)
            assert_same_drive(run, drive(unfused, compiled=False, fast=fast),
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
    t_c, s_c, _ = drive(prog, compiled=True)
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


def test_division_trap_identical():
    src = "int z;\nvoid main() { int a; a = 7; z = 0; a = a / z; }"
    prog = compile_source(src)

    def crash(compiled):
        vm = VM(prog, prog.main_index)
        if not compiled:
            vm.disable_compiled()
        store = {0: 0}
        try:
            while True:
                ev = vm.run()
                if isinstance(ev, MemRead):
                    vm.push(store.get(ev.gidx, 0))
                elif isinstance(ev, MemWrite):
                    store[ev.gidx] = ev.value
                elif isinstance(ev, Done):
                    return ("done",)
        except VMError as e:
            return ("trap", str(e), vm.pending_cycles)

    assert crash(True) == crash(False)
    assert crash(True)[0] == "trap"


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
_BLOCK_GUARD = re.compile(r"\s*if b == \d+:")


def _dispatch_counts(src):
    """Run ``src`` generated with always-hit hooks under line tracing:
    (dispatch lines executed, block bodies entered) inside ``main``."""
    prog = compile_source(src)
    main = prog.funcs[prog.main_index]
    text = main.gen_src[0].split("\n")
    vm = VM(prog, prog.main_index)
    fn_code = vm._cfns[prog.main_index].__code__
    store = new_store(prog)
    vm.fast_read = lambda g, flat: (
        store[g][flat] if isinstance(store[g], list) else store[g])

    def fast_write(g, flat, val):
        if isinstance(store[g], list):
            store[g][flat] = val
        else:
            store[g] = val
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
    dispatch = sum(n for ln, n in hits.items()
                   if _DISPATCH_LINE.match(text[ln - 1]))
    entered = sum(hits.get(ln + 1, 0) for ln in hits
                  if _BLOCK_GUARD.match(text[ln - 1]))
    return dispatch, entered


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


# ------------------------------------------------- machine-level identity

def test_benchmark_identical_with_tier_on_and_off(monkeypatch):
    """Full runtime path (slipstream shells, rt ops, faults disarmed):
    cycles, rt_stats and breakdowns are tier-invariant."""
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
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
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
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
