"""Tests for the functional reference executor."""

import io
import pickle
import pickletools

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.harness.jobs import RunSpec, execute_spec
from repro.interp import FunctionalRunner, GlobalStore
from repro.npb import REGISTRY


def run(src, inputs=None):
    return FunctionalRunner(compile_source(src), inputs=inputs).run()


def test_global_store_scalars_and_arrays():
    img = compile_source("""
int n = 3;
double m[2][2];
void main() { m[1][1] = 7.0; }
""")
    store = GlobalStore(img)
    assert store.value("n") == 3
    arr = store.array("m")
    assert arr.shape == (2, 2)
    store.write(img.global_named("m").index, 3, 9.0)
    assert store.array("m")[1, 1] == 9.0


def test_global_store_reads_through_views_and_survives_pickle():
    """Loads go through buffer views over the arrays' own storage: same
    Python types, wrap-around and ``IndexError`` as ``ndarray.item``,
    and a store made through the array shows in the next load.  A
    ``memoryview`` cannot be pickled, and a ``RunResult``'s store
    crosses the pool and the spool as a pickle: the views are dropped
    on the way out and made again on first use."""
    img = compile_source("""
int n = 3;
double m[4];
void main() { }
""")
    store = GlobalStore(img)
    n, m = img.global_named("n").index, img.global_named("m").index
    store.write(m, 3, 2.5)
    store.write(n, 0, 7.9)                 # NumPy truncates into an int
    assert store.read(m, 3) == 2.5         # the views exist from here on
    clone = pickle.loads(pickle.dumps(store))
    assert "views" in vars(store) and "views" not in vars(clone)
    for s in (store, clone):
        got = [s.read(m, 3), s.read(m, -1), s.read(n, 0), s.value("n")]
        assert got == [2.5, 2.5, 7, 7]
        assert [type(v) for v in got] == [float, float, int, int]
        assert got[:3] == [s.arrays[m].item(3), s.arrays[m].item(-1),
                           s.arrays[n].item(0)]
        with pytest.raises(IndexError):
            s.read(m, 4)
        with pytest.raises(TypeError):
            s.read(m, 1.0)
        s.array("m")[0] = 1.25             # same storage, not a copy
        assert s.read(m, 0) == 1.25
    assert store.read(m, 0) == 1.25 and store.views is store.views
    with pytest.raises(TypeError):
        pickle.dumps(store.views[m])


@pytest.mark.parametrize("bench", sorted(REGISTRY))
def test_stored_run_holds_the_numbers_not_the_program(bench):
    """A ``BenchRun`` is pickled on every journal, memo, spool and pool
    hop.  Its store keeps the global declarations (to answer ``array``
    and ``value``), never the compiled program: no bytecode, no
    generated source, and no more than 4 KB beside the arrays."""
    spec = RunSpec.make(bench, "G0", size="test",
                        cfg=PAPER_MACHINE.with_(n_cmps=4))
    run = execute_spec(spec)
    blob = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
    classes = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            classes.add((module, name))
            return super().find_class(module, name)

    back = Recorder(io.BytesIO(blob)).load()
    assert {c for c in classes if c[0].startswith("repro.compiler")} == {
        ("repro.compiler.bytecode", "GlobalDecl")}
    strings = [arg for _, arg, _ in pickletools.genops(blob)
               if isinstance(arg, str)]
    assert not {"CompiledProgram", "Code"} & set(strings)
    assert not [t for t in strings if "\n" in t or "def " in t]
    arrays = pickle.dumps(run.result.store.arrays,
                          protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) <= len(arrays) + 4096
    # the round-tripped store still answers by name, and still verifies
    store = back.result.store
    for g in run.result.store.globals:
        assert np.array_equal(store.array(g.name),
                              run.result.store.array(g.name))
        assert np.array_equal(store.value(g.name),
                              run.result.store.value(g.name))
    REGISTRY[bench].verify(store, "test")
    with pytest.raises(KeyError):
        store.array("no_such_global")


def test_int_arrays_are_integer_typed():
    r = run("""
int idx[4];
void main() {
    int i;
    for (i = 0; i < 4; i = i + 1) idx[i] = i * 2;
}
""")
    arr = r.store.array("idx")
    assert arr.dtype == np.int64
    assert list(arr) == [0, 2, 4, 6]


def test_output_ordering_preserved():
    r = run("""
void main() {
    int i;
    for (i = 0; i < 3; i = i + 1) print("line", i);
}
""")
    assert r.output == [("line", 0), ("line", 1), ("line", 2)]


def test_inputs_consumed_in_order():
    r = run("""
double a, b;
void main() {
    a = read_input();
    b = read_input();
}
""", inputs=[1.5, 2.5])
    assert (r.store.value("a"), r.store.value("b")) == (1.5, 2.5)


def test_input_underflow_raises():
    with pytest.raises(RuntimeError):
        run("double a;\nvoid main() { a = read_input(); }", inputs=[])


def test_worksharing_single_thread_covers_all():
    r = run("""
double a[40];
int i;
void main() {
    #pragma omp parallel for schedule(dynamic, 7)
    for (i = 0; i < 40; i = i + 1) a[i] = 1.0;
}
""")
    assert float(np.sum(r.store.array("a"))) == 40.0


def test_sections_all_run_once():
    r = run("""
double a[3];
void main() {
    #pragma omp parallel sections
    {
        #pragma omp section
        { a[0] = a[0] + 1.0; }
        #pragma omp section
        { a[1] = a[1] + 1.0; }
        #pragma omp section
        { a[2] = a[2] + 1.0; }
    }
}
""")
    assert list(r.store.array("a")) == [1.0, 1.0, 1.0]


def test_max_events_guard():
    img = compile_source("""
double x;
void main() {
    while (1 > 0) { x = x + 1.0; }
}
""")
    with pytest.raises(RuntimeError):
        FunctionalRunner(img).run(max_events=1000)


def test_wtime_monotonic():
    r = run("""
double t1, t2;
void main() {
    int i; double s;
    t1 = omp_get_wtime();
    for (i = 0; i < 100; i = i + 1) s = s + i;
    t2 = omp_get_wtime();
}
""")
    assert r.store.value("t2") >= r.store.value("t1")
