"""Tests for semantic analysis: the shared/private classification that
the paper identifies as OpenMP's key enabler for slipstream."""

import pytest

from repro.lang import SemanticError, analyze, parse


def region_info(src):
    info = analyze(parse(src))
    assert len(info.regions) == 1
    return info.regions[0]


def test_global_refs_classified_shared():
    ri = region_info("""
double data[64];
double coef;
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 64; i = i + 1) data[i] = coef * i;
}
""")
    assert ri.shared_refs == {"data", "coef"}
    assert "i" in ri.private                 # auto-private loop var


def test_clause_privates_recorded():
    ri = region_info("""
double a[8];
double t;
int i, j;
void main() {
    #pragma omp parallel private(j) firstprivate(t)
    {
        #pragma omp for
        for (i = 0; i < 8; i = i + 1) a[i] = t + j;
    }
}
""")
    assert "j" in ri.private
    assert "t" in ri.firstprivate
    assert ri.shared_refs == {"a"}


def test_region_locals_are_private_not_shared():
    ri = region_info("""
double a[8];
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 8; i = i + 1) {
        double tmp;
        tmp = i * 2.0;
        a[i] = tmp;
    }
}
""")
    assert "tmp" not in ri.shared_refs


def test_enclosing_locals_captured():
    ri = region_info("""
double a[8];
int i;
void main() {
    int n;
    double scale;
    n = 8; scale = 0.5;
    #pragma omp parallel for
    for (i = 0; i < n; i = i + 1) a[i] = i * scale;
}
""")
    assert ri.captured == {"n", "scale"}


def test_reductions_and_schedules_recorded():
    ri = region_info("""
double s;
int i;
void main() {
    #pragma omp parallel for reduction(+: s) schedule(dynamic, 4)
    for (i = 0; i < 8; i = i + 1) s = s + i;
}
""")
    assert ri.reductions[0].op == "+"
    assert ri.schedules[0].kind == "dynamic"
    assert ri.schedules[0].chunk == 4


def test_undeclared_in_region_rejected():
    with pytest.raises(SemanticError):
        analyze(parse("""
int i;
void main() {
    #pragma omp parallel for
    for (i = 0; i < 8; i = i + 1) ghost = i;
}
"""))


def test_worksharing_outside_region_rejected():
    for frag in ("#pragma omp for\nfor (i = 0; i < 4; i = i + 1) { }",
                 "#pragma omp barrier",
                 "#pragma omp single\n{ }",
                 "#pragma omp critical\n{ }"):
        with pytest.raises(SemanticError):
            analyze(parse("int i;\nvoid main() {\n%s\n}" % frag))


_TWO_CAPTURED_WRITES = """
void main() {
    int a; int b;
    a = 0; b = 0;
    #pragma omp parallel
    { b = 1; a = 2; }
}
"""


def test_captured_write_error_names_the_same_local_under_every_seed():
    """Two captured enclosing locals written in one region: the error
    names the first in sorted order, whatever ``PYTHONHASHSEED`` makes
    of the sets the region's facts live in."""
    import os
    import subprocess
    import sys
    probe = ("import sys\n"
             "from repro.lang import SemanticError, analyze, parse\n"
             "try:\n"
             "    analyze(parse(sys.stdin.read()))\n"
             "except SemanticError as e:\n"
             "    print(e)\n")
    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    messages = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", probe],
                              input=_TWO_CAPTURED_WRITES, env=env,
                              capture_output=True, text=True, check=True)
        messages.add(done.stdout)
    (message,) = messages
    assert "'a' is a captured enclosing local" in message


def test_shared_clause_must_name_global():
    with pytest.raises(SemanticError):
        analyze(parse("""
void main() {
    int x;
    #pragma omp parallel shared(x)
    { }
}
"""))


def test_void_variable_rejected():
    with pytest.raises(SemanticError):
        analyze(parse("void x;\nvoid main() { }"))


def test_main_required():
    with pytest.raises(SemanticError):
        analyze(parse("int f() { return 1; }"))


def test_duplicate_global_rejected():
    with pytest.raises(SemanticError):
        analyze(parse("int a;\ndouble a;\nvoid main() { }"))


def test_function_global_name_clash_rejected():
    with pytest.raises(SemanticError):
        analyze(parse("int f;\nint f() { return 0; }\nvoid main() { }"))


def test_intrinsic_arity_checked():
    with pytest.raises(SemanticError):
        analyze(parse("double x;\nvoid main() { x = sqrt(1.0, 2.0); }"))


def test_walk_helpers():
    """The facts one walk gathers on a region body: names read
    (assignment targets included), assigned and declared."""
    ri = region_info("""
double a[4];
int i;
void main() {
    #pragma omp parallel
    {
        int k;
        k = 2;
        a[k] = a[k - 1] + i;
    }
}
""")
    assert ri.reads == {"a", "k", "i"}
    assert ri.writes == {"k", "a"}
    assert ri.declared == {"k"}
