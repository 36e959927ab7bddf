"""Tests for the bytecode peephole optimizer: targeted folds plus
whole-corpus semantic equivalence."""

import numpy as np
import pytest

from repro.compiler import compile_source
from repro.compiler.optimize import optimize_code, optimize_program
from repro.interp import FunctionalRunner
from repro.npb import REGISTRY


def instrs(src, optimize):
    img = compile_source(src, optimize=optimize)
    return img.funcs[img.main_index].instrs


def test_constant_folding_collapses_arithmetic():
    src = "double x;\nvoid main() { x = 2.0 * 3.0 + 4.0; }"
    unopt = instrs(src, optimize=False)
    opt = instrs(src, optimize=True)
    assert len(opt) < len(unopt)
    consts = [i[1] for i in opt if i[0] == "const"]
    assert 10.0 in consts
    assert not any(i[0] == "binop" for i in opt[:3])


def test_unary_minus_folded():
    opt = instrs("double x;\nvoid main() { x = -(5.0); }", optimize=True)
    assert ("const", -5.0) in opt
    assert not any(i[0] == "unop" for i in opt)


def test_if_zero_branch_folded():
    src = """
double x;
void main() {
    if (0) x = 1.0;
    x = 2.0;
}
"""
    opt = instrs(src, optimize=True)
    unopt = instrs(src, optimize=False)
    assert len(opt) < len(unopt)
    # The dead store to 1.0 is jumped over; 2.0 still happens.
    r = FunctionalRunner(compile_source(src)).run()
    assert r.store.value("x") == 2.0


def test_if_one_condition_removed():
    src = """
double x;
void main() {
    if (1) x = 1.0;
}
"""
    opt = instrs(src, optimize=True)
    assert not any(i[0] == "jfalse" for i in opt)
    r = FunctionalRunner(compile_source(src)).run()
    assert r.store.value("x") == 1.0


def test_integer_division_by_zero_not_folded():
    # Folding 1/0 at compile time would hide the runtime trap: the
    # divide survives as a binop and runs (and traps) at runtime.
    opt = instrs("int x;\nvoid main() { x = 1 / 0; }", optimize=True)
    assert ("binop", "/") in opt


def test_string_constants_never_folded():
    src = 'void main() { print("a", 1 + 2); }'
    opt = instrs(src, optimize=True)
    assert ("const", "a") in opt
    assert ("const", 3) in opt


def test_jump_targets_remapped():
    src = """
double x;
void main() {
    int i;
    for (i = 0; i < 3 + 2; i = i + 1) x = x + 1.0;
}
"""
    r = FunctionalRunner(compile_source(src)).run()
    assert r.store.value("x") == 5.0


def test_folding_respects_branch_targets():
    """A const that is itself a branch target must not be absorbed."""
    src = """
double x;
int i;
void main() {
    for (i = 0; i < 4; i = i + 1) {
        x = x + 1.0 * 1.0;
    }
}
"""
    r = FunctionalRunner(compile_source(src)).run()
    assert r.store.value("x") == 4.0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_corpus_equivalence(name):
    """Optimized and unoptimized images of every mini-NPB kernel compute
    identical results (and the optimizer actually removes something)."""
    spec = REGISTRY[name]
    src = spec.source(**spec.sizes["test"])
    plain = compile_source(src, optimize=False)
    tuned = compile_source(src, optimize=True)
    # Never larger; kernels whose generated source pre-computes its
    # constants legitimately have nothing to fold.
    assert tuned.n_instructions <= plain.n_instructions
    r1 = FunctionalRunner(plain).run()
    r2 = FunctionalRunner(tuned).run()
    for g in plain.globals:
        a = np.asarray(r1.store.array(g.name), dtype=float)
        b = np.asarray(r2.store.array(g.name), dtype=float)
        assert np.array_equal(a, b), (name, g.name)


def test_optimize_is_idempotent():
    img = compile_source("double x;\nvoid main() { x = 1.0 + 2.0; }",
                         optimize=True)
    assert optimize_program(img) == 0        # nothing left to do


def test_optimizer_reports_removals():
    img = compile_source("double x;\nvoid main() { x = 1.0 + 2.0 + 3.0; }",
                         optimize=False)
    removed = optimize_program(img)
    assert removed >= 4
