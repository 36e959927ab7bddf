"""Mini-NPB kernel tests: registry hygiene, source generation,
functional correctness against the NumPy references, and simulated
correctness in every execution mode."""

import numpy as np
import pytest

from repro import run_program
from repro.compiler import compile_source
from repro.config import PAPER_MACHINE
from repro.interp import FunctionalRunner
from repro.npb import REGISTRY
from repro.npb.cg import _columns
from repro.npb.common import lcg_indices
from repro.runtime import RuntimeEnv

CFG = PAPER_MACHINE.with_(n_cmps=4)
ALL = sorted(REGISTRY)


def test_registry_has_the_papers_five_benchmarks_plus_ep():
    assert ALL == ["bt", "cg", "ep", "lu", "mg", "sp"]
    from repro.npb import PAPER_SUITE
    assert set(PAPER_SUITE) == {"bt", "cg", "lu", "mg", "sp"}


@pytest.mark.parametrize("name", ALL)
def test_spec_metadata(name):
    spec = REGISTRY[name]
    assert spec.description
    assert set(spec.sizes) >= {"test", "bench"}
    src = spec.source(**spec.sizes["test"])
    assert "#pragma omp parallel" in src


@pytest.mark.parametrize("name", ALL)
def test_functional_matches_numpy_reference(name):
    spec = REGISTRY[name]
    runner = FunctionalRunner(spec.compile("test")).run()
    spec.verify(runner.store, "test")
    assert runner.output                        # each kernel prints a norm


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("mode", ["single", "double", "slipstream"])
def test_simulated_modes_match_reference(name, mode):
    spec = REGISTRY[name]
    r = run_program(spec.compile("test"), cfg=CFG, mode=mode)
    spec.verify(r.store, "test")


@pytest.mark.parametrize("name", ["bt", "cg", "ep", "mg", "sp"])
def test_dynamic_scheduling_matches_reference(name):
    spec = REGISTRY[name]
    env = RuntimeEnv(schedule=("dynamic", 4))
    for mode in ("single", "slipstream"):
        r = run_program(spec.compile("test"), cfg=CFG, mode=mode, env=env)
        spec.verify(r.store, "test")


def test_lu_pipeline_really_pipelines():
    """The LU flags must force cross-thread ordering: with the flag
    waits compiled in, results equal the strictly sequential SSOR."""
    spec = REGISTRY["lu"]
    r = run_program(spec.compile("test"), cfg=CFG, mode="single")
    spec.verify(r.store, "test")     # reference is the sequential sweep


def test_lu_excluded_from_dynamic_suite():
    from repro.harness import DYNAMIC_BENCHMARKS, STATIC_BENCHMARKS
    from repro.npb import PAPER_SUITE
    assert "lu" not in DYNAMIC_BENCHMARKS
    assert set(STATIC_BENCHMARKS) == set(PAPER_SUITE)
    assert "ep" not in STATIC_BENCHMARKS     # extra kernel, not Table 2


def test_cg_matrix_structure_matches_both_sides():
    """The SlipC-embedded hash and the NumPy reference must generate the
    identical sparse structure."""
    spec = REGISTRY["cg"]
    params = dict(n=64, nnz=3, iters=1)
    runner = FunctionalRunner(spec.compile("test", **params)).run()
    got = np.asarray(runner.store.array("acol")).reshape(64, 3)
    assert np.array_equal(got, _columns(64, 3))


def test_lcg_indices_deterministic_and_in_range():
    a = lcg_indices(10, 4, 50)
    b = lcg_indices(10, 4, 50)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 50


@pytest.mark.parametrize("name", ALL)
def test_bench_size_compiles(name):
    spec = REGISTRY[name]
    image = spec.compile("bench")
    # Sanity floor only: every kernel's image is many times larger.
    assert image.n_instructions > 50


def test_mg_rejects_too_coarse_hierarchy():
    with pytest.raises(ValueError):
        REGISTRY["mg"].source(g=16, levels=4)   # coarsest would be 2x2


def test_sp_reference_is_stable():
    """ADI coefficients must keep the field bounded (no blow-up)."""
    ref = REGISTRY["sp"].reference(p=8, g=12, iters=6)
    assert np.isfinite(ref["u"]).all()
    assert np.abs(ref["u"]).max() < 100


def test_bt_reference_is_stable():
    ref = REGISTRY["bt"].reference(p=6, g=10, iters=6)
    for k in ("u1", "u2", "u3"):
        assert np.isfinite(ref[k]).all()
        assert np.abs(ref[k]).max() < 100


def test_verify_detects_corruption():
    spec = REGISTRY["cg"]
    runner = FunctionalRunner(spec.compile("test")).run()
    runner.store.array("p")[0] += 1.0
    with pytest.raises(AssertionError):
        spec.verify(runner.store, "test")


def test_duplicate_registration_rejected():
    from repro.npb.common import KernelSpec, Registry
    reg = Registry()
    spec = KernelSpec("x", "d", lambda: "", lambda: {}, {"test": {}})
    reg.add(spec)
    with pytest.raises(ValueError):
        reg.add(spec)
