"""The host-timing benchmarks' one fixture (``pytest-benchmark``).

``bench_hotpath.py`` and ``bench_overhead_guards.py`` time the
simulator and print their tables.  The paper's exhibits are not here:
``PYTHONPATH=src python benchmarks/exhibits.py [-j N]`` regenerates all
of ``results/``.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run the benchmarked callable exactly once (simulations are long
    and deterministic; statistical repetition adds nothing)."""
    def run(fn, *args, **kw):
        return benchmark.pedantic(fn, args=args, kwargs=kw,
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)
    return run
