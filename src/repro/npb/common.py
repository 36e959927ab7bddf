"""Mini-NPB kernel infrastructure.

The paper evaluates the OpenMP port of NAS Parallel Benchmarks 2.3 (BT,
CG, LU, MG, SP), with problem sizes scaled so that (a) simulation time
stays reasonable and (b) the machine operates where "communication
starts to dominate execution time".  We do the same: each kernel here is
a scaled-down SlipC program that preserves its parent benchmark's
*sharing and communication pattern* (see each module's docstring for
the fidelity argument), paired with a NumPy reference implementation
used to verify every simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from ..compiler import CompiledProgram, compile_source

__all__ = ["KernelSpec", "Registry", "REGISTRY", "register", "lcg_indices"]


@dataclass
class KernelSpec:
    """One mini-NPB benchmark: source builder + reference + verifier."""

    name: str
    description: str
    #: builds SlipC source for a given size class
    source: Callable[..., str]
    #: NumPy reference: returns {array_name: expected ndarray}
    reference: Callable[..., Dict[str, np.ndarray]]
    #: size-class keyword arguments: "test" (tiny), "bench" (paper runs)
    sizes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: relative tolerance for verification (reduction order effects)
    rtol: float = 1e-9

    def compile(self, size: str = "test", **overrides) -> CompiledProgram:
        """Compile this kernel at a size class (with overrides).

        Served through the content-addressed compile cache: the key is
        the generated source (which embeds every parameter) plus the
        compiler fingerprint, so a sweep compiles each distinct
        (bench, size, params) point once per process (the cache is in
        memory only).
        """
        params = dict(self.sizes[size])
        params.update(overrides)
        from .cache import COMPILE_CACHE
        return COMPILE_CACHE.get_or_compile(self.source(**params))

    def params(self, size: str = "test", **overrides) -> Dict[str, int]:
        """Resolved size-class parameters (with overrides)."""
        params = dict(self.sizes[size])
        params.update(overrides)
        return params

    def verify(self, store, size: str = "test", **overrides) -> None:
        """Assert the run's globals match the NumPy reference."""
        params = self.params(size, **overrides)
        expected = self.reference(**params)
        for name, want in expected.items():
            got = np.asarray(store.array(name), dtype=float).reshape(
                np.asarray(want).shape)
            if not np.allclose(got, want, rtol=self.rtol, atol=1e-12):
                worst = np.max(np.abs(got - want))
                raise AssertionError(
                    f"{self.name}: array {name!r} mismatch "
                    f"(max abs err {worst:g})")


class Registry(dict):
    """Name -> KernelSpec mapping with duplicate protection."""
    def add(self, spec: KernelSpec) -> KernelSpec:
        """Register a kernel spec under its name."""
        if spec.name in self:
            raise ValueError(f"duplicate kernel {spec.name!r}")
        self[spec.name] = spec
        return spec


#: All mini-NPB kernels, keyed by lowercase name (bt, cg, lu, mg, sp).
REGISTRY = Registry()


def register(spec: KernelSpec) -> KernelSpec:
    """Add a spec to the global REGISTRY (import-time hook)."""
    return REGISTRY.add(spec)


# The sparse kernels need identical pseudo-random structure in SlipC and
# NumPy.  Both sides implement this exact LCG.
LCG_A = 1103515245
LCG_C = 12345
LCG_M = 2 ** 31


def lcg_indices(n_rows: int, nnz_per_row: int, n_cols: int) -> np.ndarray:
    """Column indices of the synthetic sparse matrix, row-major."""
    out = np.empty((n_rows, nnz_per_row), dtype=np.int64)
    seed = 1
    for i in range(n_rows):
        for k in range(nnz_per_row):
            seed = (LCG_A * seed + LCG_C) % LCG_M
            out[i, k] = seed % n_cols
    return out
