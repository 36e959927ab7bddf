"""Content-addressed compile cache for the mini-NPB kernels.

Every figure and ablation is a sweep of independent simulations, and
until this layer existed each of those runs re-lexed, re-parsed,
re-outlined and re-codegenned the same SlipC kernel: a 20-run static
sweep compiled each benchmark 4 times over.  The cache keys a compiled
image on the *content* that determines it -- the generated source text
(which embeds bench, size class and every parameter override) plus a
fingerprint of the compiler's own sources -- so a sweep compiles each
kernel exactly once, and any change to a kernel parameter, a kernel
source template, or the compiler itself is an automatic miss.

The cache is an in-process dictionary, shared by every run in a
process -- including a ``PoolTransport`` child, which forks with the
driver's compiled images and compiles each new kernel at most once
over its lifetime.  It has no disk layer: a fresh process recompiles
(tens of milliseconds an image), and the harness's result memo store
is what spares repeated *invocations* their simulations.

Determinism note: compilation is a pure function of the source text, so
serving a cached image cannot change simulated cycle counts -- the same
image object is what a fresh compile would have produced.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, Optional

from ..compiler import CompiledProgram, compile_source

__all__ = ["CompileCache", "COMPILE_CACHE", "compiler_fingerprint",
           "cache_stats", "clear_cache", "cache_root"]

#: Modules whose sources determine what the compiler produces.  Any
#: edit to one of them changes the fingerprint and invalidates every
#: cached image.
_COMPILER_PACKAGES = ("lang", "compiler")

#: Individual extra files that shape the image beyond the compiler
#: packages: the generated-code emitter writes ``Code.gen_src`` into
#: the image, so its edits must miss the cache too.
_EXTRA_FILES = ("interp/compile.py",)

_fingerprint: Optional[str] = None


def compiler_fingerprint() -> str:
    """Hex digest over the front-end + back-end sources (memoized)."""
    global _fingerprint
    if _fingerprint is None:
        h = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        for pkg in _COMPILER_PACKAGES:
            for path in sorted((root / pkg).glob("*.py")):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        for rel in _EXTRA_FILES:
            path = root / rel
            if path.is_file():
                h.update(rel.encode())
                h.update(path.read_bytes())
        _fingerprint = h.hexdigest()
    return _fingerprint


def cache_root() -> Path:
    """Root of the on-disk content-addressed store: the harness's
    run-result memo store (:class:`repro.harness.checkpoint.MemoStore`)
    lives under ``<root>/results``.  ``REPRO_CACHE_DIR`` overrides the
    default ``~/.cache/repro``."""
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return Path(base)
    return Path.home() / ".cache" / "repro"


class CompileCache:
    """In-memory compile cache keyed by content."""

    def __init__(self):
        self._mem: Dict[str, CompiledProgram] = {}
        self.hits = 0            # served from memory
        self.misses = 0          # compiled fresh

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(source: str) -> str:
        """Content hash of a compile request: source + compiler
        version.  Every image carries generated code, so one image
        serves both engines ``REPRO_HOTPATH`` chooses between."""
        h = hashlib.sha256()
        h.update(compiler_fingerprint().encode())
        h.update(source.encode())
        return h.hexdigest()

    # -- operations ----------------------------------------------------------

    def get_or_compile(self, source: str) -> CompiledProgram:
        """Return the compiled image for ``source``, caching it."""
        key = self.key_for(source)
        image = self._mem.get(key)
        if image is not None:
            self.hits += 1
            return image
        self.misses += 1
        image = compile_source(source)
        self._mem[key] = image
        return image

    def clear(self) -> None:
        """Drop every cached image."""
        self._mem.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (for tests and the perf baseline).
        ``disk_hits`` is always 0, there being no disk layer; it stays
        in the map because the end-to-end benchmark's hit fraction
        sums it."""
        return {"hits": self.hits, "disk_hits": 0,
                "misses": self.misses, "entries": len(self._mem)}


#: Process-wide cache used by :meth:`KernelSpec.compile`.
COMPILE_CACHE = CompileCache()


def cache_stats() -> Dict[str, int]:
    """Counters of the process-wide cache."""
    return COMPILE_CACHE.stats()


def clear_cache() -> None:
    """Reset the process-wide cache (tests)."""
    COMPILE_CACHE.clear()
