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

Two layers:

* an in-process dictionary (always on), shared by every run in a
  process -- including a ``PoolTransport`` worker, which compiles
  each distinct kernel at most once over its lifetime;
* an optional on-disk layer under ``~/.cache/repro/compile`` (override
  with ``REPRO_CACHE_DIR``; disable with ``REPRO_DISK_CACHE=0``) so
  repeated *invocations* -- and sibling pool workers -- share compiles.
  Disk entries are pickled :class:`CompiledProgram` images named by
  their content hash; a hash collision is impossible to observe in
  practice and a corrupt/unreadable entry silently falls back to a
  fresh compile.

Determinism note: compilation is a pure function of the source text, so
serving a cached image cannot change simulated cycle counts -- the same
image object is what a fresh compile would have produced.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional

from ..compiler import CompiledProgram, compile_source
from ..hotpath import hotpath_enabled

__all__ = ["CompileCache", "COMPILE_CACHE", "compiler_fingerprint",
           "cache_stats", "clear_cache", "cache_root"]

#: Modules whose sources determine what the compiler produces.  Any
#: edit to one of them changes the fingerprint and invalidates every
#: cached image (memory and disk alike).
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
    """Root of every on-disk content-addressed layer: compiled images
    live under ``<root>/compile``, the harness's run-result memo store
    (:class:`repro.harness.checkpoint.MemoStore`) under
    ``<root>/results``.  ``REPRO_CACHE_DIR`` overrides the default
    ``~/.cache/repro``."""
    base = os.environ.get("REPRO_CACHE_DIR")
    if base:
        return Path(base)
    return Path.home() / ".cache" / "repro"


def _disk_dir() -> Optional[Path]:
    """Resolved on-disk compile-cache directory, or None when disabled."""
    if os.environ.get("REPRO_DISK_CACHE", "1") == "0":
        return None
    return cache_root() / "compile"


class CompileCache:
    """Two-layer (memory + optional disk) compile cache."""

    def __init__(self, disk_dir: Optional[Path] = None, disk: bool = True):
        self._mem: Dict[str, CompiledProgram] = {}
        self._disk_dir = disk_dir
        self._disk = disk
        self.hits = 0            # served from memory
        self.disk_hits = 0       # served from disk (and promoted)
        self.misses = 0          # compiled fresh

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(source: str) -> str:
        """Content hash of a compile request: source + compiler version
        + whether the image carries generated code.

        ``REPRO_HOTPATH`` changes what ``compile_source`` emits without
        changing any compiler source file, so it must be part of the
        key -- otherwise a disk entry produced with generated code
        would be served to a reference-interpreter run (and vice versa:
        an image without ``gen_src`` would silently drop a default
        process back to the interpreter)."""
        h = hashlib.sha256()
        h.update(compiler_fingerprint().encode())
        h.update(b"compile=1" if hotpath_enabled("compile")
                 else b"compile=0")
        h.update(source.encode())
        return h.hexdigest()

    def _dir(self) -> Optional[Path]:
        if not self._disk:
            return None
        return self._disk_dir if self._disk_dir is not None else _disk_dir()

    # -- operations ----------------------------------------------------------

    def get_or_compile(self, source: str) -> CompiledProgram:
        """Return the compiled image for ``source``, caching it."""
        key = self.key_for(source)
        image = self._mem.get(key)
        if image is not None:
            self.hits += 1
            return image
        image = self._load_disk(key)
        if image is not None:
            self.disk_hits += 1
            self._mem[key] = image
            return image
        self.misses += 1
        image = compile_source(source)
        self._mem[key] = image
        self._store_disk(key, image)
        return image

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory layer (and optionally the disk layer)."""
        self._mem.clear()
        if disk:
            d = self._dir()
            if d is not None and d.is_dir():
                for p in d.glob("*.img"):
                    try:
                        p.unlink()
                    except OSError:
                        pass

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (for tests and the perf baseline)."""
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "entries": len(self._mem)}

    # -- disk layer ----------------------------------------------------------

    def _load_disk(self, key: str) -> Optional[CompiledProgram]:
        d = self._dir()
        if d is None:
            return None
        path = d / f"{key}.img"
        try:
            with open(path, "rb") as fh:
                image = pickle.load(fh)
        # pickle.load on a corrupt entry raises essentially anything
        # (ValueError, IndexError, ... depending on the bytes); a broken
        # cache file must never be worse than a cache miss.
        except Exception:
            return None
        return image if isinstance(image, CompiledProgram) else None

    def _store_disk(self, key: str, image: CompiledProgram) -> None:
        d = self._dir()
        if d is None:
            return
        try:
            d.mkdir(parents=True, exist_ok=True)
            # Atomic publish: never expose a half-written entry to a
            # concurrently reading pool worker.
            fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(image, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, d / f"{key}.img")
        except OSError:
            pass                 # unwritable cache dir: stay memory-only


#: Process-wide cache used by :meth:`KernelSpec.compile`.
COMPILE_CACHE = CompileCache()


def cache_stats() -> Dict[str, int]:
    """Counters of the process-wide cache."""
    return COMPILE_CACHE.stats()


def clear_cache(disk: bool = False) -> None:
    """Reset the process-wide cache (tests; ``disk=True`` wipes files)."""
    COMPILE_CACHE.clear(disk=disk)
