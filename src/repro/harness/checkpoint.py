"""Checkpoint journal and run-result memo store (pipeline stage three).

Both are directories of atomically-published pickled
:class:`~repro.harness.runner.BenchRun` payloads named by unit content
key -- the same content-addressing discipline
:mod:`repro.npb.cache` applies to compiled images, extended to full
simulation results.  The two differ only in scope and lifetime:

* :class:`CheckpointJournal` -- per-sweep, at a caller-chosen path
  (``--resume DIR``).  Every finished unit is journaled the moment its
  result reaches the driver, so a sweep killed mid-run (lost pool, a
  SIGKILLed spool worker, the driver itself dying) resumes from the
  journal: completed units load instantly and only the remainder
  re-executes.  Because entries are keyed by content, a journal can
  never resurrect stale results -- a code or spec change shifts the
  key and the old entry is simply never consulted.

* :class:`MemoStore` -- process- and sweep-spanning, under the shared
  cache root (``REPRO_CACHE_DIR``/``~/.cache/repro``, override with
  ``REPRO_MEMO_DIR``).  A repeated ``(program, config, seed, hotpath,
  faults, code-fingerprint)`` unit is served from the store without
  simulating at all; determinism (cycle counts are a pure function of
  the key -- see :func:`repro.harness.jobs.unit_key`) makes the served
  result bit-identical to a fresh run.

Durability rules: entries publish through
:func:`repro.harness.integrity.publish_frame` -- ``os.replace`` so
readers (other workers, a concurrent resume) never observe a torn
write, plus a sha256 integrity frame so a corrupt entry (bit rot, a
writer SIGKILLed mid-temp-write, an operator truncation) is *detected*
on load, quarantined into ``<root>/corrupt/`` as evidence, recorded as
an ``integrity.corrupt`` telemetry event, and served as a miss --
never an error, and never a silently-wrong memo hit.  The pipeline
journals a memo hit as the frame it just verified (``get_framed`` ->
``put_framed``): the journal's copy is the memo's, byte for byte.
Failed runs are journaled (a resume must not redo a 5e6-cycle hang)
but only *deterministic* failures are memoized: ``hang`` and
``wrong-output`` replay identically, while a ``crash`` may be
environmental (OOM, a signal) and must stay retryable -- as must a
``quarantined`` poison placeholder.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..npb.cache import cache_root
from ..obs.telemetry import NULL_TELEMETRY
from .integrity import frame, publish_frame, read_verified
from .runner import BenchRun

__all__ = ["ResultStore", "CheckpointJournal", "MemoStore",
           "default_memo_dir"]


class ResultStore:
    """A directory of content-keyed, atomically-published results.

    The shared base of the journal and the memo store: ``put`` pickles
    a payload to ``<root>/<key>.run`` via a same-directory temp file +
    ``os.replace`` (atomic on POSIX), ``get`` unpickles it, treating
    any read/decode failure as a miss.  An unwritable root degrades to
    a no-op store rather than failing the sweep.
    """

    suffix = ".run"

    #: The ``what`` label this store's entries carry in quarantine
    #: records (``integrity.corrupt``) and at hazard sites; subclasses
    #: override so journal and memo entries stay distinguishable.
    metric_prefix = "store"

    def __init__(self, root: Path):
        self.root = Path(root)
        #: Telemetry session corrupt entries are recorded through (the
        #: pipeline attaches its own; default is the null session).
        self.telemetry = NULL_TELEMETRY

    def _path(self, key: str) -> str:
        return f"{self.root}{os.sep}{key}{self.suffix}"

    def get_framed(self, key: str) -> Optional[Tuple[BenchRun, bytes]]:
        """The verified stored payload for ``key`` and the frame it was
        read from, or None (miss).

        An entry that fails the integrity check is quarantined into
        ``<root>/corrupt/`` (a logged miss, so the unit simply
        re-executes) -- a hit is only ever served after verification.
        """
        got = read_verified(
            self._path(key), f"{self.root}{os.sep}corrupt",
            self.telemetry, self.metric_prefix, key)
        return got if got and isinstance(got[0], BenchRun) else None

    def get(self, key: str) -> Optional[BenchRun]:
        """The verified stored payload for ``key``, or None (miss)."""
        got = self.get_framed(key)
        return got[0] if got else None

    def put_framed(self, key: str, data: bytes) -> bool:
        """Atomically publish an already framed payload under ``key``;
        False if the store is unwritable (the sweep proceeds without
        durability)."""
        try:
            publish_frame(data, self._path(key), self.metric_prefix)
            return True
        except OSError:
            return False

    def put(self, key: str, run: BenchRun) -> bool:
        """Pickle, frame and :meth:`put_framed` ``run``."""
        return self.put_framed(key, frame(
            pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)))

    def keys(self) -> List[str]:
        """Keys currently published (sorted, for determinism)."""
        if not self.root.is_dir():
            return []
        return sorted(p.name[:-len(self.suffix)]
                      for p in self.root.glob(f"*{self.suffix}"))

    def __contains__(self, key: str) -> bool:
        return os.path.isfile(self._path(key))

    def __len__(self) -> int:
        return len(self.keys())


class CheckpointJournal(ResultStore):
    """Per-sweep resume journal (see module docstring).

    ``load`` is the resume step: given the plan's unit keys it returns
    every already-journaled result, and the pipeline executes only the
    rest.  Keys not in the plan are ignored -- a journal directory may
    be reused across differently-shaped sweeps without harm.
    """

    metric_prefix = "journal"

    def __init__(self, root):
        super().__init__(Path(root))

    def load(self, keys: Iterable[str]) -> Dict[str, BenchRun]:
        """Journaled results for the given unit keys."""
        out: Dict[str, BenchRun] = {}
        for key in keys:
            run = self.get(key)
            if run is not None:
                out[key] = run
        return out

    def record(self, key: str, run: BenchRun) -> bool:
        """Journal one finished unit (atomic; the checkpoint write)."""
        return self.put(key, run)


def default_memo_dir() -> Path:
    """Resolved memo-store directory (``REPRO_MEMO_DIR`` override,
    else ``<cache root>/results`` next to the compile cache)."""
    override = os.environ.get("REPRO_MEMO_DIR")
    if override:
        return Path(override)
    return cache_root() / "results"


class MemoStore(ResultStore):
    """Cross-sweep run-result memo store (see module docstring)."""

    metric_prefix = "memo"

    #: Captured-failure kinds that are pure functions of the unit key
    #: and therefore safe to serve from the store.
    _MEMOIZABLE_ERRORS = ("hang", "wrong-output")

    def __init__(self, root: Optional[Path] = None):
        super().__init__(Path(root) if root is not None
                         else default_memo_dir())

    def memoizable(self, run: BenchRun) -> bool:
        """Should this finished run be published to the store?"""
        if run.error is None:
            return True
        return run.error_kind in self._MEMOIZABLE_ERRORS

    def put(self, key: str, run: BenchRun) -> bool:
        if not self.memoizable(run):
            return False
        return super().put(key, run)
