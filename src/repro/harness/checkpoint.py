"""Checkpoint journal and run-result memo store (pipeline stage three).

Both are append-only logs of pickled
:class:`~repro.harness.runner.BenchRun` payloads keyed by unit content
key -- the same content-addressing discipline :mod:`repro.npb.cache`
applies to compiled images, extended to full simulation results.  The
two differ only in scope and lifetime:

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

Durability rules.  A store is one file, ``<root>/results.log``: a
20-byte header (``RPLG`` and 16 random bytes that name this log,
written by the append that finds the log empty), then records::

    RPR1 | key length | frame length | crc32 | key | RPF1 frame | ~crc32

The frame is :func:`repro.harness.integrity.frame`'s (sha256-checked
pickle); the crc32 of the envelope and the key opens the record and its
complement closes it.  ``put`` appends one record with one ``os.write`` on a
descriptor opened ``O_CREAT | O_APPEND`` for that record alone (no
descriptor is held, so a root removed mid-sweep is made again), the way
the event log appends a line.  A reader indexes each key's last record by
reading envelopes, refreshes the index from the unread tail on a miss
and in ``keys``/``len``/``in``, and ``pread``s and verifies a record
-- envelope, key, closing crc, sha256 -- before it unpickles it.

A record that fails verification (bit rot, a writer killed
mid-append, an operator truncation) is *detected* on load: its bytes
are kept under ``<root>/corrupt/<key>.run`` as evidence, it is
recorded as an ``integrity.corrupt`` telemetry event and served as a
miss -- never an error, and never a silently-wrong memo hit.  Records
after a torn one are still read (the index resyncs at the next
envelope that verifies), and a later good record for the key heals it.
A record whose envelope itself rotted names no key: it is skipped,
and the key's previous record, if any, serves -- any verified record
of a content key is that key's result.  The pipeline journals a memo
hit as the frame it just verified (``get_framed`` -> ``put_framed``):
the journal's copy is the memo's, byte for byte.  Failed runs are
journaled (a resume must not redo a 5e6-cycle hang) but only
*deterministic* failures are memoized: ``hang`` and ``wrong-output``
replay identically, while a ``crash`` may be environmental (OOM, a
signal) and must stay retryable -- as must a ``quarantined`` poison
placeholder.
"""

from __future__ import annotations

import logging
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..npb.cache import cache_root
from ..obs.telemetry import NULL_TELEMETRY
from . import hazards
from .integrity import frame, unframe
from .runner import BenchRun

__all__ = ["ResultStore", "CheckpointJournal", "MemoStore",
           "default_memo_dir"]

_LOG = logging.getLogger("repro.harness.checkpoint")

#: Log header: marker plus 16 random bytes naming this log, so a reader
#: can tell a log made again under the same name (an ``rm -rf`` of the
#: root mid-sweep; the inode number may be reused) from the one it read.
LOG_MAGIC = b"RPLG"
_LOG_HEAD = len(LOG_MAGIC) + 16
#: Record envelope: marker, key bytes, frame bytes, crc32 of the 14
#: bytes before it and the key.  Its complement closes the record: not
#: the crc itself, which a torn record's expected close can land on when
#: the same key is appended after it.
REC_MAGIC = b"RPR1"
_ENV = struct.Struct(">4sHQI")
_CRC = struct.Struct(">I")
_CHUNK = 1 << 16
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def _record(key: bytes, data: bytes) -> bytes:
    """One log record: envelope, key, frame, closing crc32."""
    pre = _ENV.pack(REC_MAGIC, len(key), len(data), 0)[:-_CRC.size]
    crc = zlib.crc32(pre + key)
    return pre + _CRC.pack(crc) + key + data + _close(crc)


def _close(crc: int) -> bytes:
    """The four bytes that end a record whose envelope has ``crc``."""
    return _CRC.pack(crc ^ 0xFFFFFFFF)


def _envelope(fh, at: int) -> Optional[Tuple[str, int, bytes]]:
    """``(key, record size, closing bytes)`` of the envelope at ``at``
    if it verifies, else None (short, wrong marker, crc mismatch)."""
    fh.seek(at)
    env = fh.read(_ENV.size)
    if len(env) < _ENV.size:
        return None
    magic, klen, flen, crc = _ENV.unpack(env)
    if magic != REC_MAGIC:
        return None
    key = fh.read(klen)
    if len(key) < klen or zlib.crc32(env[:-_CRC.size] + key) != crc:
        return None
    return key.decode("utf-8", "replace"), \
        _ENV.size + klen + flen + _CRC.size, _close(crc)


def _next_envelope(fh, start: int) -> Optional[int]:
    """Offset of the first envelope that verifies at or after
    ``start``, or None: where the index resyncs after damage."""
    pos = start
    while True:
        fh.seek(pos)
        chunk = fh.read(_CHUNK)
        if len(chunk) < _ENV.size:
            return None
        i = chunk.find(REC_MAGIC)
        if i < 0:
            pos += len(chunk) - len(REC_MAGIC) + 1
        elif _envelope(fh, pos + i) is not None:
            return pos + i
        else:
            pos += i + 1


class ResultStore:
    """An append-only log of content-keyed, framed results.

    The shared base of the journal and the memo store: ``put`` pickles
    and frames a payload and appends it as one record of
    ``<root>/results.log``; ``get`` serves the key's last record once
    it verifies, treating any read/verify/decode failure as a miss.  An
    unwritable root degrades to a no-op store rather than failing the
    sweep.
    """

    suffix = ".run"

    #: The ``what`` label this store's records carry in quarantine
    #: records (``integrity.corrupt``) and at hazard sites; subclasses
    #: override so journal and memo records stay distinguishable.
    metric_prefix = "store"

    def __init__(self, root: Path):
        self.root = Path(root)
        #: The log file (``str``: appends stay off pathlib).
        self.path = f"{self.root}{os.sep}results.log"
        #: Telemetry session corrupt records are recorded through (the
        #: pipeline attaches its own; default is the null session).
        self.telemetry = NULL_TELEMETRY
        #: key -> (offset, size) of its last record read so far.
        self._index: Dict[str, Tuple[int, int]] = {}
        #: Offsets of records this reader found damaged: their keys
        #: are misses until a later record, so one damage is one event.
        self._bad: set = set()
        self._pos = _LOG_HEAD            # first byte not yet indexed
        self._ident: Optional[tuple] = None

    # -- reading -------------------------------------------------------------

    def _refresh(self) -> None:
        """Index the records appended since the last refresh."""
        try:
            fh = open(self.path, "rb", buffering=_CHUNK)
        except OSError:                 # no log (yet, or any more)
            self._index, self._bad, self._ident = {}, set(), None
            return
        with fh:
            st = os.fstat(fh.fileno())
            ident = (st.st_dev, st.st_ino, fh.read(_LOG_HEAD))
            if ident != self._ident:    # another log under this name
                self._index, self._bad, self._ident = {}, set(), ident
                self._pos = _LOG_HEAD
            elif st.st_size < self._pos:     # cut short under us
                self._index, self._pos = {}, _LOG_HEAD
            pos, size = self._pos, st.st_size
            while pos < size:
                env = _envelope(fh, pos)
                if env is not None:
                    key, length, close = env
                    self._index[key] = (pos, length)
                    end = pos + length
                    if end <= size:
                        fh.seek(end - _CRC.size)
                        if fh.read(_CRC.size) == close:
                            pos = end
                            continue
                # Rot, or a record cut short: by a kill if another record
                # verifies after it, else perhaps still being written --
                # read from here again next time.  A cut-short record is
                # its key's last one so far, and ``get`` reports it.
                nxt = _next_envelope(fh, pos + 1)
                if nxt is None:
                    break
                pos = nxt
            self._pos = pos

    def _read(self, offset: int, size: int) -> bytes:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return b""
        try:
            return os.pread(fd, size, offset)
        finally:
            os.close(fd)

    @staticmethod
    def _verify(key: str, raw: bytes) -> Tuple[object, bytes]:
        """``(payload, frame)`` of one record read whole; raises on any
        mismatch (envelope, key, closing crc, frame)."""
        head = raw[:_ENV.size]
        if len(head) < _ENV.size:
            raise ValueError(f"short record: {len(raw)} bytes")
        magic, klen, flen, crc = _ENV.unpack(head)
        name = raw[_ENV.size:_ENV.size + klen]
        if (magic != REC_MAGIC or name != key.encode()
                or zlib.crc32(head[:-_CRC.size] + name) != crc):
            raise ValueError("envelope does not name this key")
        data = raw[_ENV.size + klen:_ENV.size + klen + flen]
        if raw[_ENV.size + klen + flen:] != _close(crc):
            raise ValueError(f"record cut short: {len(data)} of {flen} "
                             f"frame bytes")
        return pickle.loads(unframe(data)), data

    def get_framed(self, key: str) -> Optional[Tuple[BenchRun, bytes]]:
        """The verified stored payload for ``key`` and the frame it was
        read from, or None (miss).

        A record that fails verification is kept under
        ``<root>/corrupt/`` and logged (a miss, so the unit simply
        re-executes) -- a hit is only ever served after verification.
        """
        entry = self._live(key)
        if entry is None:
            self._refresh()
            entry = self._live(key)
            if entry is None:
                return None
        raw = self._read(*entry)
        try:
            run, data = self._verify(key, raw)
        except Exception as exc:        # noqa: BLE001 - quarantined
            self._refresh()
            if self._index.get(key) != entry:    # the log moved on
                return self.get_framed(key)
            self._quarantine(key, entry, raw, exc)
            return None
        return (run, data) if isinstance(run, BenchRun) else None

    def _quarantine(self, key: str, entry: Tuple[int, int], raw: bytes,
                    exc: Exception) -> None:
        """A damaged last record: evidence, one event, and a miss."""
        self._bad.add(entry[0])
        name = f"{key}{self.suffix}"
        kept = self._keep_evidence(name, raw)
        self.telemetry.emit("integrity.corrupt", unit=key,
                            what=self.metric_prefix, file=name,
                            error=f"{exc}"[:200], quarantined=kept)
        _LOG.warning("integrity: corrupt %s %s (%s)%s", self.metric_prefix,
                     name, exc, f" -> kept as {kept}" if kept else "")

    def _keep_evidence(self, name: str, raw: bytes) -> Optional[str]:
        """Write a damaged record's bytes under ``corrupt/`` (``.1``,
        ``.2``, ... after the first); None if that fails."""
        where = f"{self.root}{os.sep}corrupt"
        target, n = f"{where}{os.sep}{name}", 0
        try:
            os.makedirs(where, exist_ok=True)
            while True:
                try:
                    with open(target, "xb") as fh:
                        fh.write(raw)
                    return target
                except FileExistsError:
                    n += 1
                    target = f"{where}{os.sep}{name}.{n}"
        except OSError:
            return None

    def _live(self, key: str) -> Optional[Tuple[int, int]]:
        """The indexed last record of ``key``, unless known damaged."""
        entry = self._index.get(key)
        return None if entry is None or entry[0] in self._bad else entry

    def get(self, key: str) -> Optional[BenchRun]:
        """The verified stored payload for ``key``, or None (miss)."""
        got = self.get_framed(key)
        return got[0] if got else None

    # -- writing -------------------------------------------------------------

    def put_framed(self, key: str, data: bytes) -> bool:
        """Append an already framed payload under ``key``; False if the
        store is unwritable (the sweep proceeds without durability).

        Every append is one hazard opportunity of this store's site,
        reported as ``<key>.run``: an armed plan may rewrite the frame
        or raise ``OSError`` like a full disk.
        """
        plan = hazards.current()
        try:
            if plan is not None:
                data = plan.on_publish(self.metric_prefix,
                                       f"{key}{self.suffix}", data)
            rec = _record(key.encode(), data)
            try:
                fd = os.open(self.path, _APPEND, 0o666)
            except FileNotFoundError:
                os.makedirs(self.root, exist_ok=True)
                fd = os.open(self.path, _APPEND, 0o666)
            try:
                # The append that makes the log heads it.  Two racing to
                # make it both do; readers skip the second header as
                # bytes that are not a record.
                if os.fstat(fd).st_size == 0:
                    rec = LOG_MAGIC + os.urandom(16) + rec
                return os.write(fd, rec) == len(rec)
            finally:
                os.close(fd)
        except OSError:
            return False

    def put(self, key: str, run: BenchRun) -> bool:
        """Pickle, frame and :meth:`put_framed` ``run``."""
        return self.put_framed(key, frame(
            pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)))

    # -- listing -------------------------------------------------------------

    def keys(self) -> List[str]:
        """Keys whose last record is not known damaged (sorted, for
        determinism)."""
        self._refresh()
        return sorted(k for k in self._index if self._live(k))

    def __contains__(self, key: str) -> bool:
        self._refresh()
        return self._live(key) is not None

    def __len__(self) -> int:
        return len(self.keys())


class CheckpointJournal(ResultStore):
    """Per-sweep resume journal (see module docstring).

    ``load`` is the resume step: given the plan's unit keys it returns
    every already-journaled result, and the pipeline executes only the
    rest.  Keys not in the plan are ignored -- a journal may be reused
    across differently-shaped sweeps without harm.
    """

    metric_prefix = "journal"

    def __init__(self, root):
        super().__init__(Path(root))

    def load(self, keys: Iterable[str]) -> Dict[str, BenchRun]:
        """Journaled results for the given unit keys (one refresh of
        the index, then one verified read per journaled key)."""
        self._refresh()
        out: Dict[str, BenchRun] = {}
        for key in keys:
            if self._live(key):
                run = self.get(key)
                if run is not None:
                    out[key] = run
        return out

    def record(self, key: str, run: BenchRun) -> bool:
        """Journal one finished unit (one append; the checkpoint
        write)."""
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
