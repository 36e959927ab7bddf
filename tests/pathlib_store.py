"""The reference result store the log-structured store must replay.

``frame``/``unframe``/``atomic_pickle``/``load_verified``/
``quarantine_file`` are the functions of ``repro.harness.integrity`` as
they were before publishing went to ``os.open`` on ``str`` paths, line
for line: ``pathlib`` for every name, ``mkdir`` before every entry,
``tempfile.mkstemp`` for the temp file, the same hazard seam.
They say what a publish and a verified load do in the plainest terms
the standard library has; ``PathlibStore`` is ``ResultStore`` as it was
over them, one file per entry, and ``tests/test_properties.py`` drives
it and today's ``ResultStore``, one append-only log per root, with the
same operations.
"""

import hashlib
import logging
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Optional

from repro.obs.telemetry import NULL_TELEMETRY

_LOG = logging.getLogger("tests.pathlib_store")

MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sQ")           # magic + payload length
_DIGEST_LEN = hashlib.sha256().digest_size


class IntegrityError(ValueError):
    pass


def frame(payload: bytes) -> bytes:
    return (_HEADER.pack(MAGIC, len(payload)) + payload
            + hashlib.sha256(payload).digest())


def unframe(data: bytes) -> bytes:
    if len(data) < _HEADER.size:
        raise IntegrityError(f"short frame: {len(data)} bytes")
    magic, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise IntegrityError(f"bad magic {magic!r}")
    if len(data) != _HEADER.size + length + _DIGEST_LEN:
        raise IntegrityError(
            f"length mismatch: header says {length} payload bytes, "
            f"file holds {len(data) - _HEADER.size - _DIGEST_LEN}")
    payload = data[_HEADER.size:_HEADER.size + length]
    digest = data[_HEADER.size + length:]
    if hashlib.sha256(payload).digest() != digest:
        raise IntegrityError("sha256 digest mismatch")
    return payload


def atomic_pickle(obj, path: Path, what: str = "entry") -> None:
    """Frame-pickle ``obj`` and atomically publish it at ``path``.

    Same-directory temp file + ``os.replace``; the temp file is
    unlinked on any failure so a failing publish never litters.
    ``what`` labels the publish site for hazard injection ("unit" /
    "result" / "journal" / "memo") -- an armed hazard plan may rewrite
    the bytes or raise ``OSError`` here, which propagates to the
    caller exactly like a real full disk.
    """
    from repro.harness import hazards
    path = Path(path)
    data = frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    plan = hazards.current()
    if plan is not None:
        data = plan.on_publish(what, path, data)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_verified(path: Path, quarantine_to: Optional[Path] = None,
                  telemetry=NULL_TELEMETRY, what: str = "entry",
                  unit: Optional[str] = None):
    """Load a framed pickle, verifying integrity; None on miss.

    A missing file is a plain miss.  A present-but-unverifiable file
    (truncated, bit-flipped, not a pickle at all) is moved into
    ``quarantine_to`` (kept in place if no quarantine dir was given or
    the move fails), recorded as an ``integrity.corrupt`` event, and
    reported as a miss -- corruption must never be worse than
    re-executing the unit.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return pickle.loads(unframe(data))
    except Exception as exc:                # noqa: BLE001 - quarantined
        moved = quarantine_file(path, quarantine_to)
        telemetry.emit("integrity.corrupt", unit=unit, what=what,
                       file=path.name, error=f"{exc}"[:200],
                       quarantined=str(moved) if moved else None)
        _LOG.warning("integrity: corrupt %s %s (%s)%s", what, path.name,
                     exc, f" -> quarantined to {moved}" if moved else "")
        return None


def quarantine_file(path: Path, root: Optional[Path]) -> Optional[Path]:
    """Move a corrupt file under ``root`` (kept as evidence, out of
    every reader's glob); None when no root was given or the move
    failed (the file stays put and will re-quarantine next read)."""
    if root is None:
        return None
    root = Path(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        target = root / path.name
        n = 0
        while target.exists():
            n += 1
            target = root / f"{path.name}.{n}"
        os.replace(path, target)
        return target
    except OSError:
        return None


class PathlibStore:
    """``ResultStore`` as it was: a payload that is not of ``kind`` is
    a miss, an unwritable root a ``False``."""

    suffix = ".run"

    def __init__(self, root, kind, what="store"):
        self.root = Path(root)
        self.kind = kind
        self.what = what

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str):
        payload = load_verified(self._path(key),
                                quarantine_to=self.root / "corrupt",
                                what=self.what, unit=key)
        return payload if isinstance(payload, self.kind) else None

    def put(self, key: str, run) -> bool:
        try:
            atomic_pickle(run, self._path(key), what=self.what)
            return True
        except OSError:
            return False

    def keys(self):
        if not self.root.is_dir():
            return []
        return sorted(p.name[:-len(self.suffix)]
                      for p in self.root.glob(f"*{self.suffix}"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()
