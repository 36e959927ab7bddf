"""Integrity-framed pickles: the crash-consistency layer every
on-disk payload of the execution pipeline goes through.

Spool units and results are pickles published one file each with
``os.replace``; checkpoint-journal and memo-store records are the same
frames appended to one log per store
(:class:`repro.harness.checkpoint.ResultStore`).  Atomic rename and a
closing mark on each log record protect readers from *torn* writes,
but not from a disk flipping bits or an operator truncating a file --
and a silently corrupt pickle is the one failure mode a deterministic
reproduction harness cannot tolerate (``pickle.loads`` on garbage can
return *anything*, including a plausible-looking wrong result).

So every payload is framed::

    RPF1 | 8-byte big-endian payload length | payload | sha256(payload)

and every load verifies the frame before unpickling.  A spool file
that fails verification is **quarantined** -- moved aside into a
``corrupt/`` sibling directory (never deleted: it is evidence), a log
record's bytes are copied there -- the failure is recorded as an
``integrity.corrupt`` telemetry event, and the caller sees a plain
miss, never an exception.

Framed bytes are the currency: :func:`frame` makes one and
:func:`unframe` checks one.  :func:`publish_frame` writes a frame to a
spool file and :func:`read_verified` reads and verifies one;
:func:`atomic_pickle` and :func:`load_verified` wrap them for callers
with an object to store or no use for the frame.  A store reads a
record and hands back its frame the same way, so a verified memo
record is journaled without a second pickle or digest.  Paths are
``str``: naming each entry through :mod:`pathlib` cost more than the
system calls did.  A writer killed between the temp write and the
rename leaves ``<path>.<pid>.<n>.tmp`` behind; no reader matches it,
and nothing collects it (a pool's private spool is removed whole).

:func:`publish_frame` and a store's append are the harness-hazard
injection seams: an armed :mod:`repro.harness.hazards` plan may
corrupt/truncate the framed bytes or fail the write with ENOSPC/EIO at
deterministic opportunity indices (zero cost when disarmed -- one
module-attribute test).
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import pickle
import struct
from pathlib import Path
from typing import Optional, Tuple

from ..obs.telemetry import NULL_TELEMETRY

__all__ = ["MAGIC", "IntegrityError", "frame", "unframe", "atomic_pickle",
           "publish_frame", "load_verified", "read_verified",
           "quarantine_file"]

_LOG = logging.getLogger("repro.harness.integrity")

#: Frame marker.
MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sQ")           # magic + payload length
_DIGEST_LEN = hashlib.sha256().digest_size
_TMP_FLAGS = os.O_CREAT | os.O_EXCL | os.O_WRONLY
_tmp_serial = itertools.count()           # with the pid: one name per publish


class IntegrityError(ValueError):
    """A framed payload failed verification (bad magic, short read,
    length mismatch, digest mismatch)."""


def frame(payload: bytes) -> bytes:
    """Wrap serialized bytes in the length + sha256-trailer frame."""
    return (_HEADER.pack(MAGIC, len(payload)) + payload
            + hashlib.sha256(payload).digest())


def unframe(data: bytes) -> bytes:
    """Verify a framed blob and return the payload; raises
    :class:`IntegrityError` on any mismatch."""
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


def atomic_pickle(obj, path, what: str = "entry") -> None:
    """Frame-pickle ``obj`` and atomically publish it at ``path`` (a
    ``str`` or a ``Path``) through :func:`publish_frame`."""
    publish_frame(frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
                  os.fspath(path), what)


def publish_frame(data: bytes, path: str, what: str = "entry") -> None:
    """Atomically publish already framed bytes at ``path``.

    Exclusive create of ``<path>.<pid>.<n>.tmp`` beside the target
    (a leftover of that name is an error, never appended to), write,
    close, ``os.replace``; the temp file is unlinked on any failure so
    a failing publish never litters.  The directory is made when the
    create finds it missing, not before every entry, and the file gets
    the mode the umask allows, like claims and event logs.
    ``what`` labels the publish site for hazard injection ("unit" /
    "result") -- an armed hazard plan may rewrite
    the bytes or raise ``OSError`` here, which propagates to the
    caller exactly like a real full disk.
    """
    from . import hazards                   # local: hazards has no deps on us
    plan = hazards.current()
    if plan is not None:
        data = plan.on_publish(what, path, data)
    tmp = f"{path}.{os.getpid()}.{next(_tmp_serial)}.tmp"
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_verified(path: str, quarantine_to: Optional[Path] = None,
                  telemetry=NULL_TELEMETRY, what: str = "entry",
                  unit: Optional[str] = None) -> Optional[Tuple]:
    """Read a framed pickle and verify it: ``(object, frame)``, or
    None on a miss.

    A missing file is a plain miss.  A present-but-unverifiable file
    (truncated, bit-flipped, not a pickle at all) is moved into
    ``quarantine_to`` (kept in place if no quarantine dir was given or
    the move fails), recorded as an ``integrity.corrupt`` event, and
    reported as a miss -- corruption must never be worse than
    re-executing the unit.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        return pickle.loads(unframe(data)), data
    except Exception as exc:                # noqa: BLE001 - quarantined
        moved = quarantine_file(Path(path), quarantine_to)
        name = os.path.basename(path)
        telemetry.emit("integrity.corrupt", unit=unit, what=what,
                       file=name, error=f"{exc}"[:200],
                       quarantined=str(moved) if moved else None)
        _LOG.warning("integrity: corrupt %s %s (%s)%s", what, name,
                     exc, f" -> quarantined to {moved}" if moved else "")
        return None


def load_verified(path, quarantine_to: Optional[Path] = None,
                  telemetry=NULL_TELEMETRY, what: str = "entry",
                  unit: Optional[str] = None):
    """:func:`read_verified` for a caller that wants the object only
    (``path`` a ``str`` or a ``Path``); None on a miss."""
    got = read_verified(os.fspath(path), quarantine_to, telemetry, what, unit)
    return None if got is None else got[0]


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
