"""The reference switch (``REPRO_HOTPATH``).

Every image carries generated code: each bytecode function translated
into one ``exec``-compiled Python function (:mod:`repro.interp.compile`)
when the image is built.  The bytecode interpreter stays as the
reference the generated code is checked against, and ``REPRO_HOTPATH``
decides only which of the two a VM runs:

* unset, or ``compile`` -- generated code (the default);
* empty (``REPRO_HOTPATH=``) -- the reference interpreter.

Both are bit-exact in cycles and events.  Any other setting raises
``ValueError`` (the CLI prints it on one line and exits 2) -- including
the removed ``engine``, ``fuse`` and ``mem`` tiers: a stale setting
must not silently run something other than what it names.

The environment is consulted *once per process* -- the first
:func:`generated_code` call latches the answer, and ``VM.__init__``
and the harness's unit key read that latch.  Toggling the variable
mid-run therefore has no effect and the hot loops carry no environment
lookups.  Process-pool workers inherit the environment, keeping serial
and pooled sweeps on the same path.  Tests that flip ``REPRO_HOTPATH``
must call :func:`reset_for_tests` after each change (the autouse
fixture in ``tests/conftest.py`` resets around every test).
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["generated_code", "reset_for_tests"]

_generated: Optional[bool] = None


def generated_code() -> bool:
    """Do VMs run generated code?  (``REPRO_HOTPATH`` read once,
    latched.)"""
    global _generated
    if _generated is None:
        raw = os.environ.get("REPRO_HOTPATH")
        if raw not in (None, "compile", ""):
            raise ValueError(
                f"REPRO_HOTPATH: unknown setting {raw!r}; leave it unset "
                f"or set it to 'compile' (generated code) or to the "
                f"empty string (reference interpreter)")
        _generated = raw != ""
    return _generated


def reset_for_tests() -> None:
    """Drop the latched answer so the next call re-reads the
    environment.  For tests (and the bench harness) that flip
    ``REPRO_HOTPATH`` between runs; production code never needs it."""
    global _generated
    _generated = None
