"""The reference switch (``REPRO_HOTPATH``).

Simulations run generated code: every bytecode function is translated
into one ``exec``-compiled Python function (the ``compile`` tier,
:mod:`repro.interp.compile`).  The bytecode interpreter it replaces
stays as the reference the generated code is checked against, and
``REPRO_HOTPATH`` selects between the two and nothing else:

* unset, or ``compile`` -- generated code (the default);
* empty (``REPRO_HOTPATH=``) -- the reference interpreter.

Both are bit-exact in cycles and events.  Any other token raises
``ValueError`` (the CLI prints it on one line and exits 2) -- including
the removed ``engine``, ``fuse`` and ``mem`` tiers: a stale setting
must not silently run something other than what it names.

The environment is consulted *once per process* -- the first
:func:`hotpath_tiers` call latches the set, and the compiler (when an
image is built) and the VM (when it adopts generated code) read that
latch.  Toggling the variable mid-run therefore has no effect and the
hot loops carry no environment lookups.  Process-pool workers inherit
the environment, keeping serial and pooled sweeps on the same path.
Tests that flip ``REPRO_HOTPATH`` must call :func:`reset_for_tests`
after each change (the autouse fixture in ``tests/conftest.py`` resets
around every test).
"""

from __future__ import annotations

import os
from typing import FrozenSet, Optional

__all__ = ["HOTPATH_TIERS", "hotpath_tiers", "hotpath_enabled",
           "reset_for_tests"]

#: Every valid token.
HOTPATH_TIERS = ("compile",)

_tiers: Optional[FrozenSet[str]] = None


def hotpath_tiers() -> FrozenSet[str]:
    """The set of enabled tiers (``REPRO_HOTPATH`` read once, latched)."""
    global _tiers
    if _tiers is None:
        raw = os.environ.get("REPRO_HOTPATH")
        if raw is None:
            _tiers = frozenset(HOTPATH_TIERS)
        else:
            names = frozenset(t.strip() for t in raw.split(",") if t.strip())
            unknown = names.difference(HOTPATH_TIERS)
            if unknown:
                raise ValueError(
                    f"REPRO_HOTPATH: unknown tier(s) "
                    f"{', '.join(sorted(unknown))}; the valid tier is "
                    f"{', '.join(HOTPATH_TIERS)}")
            _tiers = names
    return _tiers


def hotpath_enabled(tier: str) -> bool:
    """Is one tier enabled?"""
    return tier in hotpath_tiers()


def reset_for_tests() -> None:
    """Drop the latched tier set so the next call re-reads the
    environment.  For tests (and the bench harness) that flip
    ``REPRO_HOTPATH`` between runs; production code never needs it."""
    global _tiers
    _tiers = None
