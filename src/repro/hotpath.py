"""Hot-path tier switches (``REPRO_HOTPATH``).

The per-simulation critical path carries three independent
optimizations, each provably cycle-exact but individually toggleable
for attribution and for the regression gate's off/on diff:

* ``engine``  -- the calendar/bucket scheduler queue and its fused
  drain loop in :class:`repro.sim.Engine` (off: the heapq queue,
  resumed through the unfused ``Process`` methods);
* ``fuse``    -- bytecode superinstruction fusion in
  :mod:`repro.compiler.optimize`;
* ``compile`` -- per-function generated-code translation in
  :mod:`repro.interp.compile` (the bytecode dispatch loop is replaced
  by an ``exec``-compiled Python function per ``Code`` object).

``REPRO_HOTPATH`` unset means *all tiers on* (the optimizations are
bit-exact, so there is no reason to run without them); set, it is a
comma-separated subset to enable -- ``REPRO_HOTPATH=`` (empty) turns
everything off, ``REPRO_HOTPATH=engine,fuse`` leaves only the
generated-code tier disabled.  A token that names no tier raises
``ValueError`` (the CLI prints it on one line and exits 2): a stale
setting must not silently run with that tier -- or every tier -- off.

The environment is consulted *once per process* -- the first
:func:`hotpath_tiers` call latches the set, and construction/compile
sites (engine ``__init__``, the compiler when an
image is built, the VM when it adopts generated code) read that latch.
Toggling the variable mid-run therefore has no effect and the hot
loops carry no environment lookups.  Process-pool workers inherit the
environment, keeping serial and pooled sweeps on the same tiers.
Tests that flip ``REPRO_HOTPATH`` must call :func:`reset_for_tests`
after each change (the autouse fixture in ``tests/conftest.py`` resets
around every test).
"""

from __future__ import annotations

import os
from typing import FrozenSet, Optional

__all__ = ["HOTPATH_TIERS", "hotpath_tiers", "hotpath_enabled",
           "reset_for_tests"]

#: Every known tier, in ablation-report order.
HOTPATH_TIERS = ("engine", "fuse", "compile")

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
                    f"{', '.join(sorted(unknown))}; valid tiers are "
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
