"""In-memory spans around the benchmark's own calls into each layer.

A span is ``(name, start, end, parent, unit)``; spans of one work unit
share its unit id.  Nothing is written while the clock runs: the list
is dumped once, after the last pass.  A layer's *self time* is its
span's duration minus the part its child spans cover, so the self
times of one pass sum to the pass's wall clock by construction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: [name, start, end, parent index or None, unit id or None]
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, unit: Optional[str] = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if unit is None and parent is not None:
            unit = self.spans[parent][4]
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, unit]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, root: int) -> Dict[str, float]:
        """Self seconds by span name over the subtree under ``root``."""
        child_s = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        inside[root] = True
        out: Dict[str, float] = {}
        # Spans are appended in start order, so a parent precedes its
        # children and one forward walk settles membership.
        for i in range(root, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            if i != root:
                if parent is None or not inside[parent]:
                    continue
                inside[i] = True
                child_s[parent] += end - start
        for i in range(root, len(self.spans)):
            if inside[i]:
                name, start, end = self.spans[i][:3]
                out[name] = out.get(name, 0.0) + (end - start) - child_s[i]
        return out

    def roots(self, name: str) -> List[int]:
        """Indices of the top-level spans called ``name``."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and s[3] is None]

    def write(self, path) -> None:
        """Dump every span as one JSON array (ids are list positions)."""
        rows = [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "unit": s[4]}
                for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
