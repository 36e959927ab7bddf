"""The reference L2 tag store the sparse ``Cache`` must replay.

``DenseCache`` is ``repro.mem.Cache`` as it was while every set was a
dict from construction -- the class body verbatim, the geometry of
``_SetAssoc`` inlined: ``num_sets`` dicts made up front, ``clear``
empties each, ``lines`` walks all of them.  It says what an operation
does to residency, order, the four counters and ``on_evict`` with no
question of which slots exist; ``tests/test_properties.py`` drives both
with the same operations.
"""

from repro.mem import CacheLine, MESIState


class DenseCache:

    def __init__(self, cfg, name="", on_evict=None):
        self.cfg = cfg
        self.name = name
        self._set_mask = cfg.num_sets - 1
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self._sets = [{} for _ in range(cfg.num_sets)]
        self.on_evict = on_evict

    def resident_count(self):
        return sum(len(s) for s in self._sets)

    def clear(self):
        for s in self._sets:
            s.clear()

    def lookup(self, addr):
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        line = s.get(la)
        if line is not None and line.state != MESIState.INVALID:
            del s[la]
            s[la] = line
            self.hits += 1
            return line
        self.misses += 1
        return None

    def peek(self, addr):
        shift = self._line_shift
        la = addr >> shift << shift
        line = self._sets[(la >> shift) & self._set_mask].get(la)
        if line is not None and line.state != MESIState.INVALID:
            return line
        return None

    def insert(self, addr, state):
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        existing = s.get(la)
        if existing is not None and existing.state != MESIState.INVALID:
            existing.state = max(existing.state, state)
            return existing
        if len(s) >= self.cfg.assoc:
            victim = s.pop(next(iter(s)))     # first key = LRU
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        line = CacheLine(la, state)
        s[la] = line
        return line

    def invalidate(self, addr):
        shift = self._line_shift
        la = addr >> shift << shift
        s = self._sets[(la >> shift) & self._set_mask]
        line = s.get(la)
        if line is not None and line.state != MESIState.INVALID:
            del s[la]
            self.invalidations += 1
            return line
        return None

    def downgrade(self, addr):
        line = self.peek(addr)
        if line is not None and line.state == MESIState.EXCLUSIVE:
            line.state = MESIState.SHARED
            line.dirty = False
        return line

    def lines(self):
        for s in self._sets:
            yield from s.values()
