"""The reference LRU discipline the list-backed ``L1Tags`` must replay.

``DictL1Tags`` is the tag store as it was before the MRU-first lists:
each set an insertion-ordered dict keyed by line address, first key =
LRU victim, delete + reinsert = touch.  It says what an operation does
to presence, order and the four counters in the plainest terms Python
has; ``tests/test_properties.py`` drives both with the same operations.
"""


class DictL1Tags:

    def __init__(self, cfg, name=""):
        self.cfg = cfg
        self.name = name
        self._sets = [{} for _ in range(cfg.num_sets)]
        self._set_mask = cfg.num_sets - 1
        self._line_shift = cfg.line_bytes.bit_length() - 1
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def _set_of(self, addr):
        shift = self._line_shift
        la = addr >> shift << shift
        return la, self._sets[(la >> shift) & self._set_mask]

    def hit(self, addr):
        la, s = self._set_of(addr)
        if la in s:
            del s[la]                    # delete + reinsert = MRU
            s[la] = None
            self.hits += 1
            return True
        return False

    def lookup(self, addr):
        if self.hit(addr):
            return True
        self.misses += 1
        return False

    def insert(self, addr):
        la, s = self._set_of(addr)
        if la in s:
            return
        if len(s) >= self.cfg.assoc:
            del s[next(iter(s))]         # first key = LRU
            self.evictions += 1
        s[la] = None

    def invalidate(self, addr):
        la, s = self._set_of(addr)
        if la in s:
            del s[la]
            self.invalidations += 1
            return True
        return False

    def lines(self):
        for s in self._sets:
            yield from s

    def resident_count(self):
        return sum(len(s) for s in self._sets)

    def clear(self):
        for s in self._sets:
            s.clear()
