"""SHD01 fixture: shard-purity violations.

A class declaring ``shard_safe = True`` must be stateless outside
``__init__`` (counters named in ``shard_stats`` are tolerated); a
non-constant or dynamically-assigned ``shard_safe`` defeats the static
check.  Segment objects crossing the process boundary are FED01's
(``fed01.py``).
"""


class Stateful:
    shard_safe = True
    shard_stats = ("counted",)

    def __init__(self):
        self.table: dict = {}
        self.total = 0
        self.counted = 0

    def process(self, segment, direction):
        self.table[direction] = segment  # line 21: SHD01 (subscript store on state)
        self.total += 1  # line 22: SHD01 (augmented write)
        self.counted += 1  # fine: declared in shard_stats
        self.table.clear()  # line 24: SHD01 (mutator call on state)
        return [(segment, direction)]


class Undeclarable:
    shard_safe = bool(__doc__)  # line 29: SHD01 (non-constant declaration)


class Sneaky:
    def __init__(self, active_after=0.0):
        self.shard_safe = active_after == 0.0  # line 34: SHD01 (dynamic assignment)


class WaivedStateful:
    shard_safe = True

    def __init__(self):
        self.seen = 0

    def process(self, segment, direction):
        self.seen += 1  # analyze: ok(SHD01): fixture demonstrates a waiver
        return [(segment, direction)]

