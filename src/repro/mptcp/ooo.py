"""Connection-level out-of-order queue algorithms (§4.3, Fig. 8).

TCP's fast path assumes in-order arrival; with MPTCP, *subflow* sequence
numbers arrive in order but *data* sequence numbers usually do not, so
the receiver constantly inserts into a large out-of-order queue.  The
paper compares four lookup strategies:

* **Regular** — Linux's linear scan of the queue per insertion.
* **Tree** — a balanced search structure: logarithmic lookups.
* **Shortcuts** — exploit the sender's batching: each subflow keeps a
  pointer to the queue position where its next segment should land;
  a correct guess is O(1), a miss falls back to the linear scan.
* **AllShortcuts** — additionally groups in-sequence segments into
  batches and scans batch heads instead of individual segments on a
  shortcut miss.

Each implementation here *really executes* its search; ``ops`` counts
the comparison/traversal steps taken, which drives the Fig. 8 CPU
model.  (The byte-accurate reassembly store lives in the connection —
these structures are the segment index, exactly the part whose cost the
paper measures.)
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Optional


class OOOStats:
    """Operation counters shared by all algorithms."""

    __slots__ = ("inserts", "ops", "shortcut_hits", "shortcut_misses", "max_queue_length")

    def __init__(self) -> None:
        self.inserts = 0
        self.ops = 0  # traversal/comparison steps
        self.shortcut_hits = 0
        self.shortcut_misses = 0
        self.max_queue_length = 0

    def hit_rate(self) -> float:
        total = self.shortcut_hits + self.shortcut_misses
        return self.shortcut_hits / total if total else 0.0


class OOOQueue:
    """Interface: ``insert`` an out-of-order segment, ``advance`` the
    cumulative point (dropping now-in-order segments)."""

    name = "base"

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = OOOStats()

    def insert(self, start: int, end: int, subflow_id: int) -> None:
        raise NotImplementedError

    def advance(self, offset: int) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _Node:
    """A queue entry: one segment (or, for AllShortcuts, a batch)."""

    __slots__ = ("start", "end", "segments", "prev", "next")

    def __init__(self, start: int, end: int, segments: int = 1):
        self.start = start
        self.end = end
        self.segments = segments
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class _LinkedList:
    """Minimal doubly-linked list used by the scan-based algorithms."""

    __slots__ = ("head", "tail", "length")

    def __init__(self) -> None:
        self.head: Optional[_Node] = None
        self.tail: Optional[_Node] = None
        self.length = 0

    def insert_after(self, node: Optional[_Node], new: _Node) -> None:
        """Insert ``new`` after ``node`` (or at the head when None)."""
        if node is None:
            new.next = self.head
            new.prev = None
            if self.head is not None:
                self.head.prev = new
            self.head = new
            if self.tail is None:
                self.tail = new
        else:
            new.prev = node
            new.next = node.next
            node.next = new
            if new.next is not None:
                new.next.prev = new
            else:
                self.tail = new
        self.length += 1

    def remove(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self.head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self.tail = node.prev
        node.prev = node.next = None
        self.length -= 1


class _ScanQueue(OOOQueue):
    """A queue kept as a linked list in ``start`` order: the one head-to-
    tail insertion scan and the one head-side ``advance`` of the three
    list-based algorithms."""

    __slots__ = ("_list",)

    def __init__(self) -> None:
        super().__init__()
        self._list = _LinkedList()

    def _scan(self, start: int) -> Optional[_Node]:
        """The last node starting before ``start`` (None: the new entry
        goes at the head), counting one op per node visited."""
        node = self._list.head
        previous: Optional[_Node] = None
        ops = 0
        while node is not None:
            ops += 1
            if node.start >= start:
                break
            previous = node
            node = node.next
        self.stats.ops += ops
        return previous

    def advance(self, offset: int) -> None:
        node = self._list.head
        while node is not None and node.end <= offset:
            following = node.next
            self._list.remove(node)
            node = following

    def __len__(self) -> int:
        return self._list.length


class RegularQueue(_ScanQueue):
    """Linear scan from the queue head for every insertion — the stock
    fast-path fallback the paper starts from."""

    name = "regular"

    __slots__ = ()

    def insert(self, start: int, end: int, subflow_id: int) -> None:
        self.stats.inserts += 1
        self._list.insert_after(self._scan(start), _Node(start, end))
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._list.length)


class TreeQueue(OOOQueue):
    """Binary-search placement (the paper's "obvious fix"): logarithmic
    lookup, still not constant, and extra code complexity."""

    name = "tree"

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        super().__init__()
        self._starts: list[int] = []
        self._ends: dict[int, int] = {}

    def insert(self, start: int, end: int, subflow_id: int) -> None:
        self.stats.inserts += 1
        # Cost of a balanced-tree descent: ceil(log2(n+1)) comparisons.
        n = len(self._starts)
        self.stats.ops += max(1, n.bit_length())
        insort(self._starts, start)
        self._ends[start] = max(end, self._ends.get(start, end))
        self.stats.max_queue_length = max(self.stats.max_queue_length, len(self._starts))

    def advance(self, offset: int) -> None:
        drop = 0
        for start in self._starts:
            if self._ends[start] <= offset:
                drop += 1
            else:
                break
        for start in self._starts[:drop]:
            del self._ends[start]
        del self._starts[:drop]

    def __len__(self) -> int:
        return len(self._starts)


class ShortcutsQueue(_ScanQueue):
    """Per-subflow insertion-point pointers (§4.3).

    The sender allocates contiguous-DSN batches to a subflow, so the
    receiver expects subflow *i*'s next segment to continue right where
    its previous one ended.  Each subflow keeps a pointer to that queue
    node; a correct guess inserts in O(1).  On a miss, fall back to the
    Regular linear scan and re-aim the pointer.
    """

    name = "shortcuts"

    __slots__ = ("_pointers",)

    def __init__(self) -> None:
        super().__init__()
        self._pointers: dict[int, _Node] = {}

    def insert(self, start: int, end: int, subflow_id: int) -> None:
        self.stats.inserts += 1
        pointer = self._pointers.get(subflow_id)
        # A node unlinked by advance (or a merge) has no prev and is not
        # the head, so a pointer at it misses.
        if (
            pointer is not None
            and pointer.end == start
            and (pointer.prev is not None or pointer is self._list.head)
        ):
            self.stats.shortcut_hits += 1
            self.stats.ops += 1
        else:
            self.stats.shortcut_misses += 1
            pointer = self._scan(start)
        node = _Node(start, end)
        self._list.insert_after(pointer, node)
        self._pointers[subflow_id] = node
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._list.length)


class AllShortcutsQueue(ShortcutsQueue):
    """Shortcuts plus batch grouping (§4.3's final algorithm).

    In-sequence segments merge into batch nodes; a shortcut hit extends
    the subflow's current batch in O(1), and a miss scans *batches*
    instead of segments — and there are far fewer batches than segments.
    """

    name = "allshortcuts"

    __slots__ = ()

    def insert(self, start: int, end: int, subflow_id: int) -> None:
        self.stats.inserts += 1
        pointer = self._pointers.get(subflow_id)
        if (
            pointer is not None
            and pointer.end == start
            and (pointer.prev is not None or pointer is self._list.head)
        ):
            self.stats.shortcut_hits += 1
            self.stats.ops += 1
            pointer.end = end
            pointer.segments += 1
            self._maybe_merge_forward(pointer)
            return
        self.stats.shortcut_misses += 1
        previous = self._scan(start)  # one step per *batch*, not per segment
        if previous is not None and previous.end == start:
            previous.end = end
            previous.segments += 1
            self._maybe_merge_forward(previous)
            self._pointers[subflow_id] = previous
        else:
            node = _Node(start, end)
            self._list.insert_after(previous, node)
            self._maybe_merge_forward(node)
            self._pointers[subflow_id] = node
        self.stats.max_queue_length = max(self.stats.max_queue_length, self._list.length)

    def _maybe_merge_forward(self, node: _Node) -> None:
        following = node.next
        if following is not None and node.end == following.start:
            node.end = following.end
            node.segments += following.segments
            # Re-aim any pointers at the absorbed batch.
            for subflow_id, pointed in list(self._pointers.items()):
                if pointed is following:
                    self._pointers[subflow_id] = node
            self._list.remove(following)

    def advance(self, offset: int) -> None:
        super().advance(offset)
        head = self._list.head
        if head is not None and head.start < offset:
            head.start = offset  # partially consumed batch


_ALGORITHMS = {
    "regular": RegularQueue,
    "tree": TreeQueue,
    "shortcuts": ShortcutsQueue,
    "allshortcuts": AllShortcutsQueue,
}


def make_ooo_queue(name: str) -> OOOQueue:
    """Factory for the §4.3 algorithms: regular | tree | shortcuts |
    allshortcuts."""
    try:
        return _ALGORITHMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown ooo algorithm {name!r}; choose from {sorted(_ALGORITHMS)}"
        ) from None
