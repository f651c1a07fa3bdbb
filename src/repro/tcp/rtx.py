"""Indexed retransmit queue: the O(n)-scan sinks of tcp/socket.py.

The retransmit queue holds one entry per outstanding segment, so it
grows with the window.  The socket asks three questions of it per ACK —
which segments a SACK block covers, which is the first lost one, and
which a cumulative ACK releases — and a linear scan per question makes
each ACK cost O(window).  This module answers them behind an indexed
interface instead:

* The queue is kept in transmission order, which for a TCP sender *is*
  start order: ``snd_nxt`` only grows, segments are disjoint, and
  retransmission never re-appends.  Both ``start`` and ``end`` are
  therefore strictly increasing across the live queue, so
  :meth:`in_range` can bisect to the first segment inside a SACK block
  and stop at the first segment whose ``end`` leaves it — the same
  contiguous run the old full scan selected, without visiting the rest.
* Cumulative ACKs pop from the front; a plain ``list.pop(0)`` shifts
  the tail every time.  :meth:`popleft` advances a head offset instead
  and compacts lazily once the dead prefix dominates — amortized O(1)
  without giving up the O(1) random access ``deque`` lacks (and the
  bisect above needs).
* "First lost segment" (the post-RTO go-back-N resend loop asks per
  send opportunity) is a lazy min-heap of starts.  Loss marking pushes
  (:meth:`note_lost`); un-marking (SACK arrival, retransmission) just
  leaves a stale entry behind, and :meth:`first_lost` discards entries
  whose start no longer names a live, still-lost segment.  The caller's
  one obligation: re-push after mutating a lost segment's ``start``
  (the mid-segment ACK head trim), or the old-keyed entry goes stale
  while the segment is still lost.

Starts here are the socket's internal *unwrapped* absolute units
(monotonic, no 2^32 wrap), which is what makes ordering by plain ``<``
sound.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tcp.socket import SentSegment

_seg_start = attrgetter("start")

# Compact the dead prefix only once it is both large and dominant:
# small queues never pay the copy, long-lived ones pay O(1) amortized.
_COMPACT_MIN = 32


class RetransmitQueue:
    """Transmission-ordered outstanding segments with bisect lookups."""

    __slots__ = ("_segs", "_head", "_lost_heap")

    def __init__(self) -> None:
        self._segs: list["SentSegment"] = []
        self._head = 0
        self._lost_heap: list[int] = []

    # -- deque face -----------------------------------------------------
    def append(self, sent: "SentSegment") -> None:
        self._segs.append(sent)

    def popleft(self) -> "SentSegment":
        sent = self._segs[self._head]
        self._segs[self._head] = None  # release it (and its payload) now, not at compaction
        self._head += 1
        if self._head > _COMPACT_MIN and self._head * 2 > len(self._segs):
            del self._segs[: self._head]
            self._head = 0
        return sent

    def __len__(self) -> int:
        return len(self._segs) - self._head

    def __bool__(self) -> bool:
        return len(self._segs) > self._head

    def __getitem__(self, index: int) -> "SentSegment":
        if index < 0:
            index += len(self._segs) - self._head
        return self._segs[self._head + index]

    def __iter__(self) -> Iterator["SentSegment"]:
        for i in range(self._head, len(self._segs)):
            yield self._segs[i]

    # -- indexed lookups ------------------------------------------------
    def in_range(self, left: int, right: int) -> Iterator["SentSegment"]:
        """Segments with ``start >= left and end <= right``, i.e. the
        ones a SACK block [left, right) covers whole.  Ends increase
        with starts (disjoint, ordered), so the matches are one
        contiguous run: bisect in, break out."""
        segs = self._segs
        i = bisect_left(segs, left, lo=self._head, key=_seg_start)
        for k in range(i, len(segs)):
            sent = segs[k]
            if sent.end > right:
                break
            yield sent

    def note_lost(self, sent: "SentSegment") -> None:
        """Index a segment just marked lost (or a lost segment whose
        ``start`` just changed) for :meth:`first_lost`."""
        heapq.heappush(self._lost_heap, sent.start)

    def first_lost(self) -> "SentSegment | None":
        """The live lost segment with the smallest start, or None.

        Lazily discards heap entries that no longer name a live, lost
        segment at that start (popped, trimmed, SACKed, or resent since
        they were pushed).  Every currently-lost segment has an entry
        under its current start, so a valid heap top is the global
        first-lost."""
        segs = self._segs
        heap = self._lost_heap
        while heap:
            start = heap[0]
            i = bisect_left(segs, start, lo=self._head, key=_seg_start)
            if i < len(segs) and segs[i].start == start and segs[i].lost:
                return segs[i]
            heapq.heappop(heap)
        return None
