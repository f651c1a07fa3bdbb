"""Byte buffers used by both TCP sockets and the MPTCP connection level.

* :class:`ByteStream` — a send-side sliding window over an append-only
  byte stream: bytes enter at the tail, are readable at any offset that
  has not been released, and are freed from the head as they are
  (data-)acknowledged.  Its ``__len__`` is the *memory footprint*, which
  is what the Fig. 5 memory accounting samples.
* :class:`ReassemblyQueue` — a receive-side out-of-order store with
  overlap trimming, used at the subflow level.  (The connection-level
  out-of-order queue, with the paper's Regular/Tree/Shortcuts variants,
  lives in :mod:`repro.mptcp.ooo`.)

Both are zero-copy: they store read-only ``memoryview`` chunks over
immutable ``bytes`` and hand out slices of them instead of copying.
Because the backings are immutable, a view stays valid forever, and it
pins nothing resizable — releasing or extracting drops *references*,
never shifts bytes under a live view.

Both work in *absolute* (unwrapped) stream offsets; the 32-bit wrapping
is confined to the socket's segment encode/decode boundary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Optional

from repro.net.payload import Buffer, as_view


class ByteStream:
    """An append-only stream retaining bytes from ``head`` to ``tail``.

    Internally a rope: a list of immutable chunks (one per ``append``)
    plus their absolute end offsets for bisect lookup.  A chunk starts
    where its predecessor ends; the head chunk starts ``len(chunk)``
    before its end, because ``release_to`` drops whole chunks and never
    trims one.  ``peek`` within a single chunk — the overwhelmingly
    common case, since apps append in 64 KiB chunks and sockets peek at
    most one MSS — returns an O(1) subview; a peek straddling chunks
    joins just the spanned pieces.  Every chunk is a read-only
    ``memoryview`` over ``bytes``, so the fast path is one C slice.

    >>> s = ByteStream()
    >>> s.append(b"hello world")
    11
    >>> bytes(s.peek(6, 5))
    b'world'
    >>> s.release_to(6); len(s)
    5
    """

    __slots__ = ("_chunks", "_chunk_ends", "head", "tail")

    def __init__(self):
        self._chunks: list[memoryview] = []  # read-only views over bytes
        self._chunk_ends: list[int] = []  # absolute end offset per chunk
        self.head = 0  # absolute offset of first retained byte
        self.tail = 0  # absolute offset one past the last byte

    def append(self, data: Buffer) -> int:
        """Add bytes at the tail; returns the new tail offset.

        A view over ``bytes`` is stored by reference and ``bytes`` is
        wrapped in place (zero-copy); mutable input — a ``bytearray`` or
        a view over one — is snapshotted once so later caller-side
        mutation cannot reach into the stream.
        """
        length = len(data)
        if length == 0:
            return self.tail
        if type(data) is not memoryview or type(data.obj) is not bytes:
            data = as_view(data)
        self._chunks.append(data)
        self.tail += length
        self._chunk_ends.append(self.tail)
        return self.tail

    def peek(self, offset: int, length: int) -> memoryview:
        """Read (without consuming) ``length`` bytes at absolute ``offset``.

        Returns a read-only ``memoryview``; no payload bytes are copied
        unless the range straddles append boundaries.
        """
        if offset < self.head:
            raise IndexError(f"offset {offset} below head {self.head} (already released)")
        if offset + length > self.tail:
            raise IndexError(f"range [{offset},{offset+length}) beyond tail {self.tail}")
        if length == 0:
            return _EMPTY_VIEW
        ends = self._chunk_ends
        chunks = self._chunks
        index = bisect_right(ends, offset)
        chunk = chunks[index]
        chunk_end = ends[index]
        start = offset - (ends[index - 1] if index else chunk_end - len(chunk))
        if offset + length <= chunk_end:
            # Fast path (nearly every peek: apps append 64 KiB chunks,
            # sockets peek at most one MSS).
            return chunk[start : start + length]
        pieces: list[memoryview] = []
        remaining = length
        while True:
            take = min(remaining, ends[index] - offset)
            pieces.append(chunks[index][start : start + take])
            remaining -= take
            if not remaining:
                break
            offset += take
            index += 1
            start = 0
        return memoryview(b"".join(pieces))

    def release_to(self, offset: int) -> None:
        """Free all bytes before ``offset`` (cumulative-ACK semantics).

        Drops whole head chunks whose last byte is below ``offset``;
        a partially-released head chunk is retained until fully ACKed
        (bounded slack of at most one append's length).
        """
        if offset <= self.head:
            return
        if offset > self.tail:
            raise IndexError(f"cannot release past tail {self.tail}")
        self.head = offset
        drop = bisect_right(self._chunk_ends, offset)
        if drop:
            del self._chunks[:drop]
            del self._chunk_ends[:drop]

    def __len__(self) -> int:
        """Bytes currently held in memory."""
        return self.tail - self.head

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ByteStream [{self.head},{self.tail}) {len(self)}B>"


class _Run:
    """One contiguous run of buffered bytes, held as a piece list."""

    __slots__ = ("pieces", "length")

    def __init__(self, pieces: list[memoryview], length: int):
        self.pieces = pieces
        self.length = length


class ReassemblyQueue:
    """Out-of-order byte store with overlap trimming.

    Middleboxes (and retransmissions) can deliver duplicate or partially
    overlapping segments; on insert, bytes already present win and the
    newcomer fills only the gaps, so the reassembled stream is consistent
    even when a traffic normalizer has re-asserted original content
    upstream.  Overlapping and adjacent blocks are merged, keeping the
    store a sorted list of disjoint runs.

    Each run is a list of views in stream order rather than one flat
    buffer: merging runs is list concatenation, and inserting new data
    slices only the *gap* ranges out of the incoming view — the bytes
    themselves are never copied until extraction joins them.
    """

    __slots__ = ("_starts", "_runs", "buffered_bytes")

    def __init__(self):
        self._starts: list[int] = []  # sorted, disjoint, non-adjacent
        self._runs: dict[int, _Run] = {}
        self.buffered_bytes = 0

    def insert(self, start: int, data: Buffer, limit: Optional[int] = None) -> int:
        """Insert ``data`` at absolute offset ``start``.

        ``limit`` (if given) is the highest offset that may be stored (the
        receive-window right edge); bytes beyond it are discarded.
        Returns the number of genuinely new bytes stored.
        """
        if type(data) is not memoryview or type(data.obj) is not bytes:
            data = as_view(data)
        length = len(data)
        if limit is not None and start + length > limit:
            length = limit - start
            if length <= 0:
                return 0
            data = data[:length]
        if length == 0:
            return 0
        end = start + length

        # Collect every existing run overlapping or adjacent to [start, end).
        starts = self._starts
        runs = self._runs
        first = bisect_left(starts, start)
        if first > 0:
            prev_start = starts[first - 1]
            if prev_start + runs[prev_start].length >= start:
                first -= 1
        last = first
        count = len(starts)
        while last < count and starts[last] <= end:
            last += 1

        if first == last:
            starts.insert(first, start)
            runs[start] = _Run([data], length)
            self.buffered_bytes += length
            return length
        overlapping = starts[first:last]

        # Walk the merge window left to right: existing runs keep their
        # pieces; the gaps between them are filled by slicing the new
        # view.  Every gap inside the window is covered by [start, end)
        # (that is what made both neighbours part of the window).
        other = overlapping[0]
        merged_start = start if start < other else other
        pieces: list[memoryview] = []
        stored = 0
        cursor = merged_start
        for run_start in overlapping:
            run = runs.pop(run_start)
            if run_start > cursor:
                pieces.append(data[cursor - start : run_start - start])
                stored += run_start - cursor
            pieces.extend(run.pieces)
            cursor = run_start + run.length
        if end > cursor:
            pieces.append(data[cursor - start :])
            stored += end - cursor
            cursor = end

        del starts[first:last]
        starts.insert(first, merged_start)
        runs[merged_start] = _Run(pieces, cursor - merged_start)
        self.buffered_bytes += stored
        return stored

    def extract_in_order(self, next_offset: int) -> memoryview:
        """Remove and return all contiguous bytes starting at ``next_offset``.

        Blocks entirely below ``next_offset`` (stale retransmissions) are
        discarded.  Returns a single piece untouched (zero-copy) when the
        run was delivered in one view; joins only when fragments must
        combine.  Always a read-only ``memoryview``.
        """
        pieces: list[memoryview] = []
        consumed = 0
        for start in self._starts:
            if start > next_offset:
                break
            run = self._runs.pop(start)
            consumed += 1
            self.buffered_bytes -= run.length
            skip = next_offset - start
            if skip < run.length:
                run_pieces = run.pieces
                if skip:
                    # Drop whole leading pieces, then re-slice the first
                    # kept one — no byte copies either way.
                    kept = 0
                    while skip >= len(run_pieces[kept]):
                        skip -= len(run_pieces[kept])
                        kept += 1
                    if skip:
                        pieces.append(run_pieces[kept][skip:])
                        kept += 1
                    pieces.extend(run_pieces[kept:])
                else:
                    pieces.extend(run_pieces)
                next_offset = start + run.length
        if consumed:
            # One batch delete instead of pop(0) per block: draining a
            # queue of n blocks is O(n), not O(n^2).
            del self._starts[:consumed]
        if len(pieces) == 1:
            return pieces[0]
        return memoryview(b"".join(pieces)) if pieces else _EMPTY_VIEW

    def sack_blocks(self, max_blocks: int = 3) -> list[tuple[int, int]]:
        """Up to ``max_blocks`` (start, end) runs of buffered data."""
        return [
            (start, start + self._runs[start].length) for start in self._starts[:max_blocks]
        ]

    @property
    def block_count(self) -> int:
        return len(self._starts)

    @property
    def max_offset(self) -> int:
        """One past the highest buffered byte, or 0 when empty."""
        if not self._starts:
            return 0
        last = self._starts[-1]
        return last + self._runs[last].length

    def __len__(self) -> int:
        return self.buffered_bytes


_EMPTY_VIEW = memoryview(b"")
