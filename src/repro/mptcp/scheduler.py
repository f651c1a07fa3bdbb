"""The MPTCP packet scheduler: allocation, batching, reinjection, and
the receive-buffer mechanisms M1/M2 (§4.2).

Allocation model
----------------
Subflows *pull*: whenever a subflow's congestion window has room (its
``_try_send`` loop), it asks the scheduler for up to one MSS of payload.
The scheduler serves, in priority order:

1. **Reinjections** — data queued for retransmission on a different
   subflow (a failed subflow's unacknowledged data, the data-level RTO,
   or M1 opportunistic retransmissions).
2. **The subflow's current batch** — new data is reserved in
   contiguous-DSN batches sized by the subflow's congestion window, so
   each subflow's arrivals are in-order at the data level, which is
   precisely the locality the receiver's Shortcuts algorithm (§4.3)
   exploits.
3. **A new batch** — if connection-level flow control (the shared
   receive window, §3.3.1) permits.
4. When blocked by the receive window with capacity to spare:
   **M1 opportunistic retransmission** — resend data from the window's
   trailing edge that a (markedly slower) *other* subflow originally
   carried.  A per-subflow cursor walks forward through that foreign
   backlog so consecutive opportunities pipeline; and **M2
   penalization** — halve the cwnd and ssthresh of the subflow holding
   the trailing edge, at most once per its RTT.

No call iterates the send queue (in software-interrupt context that is
what the Linux implementation avoids): the in-flight table is a
:class:`TxIndex`, so an edge lookup is a bisect, M1 clears a run of the
requester's own mappings in one hop, and a DATA_ACK trims a prefix.

The connection decides *which* subflow pulls first by kicking them in
increasing smoothed-RTT order ("send on the lowest-delay link with
congestion-window space").
"""

# data_nxt/data_una are absolute unwrapped data-stream offsets (Python
# ints), not 32-bit wire sequence numbers.

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Optional

_start = attrgetter("start")
_seq = attrgetter("seq")


if TYPE_CHECKING:  # pragma: no cover
    from repro.mptcp.connection import MPTCPConnection
    from repro.mptcp.subflow import Subflow


@dataclass(slots=True)
class TxMapping:
    """A sent mapping: which subflow carried which data range."""

    start: int  # absolute data offset
    end: int
    subflow: "Subflow"
    reinjection: bool = False
    # Set by TxIndex.add: allocation order, the head of this mapping's
    # run, and (on a head) the offset just past the run.
    seq: int = 0
    head: Optional["TxMapping"] = field(default=None, repr=False, compare=False)
    skip: int = 0


class TxIndex:
    """The in-flight mappings, sorted by ``start``.

    Reinjections overlap and start mid-mapping, so start order is not
    allocation order: ``seq`` records the latter, and :meth:`covering`
    answers what a scan in allocation order would.  No mapping is longer
    than ``_span``, so the candidates for offset x start in
    ``(x - _span, x]`` — a bisect and a short look-back.  Iterating and
    indexing sort by ``seq`` on demand (tests and diagnostics only).

    A *run* is a chain of one subflow's mappings, each one's ``end``
    covered by the next; members share the run's ``head``, whose ``skip``
    is the offset past the chain.  Runs never go stale (ARCHITECTURE.md,
    "Indexed per-ACK structures", has the argument)."""

    __slots__ = ("_by_start", "_span", "_seq")

    def __init__(self) -> None:
        self._by_start: list[TxMapping] = []
        self._span = 0
        self._seq = 0

    def __iter__(self) -> Iterator[TxMapping]:
        return iter(sorted(self._by_start, key=_seq))

    def __getitem__(self, index: int) -> TxMapping:
        return sorted(self._by_start, key=_seq)[index]

    def add(self, mapping: TxMapping) -> None:
        by_start, start = self._by_start, mapping.start
        self._seq = mapping.seq = self._seq + 1
        self._span = max(self._span, mapping.end - start)
        at = bisect_right(by_start, start, key=_start)
        head = mapping
        if at and by_start[at - 1].subflow is mapping.subflow:
            # Extend the neighbouring run if it stops exactly here and
            # nothing allocated earlier already covers this offset.
            run = by_start[at - 1].head
            if run.skip == start and self.covering(start) is None:
                head = run
        mapping.head = head
        head.skip = mapping.end
        by_start.insert(at, mapping)

    def covering(self, offset: int) -> Optional[TxMapping]:
        """The earliest-allocated mapping with ``start <= offset < end``."""
        by_start = self._by_start
        at = bisect_right(by_start, offset, key=_start)
        floor = offset - self._span  # a start this low ends at or before offset
        best = None
        while at and by_start[at - 1].start > floor:
            at -= 1
            mapping = by_start[at]
            if mapping.end > offset and (best is None or mapping.seq < best.seq):
                best = mapping
        return best

    def next_foreign(self, cursor: int, subflow: "Subflow") -> tuple[int, Optional[TxMapping]]:
        """Move ``cursor`` past the data ``subflow`` carried itself; returns
        it with the mapping covering it there (None: nothing in flight)."""
        while True:
            mapping = self.covering(cursor)
            if mapping is None or mapping.subflow is not subflow:
                return cursor, mapping
            cursor = mapping.head.skip

    def prune(self, data_una: int) -> None:
        """Drop mappings wholly below the cumulative DATA_ACK: they all
        start below it, and a survivor there starts within one span."""
        by_start = self._by_start
        at = keep = bisect_left(by_start, data_una, key=_start)
        floor = data_una - self._span
        while at and by_start[at - 1].start > floor:
            at -= 1
            if by_start[at].end > data_una:
                keep -= 1
                by_start[keep] = by_start[at]
        del by_start[:keep]

    def drop_subflow(self, subflow: "Subflow") -> list[TxMapping]:
        """Remove and return a failed subflow's mappings."""
        dropped: list[TxMapping] = []
        kept: list[TxMapping] = []
        for mapping in self._by_start:
            (dropped if mapping.subflow is subflow else kept).append(mapping)
        self._by_start = kept
        return dropped


@dataclass(slots=True)
class Batch:
    """A contiguous data range reserved for one subflow."""

    cursor: int
    end: int

    @property
    def remaining(self) -> int:
        return self.end - self.cursor


@dataclass(slots=True)
class SchedulerStats:
    allocations: int = 0
    bytes_allocated: int = 0
    reinjections: int = 0
    reinjected_bytes: int = 0
    opportunistic_retransmissions: int = 0
    penalizations: int = 0
    rwnd_blocked_events: int = 0


class Scheduler:
    """Owned by an :class:`~repro.mptcp.connection.MPTCPConnection`."""

    __slots__ = ("connection", "inflight", "reinject_queue", "batches", "stats")

    def __init__(self, connection: "MPTCPConnection"):
        self.connection = connection
        self.inflight = TxIndex()
        # FIFO of mutable [start, end) ranges, consumed from the front one MSS
        # at a time (a deque: no tail shift) — () until the first reinjection.
        self.reinject_queue: deque[list[int]] = ()
        self.batches: dict[int, Batch] = {}  # subflow_id -> Batch
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    def allocate(
        self, subflow: "Subflow", max_bytes: int
    ) -> Optional[tuple[memoryview, int, list]]:
        """Produce (payload, length, sticky_options) for one segment, or
        None.  The length rides along so downstream consumers never
        len() the payload again."""
        conn = self.connection

        if subflow.backup and any(
            not s.backup for s in conn.alive_subflows()
        ):
            return None  # backups carry data only when nothing else can

        chunk = (
            self._allocate_reinjection(max_bytes)
            if self.reinject_queue
            else None
        )
        if chunk is None:
            # _allocate_batch(), inlined: this is the once-per-new-data-
            # segment allocation path.
            batch = self.batches.get(subflow.subflow_id)
            if batch is not None and batch.cursor < conn.data_una:
                # Data-level recovery may have reinjected (and the
                # receiver acked) parts of a reserved-but-unsent batch:
                # skip them.
                batch.cursor = conn.data_una
            if batch is None or batch.end <= batch.cursor:
                batch = self._reserve_batch(subflow, max_bytes)
            if batch is not None:
                start = batch.cursor
                remaining = batch.end - start
                take = max_bytes if max_bytes < remaining else remaining
                batch.cursor = start + take
                chunk = (start, conn.send_stream.peek(start, take), take, False)
        config = conn.config
        if chunk is None and (config.enable_m1 or config.enable_m2) and self._rwnd_blocked():
            self.stats.rwnd_blocked_events += 1
            edge = self._trailing_edge_mapping()
            # Both mechanisms act only on a *markedly slower* other subflow
            # holding the window.  Near-equal paths (the symmetric links of
            # Fig. 6c) trade the edge constantly from queueing jitter:
            # reinjecting there only duplicates bytes already due to
            # arrive, and throttling only hurts.
            culprit = subflow if edge is None else edge.subflow
            if culprit is not subflow and culprit.srtt > 1.5 * subflow.srtt:
                if config.enable_m2:
                    self._penalize_culprit(culprit)
                if config.enable_m1:
                    chunk = self._opportunistic_retransmission(subflow, max_bytes)
        if chunk is None:
            return None

        start, payload, length, reinjection = chunk
        self.stats.allocations += 1
        self.stats.bytes_allocated += length
        mapping = TxMapping(start, start + length, subflow, reinjection)
        self.inflight.add(mapping)
        data_fin = False
        if (
            conn.data_fin_offset is not None
            and mapping.end == conn.data_fin_offset
        ):
            # Ride the DATA_FIN on the final mapping (§3.4).
            data_fin = True
            conn.note_data_fin_sent()
        option = conn.build_dss(subflow, start, payload, data_fin=data_fin, length=length)
        return payload, length, [option]

    # ------------------------------------------------------------------
    # Allocation sources
    # ------------------------------------------------------------------
    def _allocate_reinjection(self, max_bytes: int) -> Optional[tuple[int, bytes, int, bool]]:
        conn = self.connection
        while self.reinject_queue:
            entry = self.reinject_queue[0]
            entry[0] = max(entry[0], conn.data_una)
            if entry[0] >= entry[1]:
                self.reinject_queue.popleft()
                continue
            take = min(max_bytes, entry[1] - entry[0])
            start = entry[0]
            payload = conn.send_stream.peek(start, take)
            entry[0] += take
            if entry[0] >= entry[1]:
                self.reinject_queue.popleft()
            self.stats.reinjections += 1
            self.stats.reinjected_bytes += take
            return (start, payload, take, True)
        return None

    def _reserve_batch(self, subflow: "Subflow", max_bytes: int) -> Optional[Batch]:
        """Reserve a contiguous-DSN range sized by the subflow's usable
        congestion window (§4.3's batching)."""
        conn = self.connection
        tail = conn.send_stream.tail
        edge = conn.peer_rwnd_edge  # rwnd_limit(), inlined
        limit = tail if tail < edge else edge
        data_nxt = conn.data_nxt
        if data_nxt >= limit:
            return None
        size = subflow.usable_cwnd_space()
        if size < max_bytes:
            size = max_bytes
        room = limit - data_nxt
        if size > room:
            size = room
        segments = conn.config.batch_segments
        cap = (segments if segments > 1 else 1) * conn.config.tcp.mss
        if size > cap:
            size = cap
        batch = Batch(cursor=data_nxt, end=data_nxt + size)
        conn.data_nxt = data_nxt + size
        self.batches[subflow.subflow_id] = batch
        return batch

    # ------------------------------------------------------------------
    # Receive-window-limited handling: mechanisms M1 and M2
    # ------------------------------------------------------------------
    def _rwnd_blocked(self) -> bool:
        """Receive-window limited: the allocation cursor has hit the
        connection-level window edge while data is outstanding.  (Note:
        no "unsent app data" clause — with snd_buf == rcv_buf the app is
        usually blocked too, and the stall is just as real.)"""
        conn = self.connection
        return conn.data_nxt >= conn.rwnd_limit() and conn.data_una < conn.data_nxt

    def _trailing_edge_mapping(self) -> Optional[TxMapping]:
        """The in-flight mapping holding up the receive window: the one
        covering ``data_una``."""
        return self.inflight.covering(self.connection.data_una)

    def _opportunistic_retransmission(
        self, subflow: "Subflow", max_bytes: int
    ) -> Optional[tuple[int, bytes, int, bool]]:
        """M1: resend un-DATA-ACKed data, originally sent on *another*
        (markedly slower) subflow, starting from the trailing edge of
        the window.

        Successive opportunities walk forward through the foreign
        backlog (tracked by a per-subflow cursor) so reinjections
        pipeline within this subflow's congestion window — this is what
        lets the fast path run at its single-path TCP rate while
        underbuffered, at the cost of duplicate transmissions (the
        goodput/throughput gap of Fig. 4(b))."""
        conn = self.connection
        now = conn.sim.now
        if subflow.last_opportunistic_edge != conn.data_una:
            # The edge moved: normal progress.  Keep walking forward —
            # resetting here would re-send the whole foreign backlog on
            # every chunk advance.
            subflow.last_opportunistic_edge = conn.data_una
            subflow.last_opportunistic_time = now
        elif now - subflow.last_opportunistic_time > 1.5 * max(subflow.srtt, 0.01):
            # The SAME edge has survived our earlier reinjection for
            # over a round trip: that copy probably died — retry from
            # the edge.
            subflow.last_opportunistic_offset = conn.data_una
            subflow.last_opportunistic_time = now
        cursor, mapping = self.inflight.next_foreign(
            max(subflow.last_opportunistic_offset, conn.data_una), subflow
        )
        if mapping is None:
            return None
        take = min(max_bytes, mapping.end - cursor)
        payload = conn.send_stream.peek(cursor, take)
        subflow.last_opportunistic_offset = cursor + take
        self.stats.opportunistic_retransmissions += 1
        conn.stats.opportunistic_retransmissions += 1
        return (cursor, payload, take, True)

    def _penalize_culprit(self, culprit: "Subflow") -> None:
        """M2: halve the cwnd of the (markedly slower, §4.2) subflow
        holding the trailing edge, to reduce its RTT — at most once per
        that subflow's smoothed RTT."""
        conn = self.connection
        now = conn.sim.now
        if now - culprit.last_penalty_at < culprit.srtt:
            return
        culprit.last_penalty_at = now
        culprit.cc.halve()
        self.stats.penalizations += 1
        conn.stats.penalizations += 1

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def on_data_ack(self, data_una: int) -> None:
        """Prune mappings wholly covered by the new cumulative DATA_ACK."""
        self.inflight.prune(data_una)

    def on_subflow_failed(self, subflow: "Subflow") -> None:
        """Queue everything the dead subflow still owed for reinjection."""
        una = self.connection.data_una
        owed = self.inflight.drop_subflow(subflow)
        ranges = [(max(m.start, una), m.end) for m in owed if m.end > una]
        batch = self.batches.pop(subflow.subflow_id, None)
        if batch is not None and batch.remaining > 0:
            ranges.append((batch.cursor, batch.end))
        for start, end in sorted(ranges):
            self._queue_reinjection(start, end)

    def reinject_head(self, window: Optional[int] = None) -> None:
        """Data-level RTO: requeue data from the trailing edge.

        The sender has only the cumulative DATA_ACK to locate losses
        (there is no data-level SACK), so recovery is go-back-N over a
        bounded window starting at ``data_una`` (§3.3.5).
        """
        conn = self.connection
        mapping = self._trailing_edge_mapping()
        end = mapping.end if mapping is not None else min(
            conn.data_una + conn.config.tcp.mss, conn.data_nxt
        )
        if window is not None:
            end = max(end, min(conn.data_una + window, conn.data_nxt))
        if end > conn.data_una:
            self._queue_reinjection(conn.data_una, end)

    def _queue_reinjection(self, start: int, end: int) -> None:
        for entry in self.reinject_queue:
            if entry[0] <= start and end <= entry[1]:
                return  # already queued
        self.reinject_queue = self.reinject_queue or deque()
        self.reinject_queue.append([start, end])
