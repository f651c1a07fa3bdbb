"""Seeded regression: the indexed RetransmitQueue against the linear
reference the socket used before.

``RetransmitQueue`` (repro/tcp/rtx.py) replaced three O(n) scans in
``tcp/socket.py`` — SACK-block marking, first-lost lookup, cumulative-
ACK popping — with bisect/heap lookups.  This drives both the new
structure and a literal reimplementation of the old scans through the
same seeded operation stream and asserts every observable agrees: the
segment each retransmit opportunity would pick, the segments each SACK
block covers, and the queue contents after every cumulative ACK
(including the mid-segment head trim that re-keys a lost head).
"""

import gc
import weakref

import pytest

from repro.net.packet import Endpoint
from repro.sim.rng import SeededRNG
from repro.tcp.listener import Listener
from repro.tcp.rtx import RetransmitQueue
from repro.tcp.socket import SentSegment, TCPSocket
from repro.tcp.state import TCPState

from conftest import ORACLE_ENABLED, make_tcp_pair

MSS = 1448


class LinearReference:
    """The pre-index implementation: one list, scans from index 0."""

    def __init__(self):
        self.segs: list[SentSegment] = []

    def append(self, sent):
        self.segs.append(sent)

    def sack_covered(self, left, right):
        # Old _process_sack: full scan for whole-covered, unsacked segments.
        return [
            sent
            for sent in self.segs
            if not sent.sacked and sent.start >= left and sent.end <= right
        ]

    def first_lost(self):
        # Old _try_send: next(s for s in queue if s.lost and not s.sacked).
        return next((s for s in self.segs if s.lost), None)

    def ack_to(self, ack_unit):
        popped = []
        while self.segs and self.segs[0].end <= ack_unit:
            popped.append(self.segs.pop(0))
        if self.segs and self.segs[0].start < ack_unit:
            head = self.segs[0]
            trim = ack_unit - head.start
            head.payload = head.payload[min(trim, len(head.payload)) :]
            head.start = ack_unit
        return popped


def make_segment(start, end, time):
    return SentSegment(
        start=start, end=end, payload=b"x" * (end - start), sticky_options=[], sent_time=time
    )


def clone(sent):
    copy = make_segment(sent.start, sent.end, sent.sent_time)
    copy.payload = bytes(sent.payload)
    copy.lost = sent.lost
    copy.sacked = sent.sacked
    return copy


def ident(sent):
    return (sent.start, sent.end, bytes(sent.payload), sent.lost, sent.sacked)


def test_indexed_queue_matches_linear_reference():
    rng = SeededRNG(0xC0FFEE, "rtx")
    queue = RetransmitQueue()
    reference = LinearReference()
    snd_nxt = 0
    snd_una = 0
    for step in range(4000):
        op = rng.random()
        if op < 0.40 or not reference.segs:
            # Send a burst of new segments.
            for _ in range(rng.randint(1, 3)):
                sent = make_segment(snd_nxt, snd_nxt + MSS, step * 1e-4)
                queue.append(sent)
                reference.append(clone(sent))
                snd_nxt += MSS
        elif op < 0.60:
            # A SACK block over a random live range.
            span = len(reference.segs)
            lo = rng.randint(0, span - 1)
            hi = min(span, lo + rng.randint(1, 5))
            left = reference.segs[lo].start
            right = reference.segs[hi - 1].end
            ref_hits = reference.sack_covered(left, right)
            new_hits = [s for s in queue.in_range(left, right) if not s.sacked]
            assert [ident(s) for s in new_hits] == [ident(s) for s in ref_hits]
            for ref_sent, new_sent in zip(ref_hits, new_hits):
                ref_sent.sacked = new_sent.sacked = True
                ref_sent.lost = new_sent.lost = False
        elif op < 0.75:
            # Loss marking: an RTO marks everything, dupacks mark the head.
            if rng.random() < 0.2:
                for ref_sent, new_sent in zip(reference.segs, queue):
                    if not ref_sent.sacked:
                        ref_sent.lost = new_sent.lost = True
                        queue.note_lost(new_sent)
            else:
                index = rng.randint(0, len(reference.segs) - 1)
                ref_sent = reference.segs[index]
                new_sent = queue[index]
                if not ref_sent.sacked:
                    ref_sent.lost = new_sent.lost = True
                    queue.note_lost(new_sent)
        elif op < 0.90:
            # Retransmit opportunity: both must pick the same segment.
            ref_lost = reference.first_lost()
            new_lost = queue.first_lost()
            assert (ref_lost is None) == (new_lost is None)
            if ref_lost is not None:
                assert ident(ref_lost) == ident(new_lost)
                ref_lost.lost = new_lost.lost = False
                ref_lost.retransmitted = new_lost.retransmitted = True
        else:
            # Cumulative ACK somewhere in flight, sometimes mid-segment.
            ack = min(snd_nxt, snd_una + rng.randint(1, 6 * MSS))
            snd_una = max(snd_una, ack)
            popped = reference.ack_to(ack)
            for ref_sent in popped:
                new_sent = queue.popleft()
                assert ident(ref_sent) == ident(new_sent)
            if queue and queue[0].start < ack:
                head = queue[0]
                trim = ack - head.start
                head.payload = head.payload[min(trim, len(head.payload)) :]
                head.start = ack
                if head.lost:
                    queue.note_lost(head)
        assert len(queue) == len(reference.segs)
    # Drain: the final states agree segment by segment.
    assert [ident(s) for s in queue] == [ident(s) for s in reference.segs]


def test_first_lost_survives_head_trim_rekey():
    """The mid-segment ACK trim moves a lost head's start; after the
    caller re-pushes (note_lost) the queue must still find it."""
    queue = RetransmitQueue()
    first = make_segment(0, MSS, 0.0)
    second = make_segment(MSS, 2 * MSS, 0.0)
    queue.append(first)
    queue.append(second)
    first.lost = True
    queue.note_lost(first)
    # Mid-segment ACK into the lost head.
    first.payload = first.payload[100:]
    first.start = 100
    queue.note_lost(first)
    found = queue.first_lost()
    assert found is first and found.start == 100


def test_popleft_compaction_preserves_order():
    queue = RetransmitQueue()
    for index in range(200):
        queue.append(make_segment(index * MSS, (index + 1) * MSS, 0.0))
    for index in range(150):
        assert queue.popleft().start == index * MSS
    assert len(queue) == 50
    assert queue[0].start == 150 * MSS
    assert [s.start for s in queue] == [i * MSS for i in range(150, 200)]


class _Payload:
    """Stands in for a segment payload.  ``bytes`` cannot be weakly
    referenced; a memoryview payload can, but a bare object needs no
    backing buffer."""


class _AppBuffer(bytes):
    """A ``bytes`` the collector tracks, so a live one can be found."""


def test_popleft_releases_the_popped_segment_below_the_compaction_floor():
    """``popleft`` only compacts past 32 dead entries; a short
    connection never gets there, so the slot itself must be cleared or
    every acknowledged payload stays pinned until the socket dies."""
    queue = RetransmitQueue()
    payloads = []
    for index in range(8):
        sent = make_segment(index * MSS, (index + 1) * MSS, 0.0)
        sent.payload = _Payload()
        payloads.append(weakref.ref(sent.payload))
        queue.append(sent)
    del sent
    for _ in range(5):
        queue.popleft()
    assert [ref() is None for ref in payloads] == [True] * 5 + [False] * 3
    # The cleared prefix is invisible to every reader.
    assert len(queue) == 3 and queue[0].start == 5 * MSS and queue[-1].start == 7 * MSS
    assert [s.start for s in queue] == [5 * MSS, 6 * MSS, 7 * MSS]
    assert [s.start for s in queue.in_range(0, 8 * MSS)] == [5 * MSS, 6 * MSS, 7 * MSS]
    assert list(queue.in_range(0, 5 * MSS)) == []
    assert queue.first_lost() is None
    for sent in queue:
        sent.lost = True
        queue.note_lost(sent)
    assert queue.first_lost().start == 5 * MSS
    queue.popleft()
    assert queue.first_lost().start == 6 * MSS  # not the cleared slot before it


@pytest.mark.skipif(
    ORACLE_ENABLED, reason="the oracle's tail trace keeps the last segments sent, payload and all"
)
def test_acked_payload_is_released_while_the_socket_lives():
    """End to end: 10 KB is 7 segments — far below the compaction floor.
    Once cumulatively ACKed, nothing in a still-open socket may keep the
    application's buffer alive."""
    net, client, server = make_tcp_pair(seed=5)
    Listener(server, 80, on_accept=lambda sock: setattr(sock, "on_data", lambda s: s.read()))
    sock = TCPSocket(client)
    sock.on_established = lambda s: s.send(_AppBuffer(b"\xa5" * 10_000))
    sock.connect(Endpoint(server.primary_address, 80))
    net.run(until=5.0)
    assert sock.state is TCPState.ESTABLISHED and sock.snd_una == 10_001
    assert not sock._rtx_queue and sock._rtx_queue._head == 8  # SYN + 7, never compacted
    assert not [o for o in gc.get_objects() if type(o) is _AppBuffer]
