"""The capture facility and the reordering middleboxes."""

import pytest

from repro.middlebox import Duplicator, Jitter
from repro.net.options import MSSOption, SACKPermitted, WindowScaleOption
from repro.net.packet import ACK, FIN, SYN, Endpoint, Segment
from repro.net.path import FORWARD
from repro.net.trace import PacketTrace, TraceRecord
from repro.sim.rng import SeededRNG

from conftest import make_multipath, make_tcp_pair, mptcp_transfer, random_payload, tcp_transfer


class TestPacketTrace:
    def test_captures_handshake(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net)
        tcp_transfer(net, client, server, b"hi")
        syns = trace.filter(syn=True)
        assert len(syns) == 2  # SYN and SYN/ACK
        assert trace.filter(fin=True)

    def test_format_is_readable(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net)
        tcp_transfer(net, client, server, b"payload!")
        text = trace.format()
        assert "SYN" in text and "ms" in text and "10.9.0.1:80" in text

    def test_format_of_an_empty_selection_is_empty(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net)
        tcp_transfer(net, client, server, b"hi")
        assert trace.filter(rst=True) == []
        assert trace.format(trace.filter(rst=True)) == ""
        assert trace.format(trace.filter(syn=True)).count("\n") == 1  # SYN, SYN/ACK

    def test_keeps_every_segment(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach(net.paths[0])
        seen = []
        net.paths[0].add_tap(lambda path, segment, direction: seen.append(segment.seq))
        tcp_transfer(net, client, server, random_payload(200_000))
        assert len(trace) == len(seen) > 200 and trace.dropped == 0
        assert [record.segment.seq for record in trace.records] == seen

    def test_option_type_filter_sees_dss(self):
        from repro.mptcp.options import DSS

        net, client, server = make_multipath()
        trace = PacketTrace.attach_all(net)
        mptcp_transfer(net, client, server, random_payload(30_000))
        with_dss = trace.filter(option_type=DSS)
        assert with_dss
        assert all(r.segment.find_option(DSS) for r in with_dss)

    def test_records_are_copies(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net)
        tcp_transfer(net, client, server, b"x" * 100)
        record = trace.records[0]
        before = record.format()
        assert record.segment.options  # the SYN's
        record.segment.options.clear()  # mutating a record is harmless
        record.segment.seq += 1
        assert trace.records[0].format() == before


def tap_numbered(trace, path, count, flags=ACK):
    """Tap ``count`` segments with seq 0..count-1, rewriting each in
    place after capture (a record must not alias the live segment)."""
    for seq in range(count):
        segment = Segment(
            Endpoint("10.0.0.1", 5000), Endpoint("10.9.0.1", 80),
            seq=seq, flags=flags, options=[SACKPermitted()], payload=b"abc",
        )
        trace._tap(path, segment, FORWARD)
        segment.options.clear()
        segment.seq = 10_000 + seq


class TestTailTrace:
    """A trace keeps header tuples and builds records on read: what it
    shows must be what a copy taken at capture time would show."""

    def test_record_is_frozen_at_capture(self):
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        trace = PacketTrace(tail=4)
        segment = Segment(
            Endpoint("10.0.0.1", 5000), Endpoint("10.9.0.1", 80),
            seq=7, ack=9, flags=SYN | ACK, window=1000,
            options=[MSSOption(1400), SACKPermitted()], payload=b"hello",
        )
        trace._tap(path, segment, FORWARD)
        before = trace.records[-1].format()
        assert "SYN|ACK" in before and "len=5" in before and "[MSSOption,SACKPermitted]" in before
        segment.options.append(WindowScaleOption(7))  # in place, after capture
        segment.options.pop(0)
        assert trace.records[-1].format() == before
        segment.seq, segment.ack, segment.flags, segment.window = 99, 1, FIN | ACK, 5
        segment.payload = b"other bytes"
        segment.options.clear()
        assert trace.records[-1].format() == before

    def test_ring_keeps_the_last_tail_taps(self):
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        trace = PacketTrace(tail=4)
        tap_numbered(trace, path, 3)
        assert (len(trace), trace.dropped) == (3, 0)
        tap_numbered(trace, path, 10)
        assert (len(trace), trace.dropped) == (4, 9)
        assert [record.segment.seq for record in trace.records] == [6, 7, 8, 9]

    def test_unbounded_trace_keeps_every_tap(self):
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        trace = PacketTrace()
        tap_numbered(trace, path, 2, flags=SYN)
        tap_numbered(trace, path, 5)
        assert (len(trace), trace.dropped) == (7, 0)
        assert [r.segment.seq for r in trace.filter(syn=True)] == [0, 1]
        assert [r.segment.seq for r in trace.filter(syn=False)] == [0, 1, 2, 3, 4]

    def test_records_match_copies_taken_at_capture(self):
        net, client, server = make_multipath()
        trace = PacketTrace.attach_all(net)
        tail = PacketTrace(tail=100_000)
        copies = []

        def capture(path, segment, direction):
            tail._tap(path, segment, direction)
            copies.append(TraceRecord(path.sim.now, path.name, direction, segment.copy()))

        for path in net.paths:
            path.add_tap(capture)
        mptcp_transfer(net, client, server, random_payload(30_000))
        expected = [record.format() for record in copies]
        assert [r.format() for r in trace.records] == expected and expected
        assert [r.format() for r in tail.records] == expected and tail.dropped == 0
        selections = (
            ({"syn": True}, lambda r: r.segment.syn),
            ({"fin": True}, lambda r: r.segment.fin),
            ({"payload": True}, lambda r: bool(r.segment.payload)),
            ({"direction": -1}, lambda r: r.direction == -1),
        )
        for criteria, keep in selections:
            want = [r.format() for r in copies if keep(r)]
            assert [r.format() for r in trace.filter(**criteria)] == want


class TestJitter:
    def test_tcp_survives_mild_reordering(self):
        net, client, server = make_tcp_pair(
            elements=[Jitter(max_jitter=0.003, rng=SeededRNG(3, "j"))]
        )
        payload = random_payload(300_000)
        result = tcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload

    def test_mptcp_survives_reordering_on_one_path(self):
        net, client, server = make_multipath(
            elements_per_path=[[Jitter(max_jitter=0.004, rng=SeededRNG(4, "j"))], []]
        )
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload

    def test_jitter_actually_reorders(self):
        net, client, server = make_tcp_pair(
            elements=[Jitter(max_jitter=0.01, rng=SeededRNG(5, "j"))],
            queue_bytes=10**6,
        )
        result = tcp_transfer(net, client, server, random_payload(200_000), duration=60)
        assert result.server.stats.out_of_order_segments > 0

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            Jitter(max_jitter=-1)


class TestDuplicator:
    def test_tcp_unharmed_by_duplicates(self):
        net, client, server = make_tcp_pair(
            elements=[Duplicator(probability=0.05, rng=SeededRNG(6, "d"))]
        )
        payload = random_payload(200_000)
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
        assert net.paths[0].elements[0].duplicated > 0

    def test_mptcp_unharmed_by_duplicates(self):
        net, client, server = make_multipath(
            elements_per_path=[[Duplicator(probability=0.05, rng=SeededRNG(7, "d"))], []]
        )
        payload = random_payload(150_000)
        result = mptcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload
