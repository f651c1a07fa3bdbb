"""The capture facility and the reordering middleboxes."""

import pytest

from repro.middlebox import Duplicator, Jitter
from repro.net.options import MSSOption, SACKPermitted, WindowScaleOption
from repro.net.packet import ACK, FIN, SYN, Endpoint, Segment
from repro.net.path import FORWARD
from repro.net.trace import PacketTrace
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

    def test_limit_drops_excess(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net, limit=5)
        tcp_transfer(net, client, server, random_payload(50_000))
        assert len(trace) == 5
        assert trace.dropped > 0

    def test_predicate_filter(self):
        net, client, server = make_tcp_pair()
        trace = PacketTrace.attach_all(net)
        trace.set_filter(lambda seg: seg.syn)
        tcp_transfer(net, client, server, random_payload(20_000))
        assert all(record.segment.syn for record in trace.records)

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
        record.segment.options.clear()  # mutating the copy is harmless
        assert True


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
    """Tail mode keeps header tuples and builds records on read: what it
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

    def test_limit_mode_is_unchanged(self):
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        trace = PacketTrace(limit=3)
        tap_numbered(trace, path, 2, flags=SYN)
        tap_numbered(trace, path, 5)
        assert (len(trace), trace.dropped) == (3, 4)
        assert [r.segment.seq for r in trace.filter(syn=True)] == [0, 1]
        assert [r.segment.seq for r in trace.filter(syn=False)] == [0]

    def test_tail_and_limit_modes_record_the_same_packets(self):
        net, client, server = make_multipath()
        limit = PacketTrace.attach_all(net)
        tail = PacketTrace.attach_all(net, tail=100_000)
        mptcp_transfer(net, client, server, random_payload(30_000))
        assert len(tail) == len(limit) > 0 and tail.dropped == limit.dropped == 0
        assert tail.format() == limit.format()
        for criteria in ({"syn": True}, {"fin": True}, {"payload": True}, {"direction": -1}):
            assert [r.format() for r in tail.filter(**criteria)] == [
                r.format() for r in limit.filter(**criteria)
            ]


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
