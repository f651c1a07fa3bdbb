"""Applications: bulk, block prober, HTTP, bonding."""

import pytest

from repro.apps.blocks import BlockLatencyProbe
from repro.apps.bonding import BondRoute, bond_interfaces
from repro.apps.bulk import BulkReceiverApp, BulkSenderApp, pattern_bytes
from repro.apps.http import (
    HTTPLoadGenerator,
    HTTPServerApp,
    build_request,
    build_response_header,
)
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.net.path import FORWARD
from repro.sim.engine import Simulator
from repro.stats.metrics import GoodputMeter
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPSocket

from conftest import make_tcp_pair


class TestPatternBytes:
    def test_addressable_by_offset(self):
        whole = pattern_bytes(0, 1000)
        assert pattern_bytes(100, 50) == whole[100:150]

    def test_long_requests(self):
        assert len(pattern_bytes(123, 200_000)) == 200_000

    @pytest.mark.parametrize("offset", [0, 1, 255, 256, 1000, 65536, 65537])
    def test_consistent_across_boundaries(self, offset):
        assert pattern_bytes(offset, 10) == pattern_bytes(0, offset + 10)[offset:]


class _StubTransport:
    """Feeds BulkReceiverApp one queued read per ``on_data`` call."""

    def __init__(self):
        self.on_data = self.on_eof = None
        self.reads = []

    def read(self):
        return self.reads.pop(0)


class TestBulkVerify:
    """The receiver verifies a read by comparing ``bytes`` with ``bytes``:
    one flipped byte anywhere in a read must still count as corrupt,
    in a one-segment read and in one past the 128 KiB pattern buffer."""

    def _receive(self, chunks):
        transport = _StubTransport()
        app = BulkReceiverApp(transport, GoodputMeter(Simulator()), verify=True)
        for chunk in chunks:
            transport.reads.append(chunk)
            transport.on_data(transport)
        return app

    @pytest.mark.parametrize("length", [1448, 200_000])
    def test_intact_pattern_is_not_corrupt(self, length):
        app = self._receive([bytes(pattern_bytes(0, 1000)), bytes(pattern_bytes(1000, length))])
        assert app.received == 1000 + length
        assert not app.corrupt

    @pytest.mark.parametrize("length", [1448, 200_000])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_flipped_byte_is_corrupt(self, length, where):
        data = bytearray(pattern_bytes(1000, length))
        data[{"first": 0, "middle": length // 2, "last": length - 1}[where]] ^= 0x01
        app = self._receive([bytes(pattern_bytes(0, 1000)), bytes(data)])
        assert app.received == 1000 + length
        assert app.corrupt


class TestBulkApps:
    def test_sender_receiver_roundtrip(self):
        net, client, server = make_tcp_pair()
        meter = GoodputMeter(net.sim)
        state = {}

        def on_accept(sock):
            state["rx"] = BulkReceiverApp(sock, meter, expect_bytes=100_000, verify=True)

        Listener(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        BulkSenderApp(sock, 100_000)
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=30)
        assert state["rx"].received == 100_000
        assert not state["rx"].corrupt
        assert state["rx"].completed_at is not None
        assert meter.rate_bps() > 0

    def test_unbounded_sender_keeps_buffer_full(self):
        net, client, server = make_tcp_pair()
        meter = GoodputMeter(net.sim)

        def on_accept(sock):
            BulkReceiverApp(sock, meter)

        Listener(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        app = BulkSenderApp(sock, None)
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=5)
        assert not app.done
        assert meter.total_bytes > 1_000_000


class TestBlockProbe:
    def test_delays_measured_per_block(self):
        net, client, server = make_tcp_pair()
        holder = {}

        def on_accept(sock):
            holder["probe"].attach_receiver(sock)

        Listener(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        probe = BlockLatencyProbe(net.sim, sock)
        holder["probe"] = probe
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=2)
        # One delay per block fully read, never more than were stamped;
        # the rest are still in the buffers when the run ends.
        assert 50 <= len(probe.delays) < len(probe.block_send_times)
        assert all(delay > 0 for delay in probe.delays)
        ordered = sorted(probe.delays)
        assert ordered[round(0.50 * (len(ordered) - 1))] <= ordered[round(0.95 * (len(ordered) - 1))]

    def test_block_timestamp_means_handed_to_transport(self):
        """Blocks are stamped only when the send buffer can take the
        whole block: buffer-bloat shows up as measured latency."""
        net, client, server = make_tcp_pair(rate_bps=1e6)
        holder = {}

        def on_accept(sock):
            holder["probe"].attach_receiver(sock)

        Listener(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        probe = BlockLatencyProbe(net.sim, sock)
        holder["probe"] = probe
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=10)
        assert len(probe.delays) >= 100
        # At 1 Mb/s an 8 KB block takes ~65 ms on the wire alone.
        assert min(probe.delays) > 0.05


class TestHTTP:
    def test_request_response_wire_format(self):
        assert build_request(1000).startswith(b"GET /data?size=1000")
        header = build_response_header(5000)
        assert b"Content-Length: 5000" in header

    def test_single_fetch(self):
        net, client, server = make_tcp_pair()
        app = HTTPServerApp()
        Listener(server, 80, on_accept=app.on_accept)

        def open_transport():
            sock = TCPSocket(client)
            sock.connect(Endpoint("10.9.0.1", 80))
            return sock

        generator = HTTPLoadGenerator(net.sim, open_transport, 30_000, concurrency=1)
        generator.start()
        net.run(until=10)
        # One client fetches one object after another: every request the
        # server saw but the last (still in flight) completed, whole.
        assert generator.completed >= 1
        assert generator.failed == 0
        assert app.requests_served - generator.completed in (0, 1)
        assert generator.bytes_received >= 30_000 * generator.completed
        assert len(generator.latencies) == generator.completed

    def test_closed_loop_sustains_load(self):
        net, client, server = make_tcp_pair(rate_bps=50e6, delay=0.002)
        app = HTTPServerApp()
        Listener(server, 80, on_accept=app.on_accept)

        def open_transport():
            sock = TCPSocket(client)
            sock.connect(Endpoint("10.9.0.1", 80))
            return sock

        generator = HTTPLoadGenerator(net.sim, open_transport, 10_000, concurrency=10)
        generator.start()
        net.run(until=5)
        assert generator.completed > 50
        assert generator.requests_per_second() > 10

    def test_mptcp_transport_works_for_http(self):
        from repro.mptcp.api import connect as mconnect
        from repro.mptcp.api import listen as mlisten
        from repro.mptcp.connection import MPTCPConfig

        from conftest import make_multipath

        net, client, server = make_multipath()
        config = MPTCPConfig(checksum=False)
        app = HTTPServerApp()
        mlisten(server, 80, config=config, on_accept=app.on_accept)

        def open_transport():
            return mconnect(client, Endpoint("10.9.0.1", 80), config=config)

        generator = HTTPLoadGenerator(net.sim, open_transport, 50_000, concurrency=4)
        generator.start()
        net.run(until=10)
        assert generator.completed > 5
        assert generator.failed == 0


class TestBonding:
    def test_per_packet_round_robin_alternates(self):
        net = Network(seed=1)
        a = net.add_host("a")
        b = net.add_host("b")
        bond = bond_interfaces(
            net, a, "10.0.0.1", b, "10.9.0.1",
            links=[dict(rate_bps=1e9, delay=0.001)] * 2,
        )
        counts = [0, 0]
        for index, (path, _) in enumerate(bond.members):
            path.add_tap(lambda p, s, d, i=index: counts.__setitem__(i, counts[i] + 1))
        from repro.net.packet import ACK, Segment

        for _ in range(10):
            a.send(Segment(Endpoint("10.0.0.1", 1), Endpoint("10.9.0.1", 2), flags=ACK))
        assert counts == [5, 5]
        # The reverse direction returns over the first member only.
        for _ in range(10):
            b.send(Segment(Endpoint("10.9.0.1", 2), Endpoint("10.0.0.1", 1), flags=ACK))
        assert counts == [15, 5]
        assert (bond.segments_fwd, bond.segments_rev) == (10, 10)

    def test_per_flow_mode_sticks(self):
        net = Network(seed=1)
        a = net.add_host("a")
        b = net.add_host("b")
        bond = bond_interfaces(
            net, a, "10.0.0.1", b, "10.9.0.1",
            links=[dict(rate_bps=1e9, delay=0.001)] * 2,
            mode="per-flow",
        )
        from repro.net.packet import ACK, Segment

        src = Endpoint("10.0.0.1", 42)
        dst = Endpoint("10.9.0.1", 80)
        first = bond._member_for_flow(Segment(src, dst, flags=ACK))
        for _ in range(5):
            assert bond._member_for_flow(Segment(src, dst, flags=ACK)) == first
        # Reverse direction maps to the same member.
        assert bond._member_for_flow(Segment(dst, src, flags=ACK)) == first

    def test_tcp_over_bond_intact(self):
        from conftest import random_payload

        net = Network(seed=2)
        a = net.add_host("a")
        b = net.add_host("b")
        bond_interfaces(
            net, a, "10.0.0.1", b, "10.9.0.1",
            links=[dict(rate_bps=8e6, delay=0.01)] * 2,
        )
        from conftest import tcp_transfer

        payload = random_payload(300_000)
        result = tcp_transfer(net, a, b, payload, duration=60)
        assert bytes(result.received) == payload

    def test_bond_uses_both_links(self):
        net = Network(seed=2)
        a = net.add_host("a")
        b = net.add_host("b")
        bond = bond_interfaces(
            net, a, "10.0.0.1", b, "10.9.0.1",
            links=[dict(rate_bps=8e6, delay=0.01)] * 2,
        )
        from conftest import random_payload, tcp_transfer

        tcp_transfer(net, a, b, random_payload(200_000), duration=60)
        sent = [path.link_fwd.stats.packets_sent for path, _ in bond.members]
        assert all(count > 10 for count in sent)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            BondRoute([], name="empty")
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        path = net.connect(a.interface("10.0.0.1"), b.interface("10.9.0.1"),
                           rate_bps=1e6, delay=0.01)
        with pytest.raises(ValueError):
            BondRoute([(path, FORWARD)], mode="banana")
