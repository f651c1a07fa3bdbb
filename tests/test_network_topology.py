"""Topology construction details: asymmetric links, loss placement,
NAT route advertisement."""

import pytest

from repro.middlebox import NAT
from repro.net.network import Network
from repro.net.packet import ACK, SYN, Endpoint, Segment

from conftest import random_payload, tcp_transfer


class TestConnect:
    def test_reverse_direction_mirrors_forward(self):
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        path = net.connect(
            a.interface("10.0.0.1"),
            b.interface("10.9.0.1"),
            rate_bps=10e6,
            delay=0.01,
            queue_bytes=30_000,
        )
        assert path.link_fwd.rate_bps == path.link_rev.rate_bps == 10e6
        assert path.link_fwd.queue_bytes == path.link_rev.queue_bytes == 30_000

    def test_loss_applies_forward_only_by_default(self):
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        path = net.connect(
            a.interface("10.0.0.1"), b.interface("10.9.0.1"),
            rate_bps=1e6, delay=0.01, loss=0.5,
        )
        assert path.link_fwd.loss == 0.5
        assert path.link_rev.loss == 0.0

    def test_default_queue_at_least_bdp(self):
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        path = net.connect(
            a.interface("10.0.0.1"), b.interface("10.9.0.1"),
            rate_bps=100e6, delay=0.05,
        )
        assert path.link_fwd.queue_bytes >= 100e6 * 0.05 / 8

    def test_nat_advertises_route_back(self):
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1")
        b = net.add_host("b", "10.9.0.1")
        net.connect(
            a.interface("10.0.0.1"), b.interface("10.9.0.1"),
            rate_bps=1e6, delay=0.01, elements=[NAT("99.5.5.5")],
        )
        assert b.interface("10.9.0.1").route_for("99.5.5.5") is not None

    def test_two_nats_distinct_routes(self):
        net = Network(seed=1)
        a = net.add_host("a", "10.0.0.1", "10.1.0.1")
        b = net.add_host("b", "10.9.0.1")
        p1 = net.connect(a.interface("10.0.0.1"), b.interface("10.9.0.1"),
                         rate_bps=1e6, delay=0.01, elements=[NAT("99.0.0.1")])
        p2 = net.connect(a.interface("10.1.0.1"), b.interface("10.9.0.1"),
                         rate_bps=1e6, delay=0.01, elements=[NAT("99.0.0.2")])
        iface = b.interface("10.9.0.1")
        assert iface.route_for("99.0.0.1")[0] is p1
        assert iface.route_for("99.0.0.2")[0] is p2

    def test_run_until_and_now(self):
        net = Network(seed=1)
        net.sim.schedule(0.5, lambda: None)
        net.run(until=1.0)
        assert net.now == 1.0


class TestReverseDirectionBehaviour:
    def test_server_push_uses_reverse_link(self):
        """Data flowing server->client crosses link_rev and both sides'
        stacks behave identically."""
        net = Network(seed=3)
        client = net.add_host("client", "10.0.0.1")
        server = net.add_host("server", "10.9.0.1")
        net.connect(
            client.interface("10.0.0.1"), server.interface("10.9.0.1"),
            rate_bps=8e6, delay=0.01, queue_bytes=60_000,
        )
        from repro.net.packet import Endpoint
        from repro.tcp.listener import Listener
        from repro.tcp.socket import TCPSocket

        payload = random_payload(150_000)
        received = bytearray()

        def on_accept(sock):
            # Server pushes on accept.
            progress = {"sent": 0}

            def pump(s):
                while progress["sent"] < len(payload):
                    accepted = s.send(payload[progress["sent"] :])
                    if accepted == 0:
                        return
                    progress["sent"] += accepted
                s.close()

            sock.on_writable = pump
            pump(sock)

        Listener(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        sock.on_data = lambda s: received.extend(s.read())
        sock.on_eof = lambda s: s.close()
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=30)
        assert bytes(received) == payload
        rev_bytes = net.paths[0].link_rev.stats.payload_bytes_sent
        assert rev_bytes >= len(payload)
