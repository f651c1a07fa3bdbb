"""The per-host MPTCP token table and many concurrent connections."""

import pytest

from repro.mptcp.api import connect, listen
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.keys import host_tokens
from repro.net.packet import Endpoint

from conftest import make_multipath, random_payload


class TestHostTokens:
    def test_one_token_table_per_host(self):
        net, client, server = make_multipath()
        assert host_tokens(server) is host_tokens(server)
        assert host_tokens(server) is not host_tokens(client)

    def test_tokens_registered_and_released(self):
        net, client, server = make_multipath()
        tokens = host_tokens(client)
        before = len(tokens)
        holder = {}

        def on_accept(c):
            holder["s"] = c
            c.on_eof = lambda conn_: conn_.close()

        listen(server, 80, on_accept=on_accept)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        assert len(tokens) == before + 1
        net.run(until=1.0)
        conn.send(b"x")
        conn.close()
        net.run(until=10.0)
        assert conn.closed
        assert len(tokens) == before  # released on teardown

    def test_two_listeners_different_ports(self):
        net, client, server = make_multipath()
        accepted = {80: [], 8080: []}
        listen(server, 80, on_accept=accepted[80].append)
        listen(server, 8080, on_accept=accepted[8080].append)
        connect(client, Endpoint("10.9.0.1", 80))
        connect(client, Endpoint("10.9.0.1", 8080))
        net.run(until=2.0)
        assert len(accepted[80]) == 1
        assert len(accepted[8080]) == 1


class TestConcurrentConnections:
    def test_many_parallel_mptcp_transfers(self):
        """Twenty concurrent connections between the same pair of hosts:
        tokens, ports and subflows must never cross wires."""
        net, client, server = make_multipath(
            paths=[
                dict(rate_bps=50e6, delay=0.005, queue_bytes=500_000),
                dict(rate_bps=50e6, delay=0.008, queue_bytes=500_000),
            ]
        )
        count = 20
        payloads = [random_payload(40_000, seed=100 + i) for i in range(count)]
        sinks: dict[int, bytearray] = {}

        def on_accept(conn):
            index = len(sinks)
            sinks[index] = bytearray()

            def on_data(c, index=index):
                sinks[index].extend(c.read())

            conn.on_data = on_data
            conn.on_eof = lambda c: c.close()

        listen(server, 80, on_accept=on_accept)
        for index in range(count):
            conn = connect(client, Endpoint("10.9.0.1", 80))
            payload = payloads[index]

            def pump(c, payload=payload, progress={"sent": 0}):
                while progress["sent"] < len(payload):
                    accepted = c.send(payload[progress["sent"] :])
                    if accepted == 0:
                        return
                    progress["sent"] += accepted
                c.close()

            conn.on_established = pump
            conn.on_writable = pump
        net.run(until=60)
        assert len(sinks) == count
        received = sorted(bytes(sink) for sink in sinks.values())
        assert received == sorted(payloads)

    def test_token_uniqueness_under_many_connections(self):
        net, client, server = make_multipath()
        listen(server, 80)
        tokens = set()
        for _ in range(30):
            conn = connect(client, Endpoint("10.9.0.1", 80))
            assert conn.local_token not in tokens
            tokens.add(conn.local_token)
        net.run(until=5.0)

    def test_interleaved_lifecycles(self):
        """Connections opening while others close: no state bleed."""
        net, client, server = make_multipath()
        results = []

        def on_accept(conn):
            conn.on_data = lambda c: results.append(c.read())
            conn.on_eof = lambda c: c.close()

        listen(server, 80, on_accept=on_accept)

        def launch(tag: bytes):
            conn = connect(client, Endpoint("10.9.0.1", 80))

            def go(c):
                c.send(tag * 100)
                c.close()

            conn.on_established = go

        launch(b"A")
        net.sim.schedule(0.5, launch, b"B")
        net.sim.schedule(1.0, launch, b"C")
        net.run(until=20)
        combined = b"".join(bytes(r) for r in results)
        assert combined.count(b"A") == 100
        assert combined.count(b"B") == 100
        assert combined.count(b"C") == 100
