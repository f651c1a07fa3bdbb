"""Shared fixtures and topology helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.check import InvariantOracle
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.sim import gcscope
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket


@pytest.fixture(scope="session", autouse=True)
def _gc_batch():
    """A test session is a loop of short runs, each ending in a full
    sweep: freeze what collection left alive (pytest, the imported
    packages, every test item) so those sweeps stop walking it.  Inner
    ``batch()`` scopes — the sweep runner's — are no-ops under test."""
    with gcscope.batch():
        yield


# ---------------------------------------------------------------------------
# REPRO_ORACLE=1 runs the whole suite under the invariant oracle: every
# Network built by any test gets a per-event protocol checker attached,
# and any violation surfaces as an InvariantViolation in that test.
# ---------------------------------------------------------------------------
ORACLE_ENABLED = os.environ.get("REPRO_ORACLE", "") not in ("", "0")


@pytest.fixture(autouse=True)
def _oracle_everywhere(monkeypatch):
    if not ORACLE_ENABLED:
        yield
        return
    original_init = Network.__init__

    def init_with_oracle(self, seed: int = 1, shards: int | None = None):
        original_init(self, seed=seed, shards=shards)
        InvariantOracle.attach(self)

    monkeypatch.setattr(Network, "__init__", init_with_oracle)
    yield


def make_tcp_pair(
    seed: int = 1,
    rate_bps: float = 8e6,
    delay: float = 0.01,
    queue_bytes: int | None = 60_000,
    loss: float = 0.0,
    elements=None,
    client_config: TCPConfig | None = None,
    server_config: TCPConfig | None = None,
):
    """One client, one server, one path.  Returns (net, client, server)."""
    net = Network(seed=seed)
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    net.connect(
        client.interface("10.0.0.1"),
        server.interface("10.9.0.1"),
        rate_bps=rate_bps,
        delay=delay,
        queue_bytes=queue_bytes,
        loss=loss,
        elements=elements or [],
    )
    return net, client, server


def make_multipath(
    seed: int = 1,
    paths: list[dict] | None = None,
    elements_per_path: list | None = None,
    shards: int | None = None,
):
    """Dual-homed (or more) client and single-address server."""
    net = Network(seed=seed, shards=shards)
    paths = paths or [
        dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000),
        dict(rate_bps=2e6, delay=0.05, queue_bytes=100_000),
    ]
    ips = [f"10.{i}.0.1" for i in range(len(paths))]
    client = net.add_host("client", *ips)
    server = net.add_host("server", "10.9.0.1")
    for index, (ip, params) in enumerate(zip(ips, paths)):
        extra = {}
        if elements_per_path and elements_per_path[index]:
            extra["elements"] = elements_per_path[index]
        net.connect(
            client.interface(ip), server.interface("10.9.0.1"), **params, **extra
        )
    return net, client, server


def random_payload(size: int, seed: int = 0) -> bytes:
    """Non-repeating payload (important: pattern-matching middleboxes
    and checksum tests must not be confused by periodicity)."""
    rnd = random.Random(seed)
    return bytes(rnd.getrandbits(8) for _ in range(size))


class TransferResult:
    def __init__(self):
        self.received = bytearray()
        self.client = None
        self.server = None
        self.completed_at = None
        self.client_error = None


def tcp_transfer(
    net,
    client,
    server,
    payload: bytes,
    duration: float = 60.0,
    port: int = 80,
    client_config: TCPConfig | None = None,
    server_config: TCPConfig | None = None,
    reader_greedy: bool = True,
) -> TransferResult:
    """Full TCP transfer client->server; asserts nothing (callers do)."""
    result = TransferResult()

    def on_accept(sock):
        result.server = sock
        if reader_greedy:
            def on_data(s):
                data = s.read()
                result.received.extend(data)
                if len(result.received) >= len(payload) and result.completed_at is None:
                    result.completed_at = net.now

            sock.on_data = on_data
        sock.on_eof = lambda s: s.close()

    Listener(server, port, config=server_config, on_accept=on_accept)
    sock = TCPSocket(client, config=client_config)
    result.client = sock
    sock.on_error = lambda s, reason: setattr(result, "client_error", reason)
    progress = {"sent": 0}

    def pump(s):
        while progress["sent"] < len(payload):
            accepted = s.send(payload[progress["sent"] : progress["sent"] + 65536])
            if accepted == 0:
                return
            progress["sent"] += accepted
        s.close()

    sock.on_established = pump
    sock.on_writable = pump
    sock.connect(Endpoint(server.primary_address, port))
    net.run(until=duration)
    return result


def mptcp_transfer(
    net,
    client,
    server,
    payload: bytes,
    duration: float = 60.0,
    port: int = 80,
    config: MPTCPConfig | None = None,
) -> TransferResult:
    result = TransferResult()
    config = config or MPTCPConfig()

    def on_accept(conn):
        result.server = conn

        def on_data(c):
            data = c.read()
            result.received.extend(data)
            if len(result.received) >= len(payload) and result.completed_at is None:
                result.completed_at = net.now

        conn.on_data = on_data
        conn.on_eof = lambda c: c.close()

    mptcp_listen(server, port, config=config, on_accept=on_accept)
    conn = mptcp_connect(client, Endpoint(server.primary_address, port), config=config)
    result.client = conn
    conn.on_error = lambda c, reason: setattr(result, "client_error", reason)
    progress = {"sent": 0}

    def pump(c):
        while progress["sent"] < len(payload):
            accepted = c.send(payload[progress["sent"] : progress["sent"] + 65536])
            if accepted == 0:
                return
            progress["sent"] += accepted
        c.close()

    conn.on_established = pump
    conn.on_writable = pump
    net.run(until=duration)
    return result
