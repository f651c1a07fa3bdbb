"""Shared fixtures and topology helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.apps.bulk import BulkSenderApp
from repro.check import InvariantOracle
from repro.experiments.common import (
    PathSpec,
    build_multipath_network,
    client_ends,
    open_client,
    open_listener,
)
from repro.mptcp.connection import MPTCPConfig
from repro.net.network import Network
from repro.sim import gcscope
from repro.tcp.socket import TCPConfig


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
# Only "", "0" and "1" are accepted; anything else stops the session.
# ---------------------------------------------------------------------------
ORACLE_SETTING = os.environ.get("REPRO_ORACLE", "")
ORACLE_ENABLED = ORACLE_SETTING == "1"


def pytest_configure(config):
    if ORACLE_SETTING not in ("", "0", "1"):
        raise pytest.UsageError(
            f"REPRO_ORACLE must be '', '0' or '1', got {ORACLE_SETTING!r}"
        )


@pytest.fixture(autouse=True)
def _oracle_everywhere(monkeypatch):
    if not ORACLE_ENABLED:
        yield
        return
    original_init = Network.__init__

    def init_with_oracle(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        InvariantOracle.attach(self)

    monkeypatch.setattr(Network, "__init__", init_with_oracle)
    yield


def _spec(rate_bps: float, delay: float, queue_bytes: int | None = None, loss: float = 0.0):
    """Unnamed: the network names it "10.i.0.1<->10.9.0.1", the loss stream's seed."""
    return PathSpec(rate_bps=rate_bps, rtt=2 * delay, buffer_bytes=queue_bytes, loss=loss)


def make_tcp_pair(
    seed: int = 1,
    rate_bps: float = 8e6,
    delay: float = 0.01,
    queue_bytes: int | None = 60_000,
    loss: float = 0.0,
    elements=None,
):
    """One client, one server, one path.  Returns (net, client, server)."""
    path = _spec(rate_bps, delay, queue_bytes, loss)
    return build_multipath_network([path], seed, client_ends(1, "10.9.0.1"), [elements])


def make_multipath(
    seed: int = 1,
    paths: list[dict] | None = None,
    elements_per_path: list | None = None,
):
    """Dual-homed (or more) client and single-address server."""
    paths = paths or [
        dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000),
        dict(rate_bps=2e6, delay=0.05, queue_bytes=100_000),
    ]
    specs = [_spec(**params) for params in paths]
    ends = client_ends(len(specs), "10.9.0.1")
    return build_multipath_network(specs, seed, ends, elements_per_path)


def random_payload(size: int, seed: int = 0) -> bytes:
    """Non-repeating payload (important: pattern-matching middleboxes
    and checksum tests must not be confused by periodicity)."""
    rnd = random.Random(seed)
    return bytes(rnd.getrandbits(8) for _ in range(size))


class TransferResult:
    def __init__(self):
        self.received = bytearray()
        self.client = self.server = self.completed_at = self.client_error = None


def tcp_transfer(
    net,
    client,
    server,
    payload: bytes,
    duration: float = 60.0,
    port: int = 80,
    client_config: TCPConfig | None = None,
    server_config: TCPConfig | None = None,
) -> TransferResult:
    """Full TCP transfer client->server; asserts nothing (callers do)."""
    return _transfer(net, client, server, payload, duration, port,
                     client_config, server_config or TCPConfig())


def mptcp_transfer(
    net,
    client,
    server,
    payload: bytes,
    duration: float = 60.0,
    port: int = 80,
    config: MPTCPConfig | None = None,
) -> TransferResult:
    config = config or MPTCPConfig()
    return _transfer(net, client, server, payload, duration, port, config, config)


def _transfer(net, client, server, payload, duration, port, config, server_config):
    """The one body of both transfers: the opener picks TCP or MPTCP."""
    result = TransferResult()

    def on_data(e):
        result.received.extend(e.read())
        if len(result.received) >= len(payload) and result.completed_at is None:
            result.completed_at = net.now

    def on_accept(endpoint):
        result.server = endpoint
        endpoint.on_data = on_data
        endpoint.on_eof = lambda e: e.close()

    open_listener(server, server_config, on_accept, port)
    result.client = open_client(client, server, config, port)
    result.client.on_error = lambda e, reason: setattr(result, "client_error", reason)
    BulkSenderApp(result.client, payload)
    net.run(until=duration)
    return result
