"""The study's per-path microsimulations.

Each case builds a fresh topology around one :class:`SampledPath` and
runs a verified ``TRANSFER``-byte bulk transfer through its middleboxes:

1. **TCP** — one flow over the path (the baseline: must complete).
2. **MPTCP** — must always complete; records whether multipath was
   actually used or MPTCP fell back.  Client-multihomed paths put the
   first subflow over the profiled path and the second over a clean
   one.  Server-multihomed paths model §3.2: a single-homed (often
   NATted) client whose only route to the server's second address is
   an ADD_ADDR advertisement — and *both* subflows cross the client's
   access-network middleboxes.
3. **Strawman** — the §3 "simplest possible" design: one TCP sequence
   space striped packet-by-packet over the profiled and a clean path
   (TCP over a round-robin bond whose first member is the profiled
   path).  Hole-blockers see sequence gaps, ACK-mishandlers see ACKs
   for data they never observed — this is what breaks.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.bonding import BondRoute
from repro.apps.bulk import run_bulk_transfer
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConfig
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.net.path import FORWARD, REVERSE
from repro.study.generative import SampledPath
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPSocket

RATE = 8e6
DELAY = 0.015
QUEUE = 60_000
TRANSFER = 64 * 1024
TIMEOUT = 30.0

# "Broken" operationalized: never completed, or crawled an order of
# magnitude slower than plain TCP over the same middleboxes — a
# connection stalling on retransmission timeouts is broken for any
# interactive use even if bytes eventually trickle through.
SLOWDOWN_BROKEN = 10.0

SERVER = Endpoint("10.9.0.1", 80)


def _link(net: Network, client, client_ip, server, server_ip, rate=RATE, elements=None):
    ends = client.interface(client_ip), server.interface(server_ip)
    return net.connect(*ends, rate_bps=rate, delay=DELAY, queue_bytes=QUEUE, elements=elements)


def _transfer(net: Network, open_transport, accept_transport) -> tuple[object, Optional[float]]:
    """Run one verified transfer: the client transport and, if every
    byte arrived intact, the time it completed (else None)."""
    result = run_bulk_transfer(net, open_transport, accept_transport, TRANSFER, TIMEOUT, True)
    ok = result["received"] >= TRANSFER and not result["corrupt"]
    return result["transport"], (result["completed_at"] if ok else None)


def _tcp_transfer(net: Network, client, server) -> Optional[float]:
    def open_transport():
        sock = TCPSocket(client)
        sock.connect(SERVER)
        return sock

    return _transfer(net, open_transport, lambda accept: Listener(server, 80, on_accept=accept))[1]


def run_tcp(path: SampledPath, seed: int) -> Optional[float]:
    """Plain TCP over the path: its completion time, None if it failed."""
    net = Network(seed=seed)
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    elements = path.build_elements(net.rng.fork(f"mb{path.index}"), "99.0.0.1")
    _link(net, client, "10.0.0.1", server, "10.9.0.1", elements=elements)
    return _tcp_transfer(net, client, server)


def run_mptcp(path: SampledPath, seed: int) -> dict:
    """MPTCP over the path's topology (see the module docstring)."""
    net = Network(seed=seed)
    if path.server_multihomed:
        client = net.add_host("client", "10.0.0.1")
        server = net.add_host("server", "10.9.0.1", "10.9.1.1")
    else:
        client = net.add_host("client", "10.0.0.1", "10.1.0.1")
        server = net.add_host("server", "10.9.0.1")
    primary = path.build_elements(net.rng.fork("mb-primary"), "99.0.0.1")
    _link(net, client, "10.0.0.1", server, "10.9.0.1", elements=primary)
    rate = RATE * path.rate_ratio
    if path.server_multihomed:
        secondary = path.build_elements(net.rng.fork("mb-secondary"), "99.0.1.1")
        _link(net, client, "10.0.0.1", server, "10.9.1.1", rate, secondary)
    else:
        _link(net, client, "10.1.0.1", server, "10.9.0.1", rate)
    conn, done = _transfer(
        net,
        lambda: mptcp_connect(client, SERVER, config=MPTCPConfig(versions=path.client_versions)),
        lambda accept: mptcp_listen(
            server, 80, config=MPTCPConfig(versions=path.server_versions), on_accept=accept
        ),
    )
    multipath = (
        done is not None
        and not conn.fallback
        and sum(1 for s in conn.subflows if s.established_at is not None and not s.failed) >= 2
    )
    return {
        "ok": done is not None,
        "multipath": multipath,
        "fallback": conn.fallback,
        "fallback_reason": conn.fallback_reason,
        "negotiated_version": conn.negotiated_version,
        "time": done,
    }


def run_strawman(path: SampledPath, seed: int) -> Optional[float]:
    """TCP striped over (profiled path, clean path) with one sequence
    space — §3's strawman: its completion time, None if it failed."""
    net = Network(seed=seed)
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    elements = path.build_elements(net.rng.fork(f"mb{path.index}"), "99.0.0.1", include_nat=False)
    dirty = _link(net, client, "10.0.0.1", server, "10.9.0.1", elements=elements)
    clean = _link(net, client, "10.0.0.1", server, "10.9.0.1")
    # Destination-based return routing: ACKs come back over ONE path —
    # the profiled one (the access network the middlebox lives in).
    bond = BondRoute(
        [(dirty, FORWARD), (clean, FORWARD)], name="strawman", reverse_mode="pin-first"
    )
    client.interface("10.0.0.1").routes["10.9.0.1"] = (bond, FORWARD)  # type: ignore[assignment]
    server.interface("10.9.0.1").routes["10.0.0.1"] = (bond, REVERSE)  # type: ignore[assignment]
    return _tcp_transfer(net, client, server)


def evaluate(path: SampledPath, seed: int, include_strawman: bool) -> dict:
    """Every case over one path, seeded ``seed``, ``seed + 1``, ``seed + 2``."""
    tcp_time = run_tcp(path, seed)
    mptcp = run_mptcp(path, seed + 1)
    outcome = {"tcp_ok": tcp_time is not None, "tcp_time": tcp_time, "mptcp": mptcp}
    if include_strawman:
        strawman_time = run_strawman(path, seed + 2)
        outcome["strawman_ok"] = strawman_time is not None and (
            tcp_time is None or strawman_time <= SLOWDOWN_BROKEN * tcp_time
        )
    outcome["benefit"] = tcp_time / mptcp["time"] if tcp_time and mptcp["time"] else None
    return outcome
