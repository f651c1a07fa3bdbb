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

from dataclasses import replace
from typing import Optional

from repro.apps.bonding import BondRoute
from repro.apps.bulk import run_bulk_transfer
from repro.experiments.common import (
    PathSpec,
    build_multipath_network,
    client_ends,
    open_client,
    open_listener,
)
from repro.mptcp.connection import MPTCPConfig
from repro.net.network import RNG_ROOT
from repro.net.path import FORWARD, REVERSE
from repro.sim.rng import SeededRNG
from repro.study.generative import SampledPath

RATE = 8e6
LINK = PathSpec(rate_bps=RATE, rtt=0.030, buffer_bytes=60_000)
TRANSFER = 64 * 1024
TIMEOUT = 30.0

# "Broken" operationalized: never completed, or crawled an order of
# magnitude slower than plain TCP over the same middleboxes — a
# connection stalling on retransmission timeouts is broken for any
# interactive use even if bytes eventually trickle through.
SLOWDOWN_BROKEN = 10.0

CLIENT_IP = "10.0.0.1"
SERVER_IP = "10.9.0.1"


def _middleboxes(path: SampledPath, seed: int, label: str, nat_ip: str, include_nat: bool = True):
    """The path's middlebox chain, drawing on the stream
    ``net.rng.fork(label)`` of the network a case builds with ``seed``."""
    return path.build_elements(SeededRNG(seed, RNG_ROOT).fork(label), nat_ip, include_nat)


def _transfer(
    net, client, server, config=None, server_config=None
) -> tuple[object, Optional[float]]:
    """Run one verified transfer: the client transport and, if every
    byte arrived intact, the time it completed (else None)."""
    result = run_bulk_transfer(
        net,
        lambda: open_client(client, server, config),
        lambda accept: open_listener(server, server_config, accept),
        TRANSFER,
        TIMEOUT,
        True,
    )
    ok = result["received"] >= TRANSFER and not result["corrupt"]
    return result["transport"], (result["completed_at"] if ok else None)


def run_tcp(path: SampledPath, seed: int) -> Optional[float]:
    """Plain TCP over the path: its completion time, None if it failed."""
    elements = _middleboxes(path, seed, f"mb{path.index}", "99.0.0.1")
    topology = build_multipath_network([LINK], seed, client_ends(1, SERVER_IP), [elements])
    return _transfer(*topology)[1]


def run_mptcp(path: SampledPath, seed: int) -> dict:
    """MPTCP over the path's topology (see the module docstring)."""
    primary = _middleboxes(path, seed, "mb-primary", "99.0.0.1")
    if path.server_multihomed:
        ends = [(CLIENT_IP, SERVER_IP), (CLIENT_IP, "10.9.1.1")]
        elements = [primary, _middleboxes(path, seed, "mb-secondary", "99.0.1.1")]
    else:
        ends, elements = client_ends(2, SERVER_IP), [primary, None]
    second = replace(LINK, rate_bps=RATE * path.rate_ratio)
    conn, done = _transfer(
        *build_multipath_network([LINK, second], seed, ends, elements),
        MPTCPConfig(versions=path.client_versions),
        MPTCPConfig(versions=path.server_versions),
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


def strawman_network(elements, seed: int):
    """§3's strawman topology: TCP over a round-robin bond of two links
    between one interface pair, the first carrying ``elements``.
    Destination-based return routing brings ACKs back over ONE link —
    the first (the access network the middleboxes live in)."""
    net, client, server = build_multipath_network(
        [LINK, LINK], seed, [(CLIENT_IP, SERVER_IP)] * 2, [elements, None]
    )
    members = [(path, FORWARD) for path in net.paths]
    bond = BondRoute(members, name="strawman")
    client.interface(CLIENT_IP).routes[SERVER_IP] = (bond, FORWARD)  # type: ignore[assignment]
    server.interface(SERVER_IP).routes[CLIENT_IP] = (bond, REVERSE)  # type: ignore[assignment]
    return net, client, server


def run_strawman(path: SampledPath, seed: int) -> Optional[float]:
    """TCP striped over (profiled path, clean path) with one sequence
    space — §3's strawman: its completion time, None if it failed."""
    elements = _middleboxes(path, seed, f"mb{path.index}", "99.0.0.1", include_nat=False)
    return _transfer(*strawman_network(elements, seed))[1]


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
