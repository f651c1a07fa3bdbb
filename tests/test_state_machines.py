"""The TCP and MPTCP connection state machines are tables
(``repro.tcp.state.TRANSITIONS``, ``repro.mptcp.state.TRANSITIONS``), and
each machine's ``_set_state`` is its only writer.

Two halves: a write the table forbids raises ``IllegalTransition`` (and
the error crosses a process pipe intact), and every row of both tables
is *taken* by one of the scenarios below — a row no scenario takes is
either dead or untested, and the coverage tests fail on it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.runner import Point, run_parallel
from repro.middlebox import OptionStripper, PayloadModifier
from repro.mptcp import state as mptcp_state
from repro.mptcp.api import connect as mptcp_connect
from repro.mptcp.api import listen as mptcp_listen
from repro.mptcp.connection import MPTCPConnection
from repro.mptcp.state import MPTCPConnState
from repro.net.packet import Endpoint
from repro.tcp import state as tcp_state
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPSocket
from repro.tcp.state import IllegalTransition, TCPState

from conftest import make_tcp_pair, mptcp_transfer, random_payload, tcp_transfer

SERVER = Endpoint("10.9.0.1", 80)


def established_pair():
    net, client, server = make_tcp_pair()
    accepted = []
    Listener(server, 80, on_accept=accepted.append)
    sock = TCPSocket(client)
    sock.connect(SERVER)
    net.run(until=1.0)
    return net, sock, accepted[0]


# ---------------------------------------------------------------------------
# A forbidden edge raises, and the error pickles
# ---------------------------------------------------------------------------
class TestIllegalTransition:
    def test_forbidden_tcp_edge_raises_and_leaves_the_state(self):
        net, sock, peer = established_pair()
        with pytest.raises(IllegalTransition) as exc:
            sock._set_state(TCPState.SYN_SENT)
        assert exc.value.args == ("tcp", TCPState.ESTABLISHED, TCPState.SYN_SENT)
        assert str(exc.value) == "tcp: ESTABLISHED -> SYN_SENT is not in the transition table"
        assert sock.state is TCPState.ESTABLISHED

    def test_a_removed_row_stops_the_run_that_takes_it(self, monkeypatch):
        """Drive a real transfer through an edge the table no longer
        holds: the write raises out of the event loop."""
        edge = (TCPState.SYN_RCVD, TCPState.ESTABLISHED)
        monkeypatch.setattr(
            "repro.tcp.socket.TRANSITIONS", tcp_state.TRANSITIONS - {edge}
        )
        net, client, server = make_tcp_pair()
        with pytest.raises(IllegalTransition) as exc:
            tcp_transfer(net, client, server, b"x" * 1000)
        assert exc.value.args == ("tcp",) + edge

    def test_fallback_is_a_one_way_door(self):
        net, client, server = make_tcp_pair(elements=[OptionStripper(syn_only=True)])
        result = mptcp_transfer(net, client, server, random_payload(10_000))
        conn = result.client
        assert conn.conn_state is MPTCPConnState.M_FALLBACK_CLOSED
        with pytest.raises(IllegalTransition) as exc:
            conn._set_state(MPTCPConnState.M_ESTABLISHED)
        assert exc.value.args[0] == "mptcp"
        assert conn.conn_state is MPTCPConnState.M_FALLBACK_CLOSED

    def test_pickle_round_trip_keeps_args_and_text(self):
        error = IllegalTransition("mptcp", MPTCPConnState.M_CLOSED, MPTCPConnState.M_INIT)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is IllegalTransition
        assert clone.args == error.args
        assert str(clone) == "mptcp: M_CLOSED -> M_INIT is not in the transition table"

    def test_run_parallel_surfaces_the_error_in_the_parent(self):
        points = [Point(_illegal_write, {"label": label}) for label in ("first", "second")]
        with pytest.raises(IllegalTransition) as exc:
            run_parallel("illegal-transitions", points, workers=2)
        assert exc.value.args == ("tcp", TCPState.CLOSED, TCPState.ESTABLISHED)


def _illegal_write(label):
    net, client, server = make_tcp_pair()
    TCPSocket(client, name=label)._set_state(TCPState.ESTABLISHED)


# ---------------------------------------------------------------------------
# The rules the hot paths' state tests rest on
# ---------------------------------------------------------------------------
def _reachable(table, start):
    seen, frontier = {start}, [start]
    while frontier:
        src = frontier.pop()
        for row_src, dst in table:
            if row_src is src and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def test_no_tcp_row_enters_listen():
    assert [row for row in tcp_state.TRANSITIONS if row[1] is TCPState.LISTEN] == []


def test_unsynchronized_reachable_states_are_the_handshake():
    """``_try_send`` tests ``not state.synchronized`` for "CLOSED,
    SYN_SENT or SYN_RCVD": exact only while no socket reaches LISTEN."""
    reachable = _reachable(tcp_state.TRANSITIONS, TCPState.CLOSED)
    assert {state for state in reachable if not state.synchronized} == {
        TCPState.CLOSED,
        TCPState.SYN_SENT,
        TCPState.SYN_RCVD,
    }


@pytest.mark.parametrize(
    "module, enum", [(tcp_state, TCPState), (mptcp_state, MPTCPConnState)]
)
def test_member_constants_are_the_members(module, enum):
    """Each state module binds every member to a module constant of
    the member's own name, and binds no other name to a member."""
    exported = {name: value for name, value in vars(module).items() if isinstance(value, enum)}
    assert sorted(exported) == sorted(enum.__members__)
    for name, value in exported.items():
        assert value is enum[name], name


# ---------------------------------------------------------------------------
# Every table row is taken by a scenario
# ---------------------------------------------------------------------------
def _tcp_scenarios():
    # Full transfer: handshake, active close through FIN_WAIT_2 and
    # TIME_WAIT's expiry, passive close through CLOSE_WAIT and LAST_ACK.
    net, client, server = make_tcp_pair()
    tcp_transfer(net, client, server, random_payload(20_000), duration=5.0)

    # Half close, then aborts: FIN_WAIT_2 and CLOSE_WAIT -> CLOSED.
    net, sock, peer = established_pair()
    sock.close()
    net.run(until=1.5)
    assert (sock.state, peer.state) == (TCPState.FIN_WAIT_2, TCPState.CLOSE_WAIT)
    sock.abort()  # the RST aborts the peer too
    net.run(until=2.0)

    # Simultaneous close: FIN_WAIT_1 -> CLOSING, then one end aborts
    # in CLOSING and the other is reset there.
    net, sock, peer = established_pair()
    sock.close()
    peer.close()
    net.run(until=1.015)
    assert (sock.state, peer.state) == (TCPState.CLOSING, TCPState.CLOSING)
    sock.abort()
    net.run(until=2.0)

    # ... and left alone, CLOSING -> TIME_WAIT.
    net, sock, peer = established_pair()
    sock.close()
    peer.close()
    net.run(until=1.5)

    # ESTABLISHED and FIN_WAIT_1 aborts (the peer is reset while
    # ESTABLISHED).
    net, sock, peer = established_pair()
    sock.close()
    assert sock.state is TCPState.FIN_WAIT_1
    sock.abort()
    net.run(until=2.0)
    net, sock, peer = established_pair()
    sock.abort()
    net.run(until=2.0)

    # Close in SYN_SENT; its SYN is answered by a SYN,ACK the client host
    # resets, which closes the server socket in SYN_RCVD.
    net, client, server = make_tcp_pair()
    Listener(server, 80)
    sock = TCPSocket(client)
    sock.connect(SERVER)
    sock.close()
    net.run(until=1.0)

    # A server that closes during the handshake: SYN_RCVD -> FIN_WAIT_1.
    net, client, server = make_tcp_pair()
    spawned = []

    def factory(host, syn, config):
        spawned.append(TCPSocket(host, config))
        return spawned[-1]

    Listener(server, 80, socket_factory=factory)
    TCPSocket(client).connect(SERVER)
    net.run(until=0.015)
    assert spawned[0].state is TCPState.SYN_RCVD
    spawned[0].close()
    net.run(until=5.0)


def _mptcp_scenarios():
    # MP_CAPABLE end to end, DATA_FIN teardown.
    net, client, server = make_tcp_pair()
    mptcp_transfer(net, client, server, random_payload(20_000), duration=5.0)

    # MP_CAPABLE stripped from the SYN: both ends fall back during the
    # handshake and close as plain TCP.
    net, client, server = make_tcp_pair(elements=[OptionStripper(syn_only=True)])
    mptcp_transfer(net, client, server, random_payload(20_000), duration=5.0)

    # An ALG rewrites payload on the only subflow: the DSS checksum
    # fails and the established connection falls back (§3.3.6).
    payload = random_payload(60_000, seed=5)
    pattern = payload[30_000:30_012]
    net, client, server = make_tcp_pair(
        elements=[PayloadModifier(pattern, b"REWRITTEN-XX", max_rewrites=1)]
    )
    mptcp_transfer(net, client, server, payload, duration=10.0)

    # The application aborts before the handshake completes.
    net, client, server = make_tcp_pair()
    mptcp_listen(server, 80)
    mptcp_connect(client, SERVER).abort()
    net.run(until=1.0)

    # A black-hole path: after two lost SYNs the client retries without
    # MP_CAPABLE (§3.1); the application aborts while it falls back.
    net, client, server = make_tcp_pair()
    net.paths[0].link_fwd.deliver = lambda segment: None
    conn = mptcp_connect(client, SERVER)
    net.run(until=4.0)
    assert conn.conn_state is MPTCPConnState.M_FALLBACK_INIT
    conn.abort()


@pytest.fixture(scope="module")
def taken():
    """Every ``(machine, src, dst)`` the scenarios write."""
    edges: set = set()
    with pytest.MonkeyPatch.context() as patch:
        for cls, attr, machine in (
            (TCPSocket, "state", "tcp"),
            (MPTCPConnection, "conn_state", "mptcp"),
        ):
            original = cls._set_state

            def recording(self, dst, original=original, attr=attr, machine=machine):
                edges.add((machine, getattr(self, attr), dst))
                original(self, dst)

            patch.setattr(cls, "_set_state", recording)
        _tcp_scenarios()
        _mptcp_scenarios()
    return edges


def _untaken(table, machine, taken):
    return sorted(
        f"{src.name} -> {dst.name}" for src, dst in table if (machine, src, dst) not in taken
    )


def test_every_tcp_row_is_taken(taken):
    assert _untaken(tcp_state.TRANSITIONS, "tcp", taken) == []


def test_every_connection_row_is_taken(taken):
    assert _untaken(mptcp_state.TRANSITIONS, "mptcp", taken) == []
