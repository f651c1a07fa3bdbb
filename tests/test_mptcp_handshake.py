"""MPTCP connection establishment: MP_CAPABLE, keys/tokens, MP_JOIN
authentication, path management (§3.1, §3.2)."""

import pytest

from repro.experiments.common import open_client, open_listener
from repro.mptcp.api import connect, listen
from repro.mptcp.connection import MPTCPConfig
from repro.mptcp.keys import (
    TokenTable,
    generate_key,
    host_tokens,
    idsn_from_key,
    join_hmac,
    token_from_key,
)
from repro.mptcp.options import MPCapable, MPJoin
from repro.mptcp.state import MPTCPConnState
from repro.net.network import Network
from repro.net.packet import Endpoint
from repro.sim.rng import SeededRNG
from repro.tcp.socket import TCPConfig

from conftest import make_multipath, make_tcp_pair, mptcp_transfer, random_payload


class TestKeys:
    def test_keys_are_64_bit(self):
        rng = SeededRNG(1, "k")
        key = generate_key(rng)
        assert 0 <= key < (1 << 64)

    def test_token_deterministic(self):
        assert token_from_key(12345) == token_from_key(12345)

    def test_token_differs_per_key(self):
        assert token_from_key(1) != token_from_key(2)

    def test_idsn_derived_from_key(self):
        assert idsn_from_key(99) == idsn_from_key(99)
        assert idsn_from_key(99) != idsn_from_key(100)

    def test_join_hmac_directional(self):
        """Initiator and responder compute different MACs (key order)."""
        a = join_hmac(1, 2, 10, 20)
        b = join_hmac(2, 1, 20, 10)
        assert a != b

    def test_join_hmac_depends_on_nonces(self):
        assert join_hmac(1, 2, 10, 20) != join_hmac(1, 2, 11, 20)

    def test_token_table_register_lookup(self):
        table = TokenTable(SeededRNG(1, "t"))
        key, token = table.generate_unique_key()
        table.register(token, "conn")
        assert table.lookup(token) == "conn"
        table.unregister(token)
        assert table.lookup(token) is None
        assert len(table) == 0

    def test_token_table_rejects_duplicate(self):
        table = TokenTable(SeededRNG(1, "t"))
        key, token = table.generate_unique_key()
        table.register(token, "a")
        with pytest.raises(ValueError):
            table.register(token, "b")

    def test_unique_key_avoids_collisions(self):
        table = TokenTable(SeededRNG(1, "t"))
        seen = set()
        for _ in range(200):
            key, token = table.generate_unique_key()
            assert token not in seen
            table.register(token, object())
            seen.add(token)


class TestEstablishment:
    def test_mptcp_negotiated_and_joined(self):
        net, client, server = make_multipath()
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        conn = result.client
        assert not conn.fallback
        kinds = sorted(s.kind for s in conn.subflows)
        assert kinds == ["initial", "join"]
        assert all(s.is_mptcp for s in conn.subflows)

    def test_keys_exchanged_and_tokens_agree(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(10_000))
        client_conn, server_conn = result.client, result.server
        assert client_conn.remote_key == server_conn.local_key
        assert server_conn.remote_key == client_conn.local_key
        assert client_conn.remote_token == token_from_key(server_conn.local_key)

    def test_idsn_agreement(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(10_000))
        assert result.client.local_idsn == result.server.remote_idsn
        assert result.client.remote_idsn == result.server.local_idsn

    def test_checksum_negotiation_either_side_requires(self):
        net, client, server = make_multipath()
        from repro.mptcp.api import connect as mconnect
        from repro.mptcp.api import listen as mlisten

        server_cfg = MPTCPConfig(checksum=True)
        client_cfg = MPTCPConfig(checksum=False)
        holder = {}
        mlisten(server, 80, config=server_cfg, on_accept=lambda c: holder.update(s=c))
        conn = mconnect(client, Endpoint("10.9.0.1", 80), config=client_cfg)
        net.run(until=1.0)
        assert conn.checksum_enabled  # server demanded them
        assert holder["s"].checksum_enabled

    def test_join_uses_second_interface(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(300_000))
        join = next(s for s in result.client.subflows if s.kind == "join")
        assert join.local.ip == "10.1.0.1"
        assert join.stats.bytes_sent > 0  # it actually carried data

    def test_max_subflows_respected(self):
        paths = [dict(rate_bps=8e6, delay=0.01, queue_bytes=60_000)] * 4
        net, client, server = make_multipath(paths=paths)
        config = MPTCPConfig(max_subflows=2)
        result = mptcp_transfer(net, client, server, random_payload(50_000), config=config)
        assert len([s for s in result.client.subflows if not s.failed]) <= 2

    def test_server_accept_callback_fires_once(self):
        net, client, server = make_multipath()
        accepted = []
        listen(server, 80, on_accept=accepted.append)
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=2.0)
        assert len(accepted) == 1

    @pytest.mark.parametrize("client_config", [MPTCPConfig(), TCPConfig()], ids=["mp", "plain"])
    def test_accept_precedes_established_and_add_addr(self, client_config):
        """``on_accept`` fires once per connection — an MP_CAPABLE one
        that later gains a joined subflow, and a fallback one whose SYN
        carried no MP_CAPABLE — before ``on_established``, which comes
        before the server announces its second address (ADD_ADDR)."""
        net = Network(seed=4)
        client = net.add_host("client", "10.0.0.1")
        server = net.add_host("server", "10.9.0.1", "10.9.1.1")
        net.connect(client.interface("10.0.0.1"), server.interface("10.9.0.1"),
                    rate_bps=8e6, delay=0.01)
        net.connect(client.interface("10.0.0.1"), server.interface("10.9.1.1"),
                    rate_bps=8e6, delay=0.02)
        events, accepted = [], []

        def on_accept(conn):
            accepted.append(conn)
            events.append("accept")
            conn.on_established = lambda c: events.append("established")
            announce = conn.announce_address

            def announce_address(ip):
                events.append(f"add_addr {ip}")
                announce(ip)

            conn.announce_address = announce_address

        open_listener(server, MPTCPConfig(), on_accept)
        open_client(client, server, client_config)
        net.run(until=2.0)
        (conn,) = accepted
        if isinstance(client_config, MPTCPConfig):
            assert events == ["accept", "established", "add_addr 10.9.1.1"]
            assert not conn.fallback
            assert len(conn.subflows) == 2  # the MP_JOIN did not re-fire the accept
        else:
            assert events == ["accept", "established"]
            assert conn.fallback


class TestNeverEstablished:
    """A connection whose only subflow dies before the handshake
    completes is torn down like a plain TCP socket in the same spot:
    one connection-level error, a closed state, no leaked token."""

    def _attempt(self, blackhole: bool, port: int = 80):
        net, client, server = make_tcp_pair(seed=5)
        if blackhole:
            net.paths[0].link_fwd.deliver = lambda segment: None
        conn = connect(client, Endpoint(server.primary_address, port))
        errors, closes = [], []
        conn.on_error = lambda c, error: errors.append(error)
        conn.on_close = closes.append
        net.run(until=600)
        return conn, errors, closes

    def test_syn_retries_exhausted(self):
        conn, errors, closes = self._attempt(blackhole=True)
        assert conn.conn_state is MPTCPConnState.M_FALLBACK_CLOSED  # ladder dropped MP_CAPABLE
        assert errors == ["all subflows failed (retransmission limit)"]
        assert closes == [conn]
        assert host_tokens(conn.host)._count == 0

    def test_connection_refused(self):
        conn, errors, closes = self._attempt(blackhole=False, port=81)
        assert conn.conn_state is MPTCPConnState.M_CLOSED
        assert errors == ["all subflows failed (connection refused)"]
        assert closes == [conn]
        assert host_tokens(conn.host)._count == 0


class TestJoinSecurity:
    def test_join_with_wrong_token_reset(self):
        """An MP_JOIN with an unknown token is refused with a RST."""
        from repro.net.packet import SYN, Segment

        net, client, server = make_multipath()
        listen(server, 80)
        responses = []
        client.on_receive.append(responses.append)
        join_syn = Segment(
            src=Endpoint("10.0.0.1", 7777),
            dst=Endpoint("10.9.0.1", 80),
            seq=1000,
            flags=SYN,
            options=[MPJoin(address_id=1, token=0xDEAD, nonce=1)],
        )
        client.send(join_syn)
        net.run(until=1.0)
        assert responses and responses[0].rst

    def test_join_with_forged_mac_rejected(self):
        """Hijack attempt: valid token, wrong MAC.  The subflow must
        never be attached to the connection (§3.2)."""
        net, client, server = make_multipath()
        attacker = net.add_host("attacker", "10.66.0.1")
        net.connect(
            attacker.interface("10.66.0.1"),
            server.interface("10.9.0.1"),
            rate_bps=8e6,
            delay=0.01,
        )
        holder = {}
        listen(server, 80, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        server_conn = holder["s"]
        subflows_before = len(server_conn.subflows)

        # The attacker knows the token (it is derivable from traffic
        # observation in our model) but not the keys.
        from repro.net.packet import ACK, SYN, Segment

        token = server_conn.local_token
        join_syn = Segment(
            src=Endpoint("10.66.0.1", 5555),
            dst=Endpoint("10.9.0.1", 80),
            seq=77,
            flags=SYN,
            options=[MPJoin(address_id=9, token=token, nonce=42)],
        )
        attacker.send(join_syn)
        net.run(until=2.0)
        # The server answered SYN/ACK (it cannot know yet), but the
        # attacker cannot produce the third-ACK HMAC; forge a wrong one.
        forged = Segment(
            src=Endpoint("10.66.0.1", 5555),
            dst=Endpoint("10.9.0.1", 80),
            seq=78,
            ack=1,  # wrong but let the state machine see the MAC check
            flags=ACK,
            options=[MPJoin(address_id=9, mac=0xBAD)],
        )
        attacker.send(forged)
        net.run(until=4.0)
        attached = [
            s for s in server_conn.subflows
            if s.remote is not None and s.remote.ip == "10.66.0.1" and s.join_verified
        ]
        assert attached == []

    def test_join_mac_verified_on_legit_subflow(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(50_000))
        join = next(s for s in result.server.subflows if s.kind == "join")
        assert join.join_verified


class TestAddAddr:
    def test_server_advertises_extra_address_and_client_joins(self):
        net = __import__("repro.net.network", fromlist=["Network"]).Network(seed=4)
        client = net.add_host("client", "10.0.0.1")
        server = net.add_host("server", "10.9.0.1", "10.9.1.1")
        net.connect(client.interface("10.0.0.1"), server.interface("10.9.0.1"),
                    rate_bps=8e6, delay=0.01)
        # A second path from the client's single interface to the
        # server's second address.
        net.connect(client.interface("10.0.0.1"), server.interface("10.9.1.1"),
                    rate_bps=8e6, delay=0.02)
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        conn = result.client
        assert conn.stats.add_addr_received >= 1
        remotes = {s.remote.ip for s in conn.subflows if s.remote and not s.failed}
        assert "10.9.1.1" in remotes
