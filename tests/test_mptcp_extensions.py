"""Extension features: MP_PRIO backup subflows, precomputed key pool,
MP_FASTCLOSE."""

import pytest

from repro.mptcp import keys
from repro.mptcp.api import connect, listen
from repro.mptcp.keys import TokenTable
from repro.mptcp.options import FastClose, MPCapable
from repro.net.path import FORWARD, REVERSE, PathElement
from repro.net.packet import Endpoint
from repro.sim.rng import SeededRNG

from conftest import make_multipath, mptcp_transfer, random_payload


def established_pair(net, client, server):
    holder = {}
    listen(server, 80, on_accept=lambda c: holder.update(s=c))
    conn = connect(client, Endpoint("10.9.0.1", 80))
    net.run(until=1.0)
    return conn, holder["s"]


class TestBackupSubflows:
    def test_backup_subflow_carries_no_data_while_normal_alive(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        join = next(s for s in conn.subflows if s.kind == "join")
        conn.set_subflow_backup(join, True)
        sent_before = join.stats.bytes_sent
        conn.send(random_payload(300_000))
        net.run(until=5.0)
        assert join.stats.bytes_sent == sent_before  # stayed idle

    def test_backup_takes_over_when_normal_dies(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        received = bytearray()
        server_conn.on_data = lambda c: received.extend(c.read())
        join = next(s for s in conn.subflows if s.kind == "join")
        conn.set_subflow_backup(join, True)
        initial = next(s for s in conn.subflows if s.kind == "initial")
        payload = random_payload(200_000)
        conn.send(payload)
        net.sim.schedule(0.2, lambda: (initial.mark_failed("gone"),
                                       initial._destroy(error="gone")))
        net.run(until=30.0)
        assert bytes(received) == payload
        assert join.stats.bytes_sent > 0

    def test_mp_prio_propagates_to_peer(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        join = next(s for s in conn.subflows if s.kind == "join")
        conn.set_subflow_backup(join, True)
        net.run(until=2.0)
        peer_join = next(s for s in server_conn.subflows if s.kind == "join")
        assert peer_join.backup

    def test_priority_can_be_restored(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        join = next(s for s in conn.subflows if s.kind == "join")
        conn.set_subflow_backup(join, True)
        net.run(until=2.0)
        conn.set_subflow_backup(join, False)
        conn.send(random_payload(400_000))
        net.run(until=10.0)
        assert join.stats.bytes_sent > 0


class TestKeyPool:
    def test_pool_consumed_first(self):
        table = TokenTable(SeededRNG(4, "pool"))
        table.precompute_keys(5)
        assert len(table._key_pool) == 5
        key, token = table.generate_unique_key()
        assert len(table._key_pool) == 4 and token == keys.token_from_key(key)

    def test_pooled_keys_still_unique(self):
        table = TokenTable(SeededRNG(4, "pool"))
        table.precompute_keys(50)
        seen = set()
        for _ in range(60):  # drains the pool, falls back to fresh keys
            key, token = table.generate_unique_key()
            assert token not in seen
            seen.add(token)
            table.register(token, object())

    def test_stale_pooled_key_revalidated(self):
        table = TokenTable(SeededRNG(4, "pool"))
        table.precompute_keys(2)
        # Register the next pooled token out from under the pool.
        key, token = table._key_pool[-1]
        table.register(token, "squatter")
        fresh_key, fresh_token = table.generate_unique_key()
        assert fresh_token != token

    def test_pooled_key_skips_the_hash(self, monkeypatch):
        """§5.2: the pool takes the SHA-1 off the accept path.  A pooled
        key costs no ``token_from_key`` call; a fresh one costs one."""
        calls = []
        real = keys.token_from_key
        monkeypatch.setattr(keys, "token_from_key", lambda key: calls.append(key) or real(key))
        table = TokenTable(SeededRNG(4, "pool"))
        table.precompute_keys(1)
        calls.clear()
        table.generate_unique_key()
        assert calls == []
        table.generate_unique_key()  # pool drained: hashed on the spot
        assert len(calls) == 1


class ForgedFastClose(PathElement):
    """Learns the client's key from its MP_CAPABLE SYN, then adds an
    MP_FASTCLOSE carrying that key XOR ``flip`` (a different key unless
    ``flip`` is 0) to one ACK back to the client once the transfer is
    under way."""

    def __init__(self, after: float, flip: int = 1):
        super().__init__("ForgedFastClose")
        self.after = after
        self.flip = flip
        self.client_key = None
        self.forged = 0

    def process(self, segment, direction):
        if direction == FORWARD and self.client_key is None:
            for option in segment.options:
                if isinstance(option, MPCapable):
                    self.client_key = option.sender_key
        elif direction == REVERSE and not self.forged and self.sim.now >= self.after:
            segment = segment.copy()
            segment.options.append(FastClose(receiver_key=self.client_key ^ self.flip))
            self.forged += 1
        return [(segment, direction)]


class TestFastClose:
    def test_fastclose_with_a_wrong_key_is_ignored(self):
        """RFC 6824 §3.5: only the receiver's own key closes the
        connection, so a forged MP_FASTCLOSE must not abort a transfer."""
        forger = ForgedFastClose(after=0.5)
        net, client, server = make_multipath(elements_per_path=[[forger], []])
        payload = random_payload(300_000)
        result = mptcp_transfer(net, client, server, payload)
        assert forger.forged == 1 and result.completed_at > forger.after
        assert result.client.local_key == forger.client_key
        assert result.client_error is None
        assert bytes(result.received) == payload

    def test_fastclose_with_the_right_key_closes(self):
        """The same injected option carrying the client's own key does
        close it, mid-transfer."""
        forger = ForgedFastClose(after=0.5, flip=0)
        net, client, server = make_multipath(elements_per_path=[[forger], []])
        payload = random_payload(300_000)
        result = mptcp_transfer(net, client, server, payload)
        assert forger.forged == 1
        assert result.client_error == "peer fastclose"
        assert result.client.closed
        assert result.completed_at is None and len(result.received) < len(payload)

    def test_fastclose_aborts_peer(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        conn.abort()
        net.run(until=3.0)
        assert conn.closed and server_conn.closed
        assert all(s.state.value == "CLOSED" for s in server_conn.subflows)

    def test_fastclose_midtransfer(self):
        net, client, server = make_multipath()
        conn, server_conn = established_pair(net, client, server)
        conn.send(random_payload(500_000))
        net.sim.schedule(0.2, conn.abort)
        net.run(until=5.0)
        assert conn.closed and server_conn.closed
        assert net.sim.pending == 0
