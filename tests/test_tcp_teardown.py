"""Connection teardown: FIN state machine, RST, TIME_WAIT."""

from repro.net.packet import Endpoint
from repro.tcp.listener import Listener
from repro.tcp.socket import MSL, TCPConfig, TCPSocket
from repro.tcp.state import TCPState

from conftest import make_tcp_pair, random_payload, tcp_transfer


def established_pair(net, client, server):
    accepted = []
    Listener(server, 80, on_accept=accepted.append)
    sock = TCPSocket(client)
    sock.connect(Endpoint("10.9.0.1", 80))
    net.run(until=1.0)
    return sock, accepted[0]


class TestActiveClose:
    def test_full_close_sequence_reaches_closed(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        peer.on_eof = lambda s: s.close()
        net.run(until=10.0)
        assert sock.state is TCPState.CLOSED
        assert peer.state is TCPState.CLOSED

    def test_active_closer_passes_through_fin_wait(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        assert sock.state is TCPState.FIN_WAIT_1
        net.run(until=1.2)  # FIN acked, peer hasn't closed
        assert sock.state is TCPState.FIN_WAIT_2

    def test_passive_closer_in_close_wait_until_app_closes(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        net.run(until=2.0)
        assert peer.state is TCPState.CLOSE_WAIT
        peer.close()
        assert peer.state is TCPState.LAST_ACK
        net.run(until=3.0)
        assert peer.state is TCPState.CLOSED

    def test_time_wait_holds_then_expires(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        peer.on_eof = lambda s: s.close()
        net.run(until=1.3)
        assert sock.state is TCPState.TIME_WAIT
        net.run(until=1.3 + 2 * MSL + 0.1)
        assert sock.state is TCPState.CLOSED

    def test_close_flushes_pending_data_before_fin(self):
        net, client, server = make_tcp_pair()
        payload = random_payload(150_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload  # nothing truncated
        assert result.server.eof_seen

    def test_send_after_close_raises(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        try:
            sock.send(b"late")
            assert False
        except RuntimeError:
            pass

    def test_data_in_close_wait_still_deliverable(self):
        """Half-close: the peer can keep sending after receiving FIN."""
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()  # client done sending; still reads
        net.run(until=2.0)
        peer.send(b"response after client FIN")
        net.run(until=3.0)
        assert sock.read() == b"response after client FIN"


class TestSimultaneousClose:
    def test_both_sides_close_at_once(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        sock.close()
        peer.close()
        net.run(until=10.0)
        assert sock.state is TCPState.CLOSED
        assert peer.state is TCPState.CLOSED


class TestReset:
    def test_abort_sends_rst_and_peer_errors(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        errors = []
        peer.on_error = lambda s, reason: errors.append(reason)
        sock.abort()
        net.run(until=2.0)
        assert sock.state is TCPState.CLOSED
        assert errors == ["connection reset"]
        assert peer.state is TCPState.CLOSED

    def test_rst_with_out_of_window_seq_ignored(self):
        from repro.net.packet import RST, Segment

        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        # Blind RST with a wild sequence number: must not kill the conn.
        forged = Segment(
            src=peer.local, dst=sock.local,
            seq=(sock.irs + 10_000_000) % (1 << 32), flags=RST,
        )
        sock.segment_arrives(forged)
        assert sock.state is TCPState.ESTABLISHED

    def test_connection_reusable_after_teardown(self):
        """Once TIME_WAIT clears, the same port pair can connect again."""
        net, client, server = make_tcp_pair()
        payload = random_payload(10_000)
        result1 = tcp_transfer(net, client, server, payload, port=8080)
        assert bytes(result1.received) == payload

    def test_max_retries_kills_connection(self):
        net, client, server = make_tcp_pair()
        sock, peer = established_pair(net, client, server)
        # Sever the forward path entirely.
        net.paths[0].link_fwd.deliver = lambda s: None
        sock.send(b"into the void")
        errors = []
        sock.on_error = lambda s, reason: errors.append(reason)
        sock.config.max_retries = 4
        net.run(until=120.0)
        assert sock.state is TCPState.CLOSED
        assert errors
