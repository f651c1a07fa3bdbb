"""TCP connection establishment: options negotiation, retries, refusal."""

import pytest

from repro.net.packet import ACK, RST, SEQ_MOD, SYN, Endpoint, Segment
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket
from repro.tcp.state import TCPState

from conftest import make_tcp_pair


def connect_pair(net, client, server, client_config=None, server_config=None):
    accepted = []
    Listener(server, 80, config=server_config, on_accept=accepted.append)
    sock = TCPSocket(client, config=client_config)
    sock.connect(Endpoint("10.9.0.1", 80))
    net.run(until=5.0)
    return sock, (accepted[0] if accepted else None)


class TestHandshake:
    def test_three_way_handshake_establishes_both_sides(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(net, client, server)
        assert sock.state is TCPState.ESTABLISHED
        assert peer is not None and peer.state is TCPState.ESTABLISHED

    def test_establishment_takes_about_one_rtt(self):
        net, client, server = make_tcp_pair(delay=0.05)
        sock, peer = connect_pair(net, client, server)
        assert sock.established_at == pytest.approx(0.1, abs=0.01)

    def test_mss_negotiated_to_minimum(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(
            net, client, server,
            client_config=TCPConfig(mss=1400),
            server_config=TCPConfig(mss=900),
        )
        assert sock.mss == 900
        assert peer.mss == 900

    def test_window_scale_negotiated(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(net, client, server)
        assert sock.snd_wscale == peer.rcv_wscale
        assert sock.rcv_wscale == peer.snd_wscale
        assert sock.rcv_wscale > 0

    def test_window_scale_disabled_when_peer_lacks_it(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(
            net, client, server, server_config=TCPConfig(window_scale=0)
        )
        assert sock.snd_wscale == 0

    def test_timestamps_negotiated(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(net, client, server)
        assert sock.ts_enabled and peer.ts_enabled

    def test_timestamps_off_when_client_disables(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(
            net, client, server, client_config=TCPConfig(timestamps=False)
        )
        assert not sock.ts_enabled and not peer.ts_enabled

    def test_sack_negotiated(self):
        net, client, server = make_tcp_pair()
        sock, peer = connect_pair(net, client, server)
        assert sock.sack_enabled and peer.sack_enabled

    def test_connection_refused(self):
        net, client, server = make_tcp_pair()
        errors = []
        sock = TCPSocket(client)
        sock.on_error = lambda s, reason: errors.append(reason)
        sock.connect(Endpoint("10.9.0.1", 4444))  # nobody listening
        net.run(until=2.0)
        assert errors == ["connection refused"]
        assert sock.state is TCPState.CLOSED

    def test_unacceptable_synack_draws_a_reset(self):
        """RFC 793: a SYN/ACK whose ACK does not cover our SYN draws one
        RST with that ACK as its sequence number, and the socket stays in
        SYN_SENT waiting for the real answer."""
        net, client, server = make_tcp_pair()
        sock = TCPSocket(client)
        sock.connect(Endpoint("10.9.0.1", 80))
        sent = []
        client.send = sent.append
        bad_ack = (sock.iss + 1000) % SEQ_MOD
        synack = Segment(
            src=sock.remote, dst=sock.local, seq=777, ack=bad_ack, flags=SYN | ACK, window=1000
        )
        sock.segment_arrives(synack)
        assert [(s.src, s.dst, s.flags, s.seq, s.window) for s in sent] == [
            (sock.local, sock.remote, RST, bad_ack, 0)
        ]
        assert sock.state is TCPState.SYN_SENT

    def test_syn_retransmitted_with_backoff(self):
        net, client, server = make_tcp_pair(loss=1.0)  # black hole
        sock = TCPSocket(client, config=TCPConfig(max_syn_retries=3))
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=30.0)
        assert sock.syn_retries >= 3
        assert sock.state is TCPState.CLOSED
        assert sock.error is not None

    def test_lost_synack_recovered(self):
        """Drop the first SYN/ACK; the client's SYN retransmit recovers."""
        net, client, server = make_tcp_pair()
        dropped = {"n": 0}
        path = net.paths[0]
        original = path.link_rev.deliver

        def lossy(segment):
            if segment.syn and dropped["n"] == 0:
                dropped["n"] += 1
                return
            original(segment)

        path.link_rev.deliver = lossy
        sock, peer = connect_pair(net, client, server)
        assert sock.state is TCPState.ESTABLISHED
        assert dropped["n"] == 1

    def test_lost_third_ack_recovered_by_data(self):
        """If the handshake ACK is lost, the first data segment (which
        also carries an ACK) completes the server's handshake."""
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        original = path.link_fwd.deliver
        state = {"dropped": False}

        def drop_pure_ack(segment):
            if (
                not state["dropped"]
                and segment.has_ack
                and not segment.syn
                and not segment.payload
            ):
                state["dropped"] = True
                return
            original(segment)

        path.link_fwd.deliver = drop_pure_ack
        accepted = []
        Listener(server, 80, on_accept=accepted.append)
        sock = TCPSocket(client)
        sock.on_established = lambda s: s.send(b"payload after handshake")
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=5.0)
        assert state["dropped"]
        assert accepted and accepted[0].state is TCPState.ESTABLISHED
        assert accepted[0].read() == b"payload after handshake"

    def test_duplicate_syn_reanswered(self):
        """A retransmitted SYN reaching the new socket gets a SYN/ACK."""
        net, client, server = make_tcp_pair()
        path = net.paths[0]
        # Duplicate every SYN.
        original = path.link_fwd.deliver

        def duplicate_syn(segment):
            original(segment)
            if segment.syn:
                original(segment.copy())

        path.link_fwd.deliver = duplicate_syn
        sock, peer = connect_pair(net, client, server)
        assert sock.state is TCPState.ESTABLISHED
        assert peer.state is TCPState.ESTABLISHED

    def test_isn_randomized(self):
        net, client, server = make_tcp_pair()
        sock1 = TCPSocket(client)
        sock2 = TCPSocket(client)
        sock1.connect(Endpoint("10.9.0.1", 80))
        sock2.connect(Endpoint("10.9.0.1", 81))
        assert sock1.iss != sock2.iss

    def test_data_queued_before_established_flows_after(self):
        net, client, server = make_tcp_pair()
        accepted = []
        Listener(server, 80, on_accept=accepted.append)
        sock = TCPSocket(client)
        sock.connect(Endpoint("10.9.0.1", 80))
        sock.send(b"early data")  # queued in SYN_SENT
        net.run(until=2.0)
        assert accepted[0].read() == b"early data"
