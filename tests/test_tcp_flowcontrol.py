"""Flow control: window advertising and zero-window handling."""

from repro.net.packet import Endpoint
from repro.tcp.listener import Listener
from repro.tcp.socket import TCPConfig, TCPSocket

from conftest import make_tcp_pair, random_payload


def lazy_reader_pair(net, client, server, rcv_buf=20_000):
    """Server app that does NOT read: the window must close."""
    accepted = []
    Listener(
        server, 80, config=TCPConfig(rcv_buf=rcv_buf), on_accept=accepted.append
    )
    sock = TCPSocket(client)
    sock.connect(Endpoint("10.9.0.1", 80))
    net.run(until=1.0)
    return sock, accepted[0]


class TestReceiveWindow:
    def test_slow_reader_throttles_sender(self):
        net, client, server = make_tcp_pair()
        sock, peer = lazy_reader_pair(net, client, server, rcv_buf=20_000)
        payload = random_payload(100_000)
        sent = {"n": 0}

        def pump(s):
            while sent["n"] < len(payload):
                accepted = s.send(payload[sent["n"] : sent["n"] + 4096])
                if accepted == 0:
                    return
                sent["n"] += accepted

        sock.on_writable = pump
        pump(sock)
        net.run(until=5.0)
        # The receiver's buffer bounds unread data; sender must have
        # stopped near the window, not blasted everything.
        assert peer.rx_available <= 20_000
        assert sock.snd_nxt - 1 <= 20_000 + sock.mss

    def test_window_reopens_when_app_reads(self):
        net, client, server = make_tcp_pair()
        sock, peer = lazy_reader_pair(net, client, server, rcv_buf=20_000)
        payload = random_payload(60_000)
        sent = {"n": 0}

        def pump(s):
            while sent["n"] < len(payload):
                accepted = s.send(payload[sent["n"] : sent["n"] + 4096])
                if accepted == 0:
                    return
                sent["n"] += accepted

        sock.on_writable = pump
        pump(sock)
        net.run(until=3.0)
        received = bytearray(peer.read())  # app finally reads: window opens
        net.run(until=8.0)
        received.extend(peer.read())
        net.run(until=20.0)
        received.extend(peer.read())
        assert sent["n"] > 40_000  # transfer progressed past one window

    def test_zero_window_probe_elicits_update(self):
        net, client, server = make_tcp_pair()
        sock, peer = lazy_reader_pair(net, client, server, rcv_buf=10_000)
        sock.send(random_payload(40_000))
        net.run(until=3.0)
        assert sock._persist_timer.running or sock.stats.zero_window_probes > 0
        peer.read()
        net.run(until=30.0)
        # After the app read, probing must have resumed the flow.
        assert peer.rx_available > 0 or peer.reassembly.buffered_bytes > 0 or sock.snd_una > 10_000

    def test_window_never_advertised_beyond_buffer(self):
        net, client, server = make_tcp_pair()
        windows = []
        net.paths[0].add_tap(
            lambda p, s, d: d == -1 and s.has_ack and not s.syn
            and windows.append(s.window << 10)
        )
        sock, peer = lazy_reader_pair(net, client, server, rcv_buf=32_768)
        sock.send(random_payload(60_000))
        net.run(until=3.0)
        assert windows and max(windows) <= 32_768 + 1024  # wscale rounding

    def test_window_scaling_allows_large_windows(self):
        """Without window scaling 64 KB caps the window; with it the
        sender can fill a long fat pipe."""
        net, client, server = make_tcp_pair(rate_bps=100e6, delay=0.03, queue_bytes=10**6)
        big = TCPConfig(snd_buf=1 << 20, rcv_buf=1 << 20)
        from conftest import tcp_transfer

        payload = random_payload(2_000_000)
        result = tcp_transfer(
            net, client, server, payload, client_config=big, server_config=big
        )
        assert result.completed_at is not None
        rate = len(payload) * 8 / result.completed_at
        # Slow start dominates a 2 MB transfer, but even so the average
        # must far exceed the 64KB/60ms = 8.7 Mb/s unscaled-window cap.
        assert rate > 20e6
