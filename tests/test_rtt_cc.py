"""RTT estimation (RFC 6298) and congestion-control laws."""

import pytest

from repro.tcp.cc import NewReno
from repro.tcp.rtt import RTTEstimator


class TestRTTEstimator:
    def test_first_sample_initializes(self):
        est = RTTEstimator()
        est.sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(0.3)  # srtt + 4*rttvar

    def test_smoothing_converges(self):
        est = RTTEstimator()
        for _ in range(100):
            est.sample(0.08)
        assert est.srtt == pytest.approx(0.08, rel=0.01)
        assert est.rto == pytest.approx(0.2, abs=0.02)  # min_rto floor

    def test_variance_reacts_to_jitter(self):
        est = RTTEstimator()
        est.sample(0.1)
        for _ in range(10):
            est.sample(0.1)
        calm_rto = est.rto
        est.sample(0.5)  # spike
        assert est.rto > calm_rto

    def test_min_rtt_tracks_minimum(self):
        est = RTTEstimator()
        for rtt in (0.2, 0.15, 0.3, 0.12, 0.4):
            est.sample(rtt)
        assert est.min_rtt == pytest.approx(0.12)

    def test_rto_floor_and_ceiling(self):
        est = RTTEstimator()
        est.sample(0.001)
        assert est.rto == RTTEstimator.MIN_RTO == 0.2
        for _ in range(10):  # 0.2 s doubled ten times passes the 60 s cap
            est.backoff()
        assert est.rto == RTTEstimator.MAX_RTO == 60.0

    def test_backoff_doubles(self):
        est = RTTEstimator()
        est.sample(0.1)
        before = est.rto
        assert est.backoff() == pytest.approx(min(60.0, before * 2))

    def test_negative_sample_rejected(self):
        est = RTTEstimator()
        with pytest.raises(ValueError):
            est.sample(-0.1)

    def test_smoothed_default_before_samples(self):
        est = RTTEstimator()
        assert est.smoothed == est.rto == RTTEstimator.INITIAL_RTO == 1.0


class TestNewReno:
    def test_slow_start_doubles_per_window(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        start = cc.cwnd
        # One full window of acks in slow start.
        for _ in range(10):
            cc.on_ack(1000)
        assert cc.cwnd == start + 10_000

    def test_slow_start_byte_counting_capped(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        start = cc.cwnd
        cc.on_ack(50_000)  # huge cumulative jump
        assert cc.cwnd == start + 2_000  # L = 2*SMSS

    def test_congestion_avoidance_linear(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        cc.ssthresh = cc.cwnd  # force CA
        start = cc.cwnd
        for _ in range(start // 1000):  # one RTT worth of acks
            cc.on_ack(1000)
        assert start + 500 <= cc.cwnd <= start + 1_600  # ~ +1 MSS/RTT

    def test_loss_event_halves(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        cc.cwnd = 80_000
        cc.on_loss_event(80_000)
        assert cc.ssthresh == 40_000
        assert cc.cwnd == 40_000

    def test_timeout_collapses_to_one_segment(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        cc.cwnd = 80_000
        cc.on_timeout(80_000)
        assert cc.cwnd == 1000
        assert cc.ssthresh == 40_000

    def test_floors_at_two_mss(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=2)
        cc.on_loss_event(1000)
        assert cc.ssthresh == 2000

    def test_halve_penalization(self):
        cc = NewReno(mss=1000, initial_cwnd_segments=10)
        cc.cwnd = 40_000
        cc.halve()
        assert cc.cwnd == 20_000
        assert cc.ssthresh == 20_000


class TestCwndValidation:
    """RFC 2861: cwnd must not grow while the window is not being used."""

    def _make_socket(self):
        from conftest import make_tcp_pair
        from repro.net.packet import Endpoint
        from repro.tcp.listener import Listener
        from repro.tcp.socket import TCPSocket

        net, client, server = make_tcp_pair(queue_bytes=10**6)

        def greedy(sock):
            sock.on_data = lambda s: s.read()

        Listener(server, 80, on_accept=greedy)
        sock = TCPSocket(client)
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        return net, sock

    def test_app_limited_sender_does_not_inflate_cwnd(self):
        net, sock = self._make_socket()
        # Trickle: 1 small write per RTT; never fills the window.
        for step in range(50):
            sock.send(b"y" * 200)
            net.run(until=1.0 + (step + 1) * 0.05)
        assert sock.cc.cwnd <= 4 * sock.cc.mss * 10  # far from doubling 50x

    def test_bulk_sender_grows_cwnd(self):
        net, sock = self._make_socket()
        start = sock.cc.cwnd
        for step in range(20):
            sock.send(b"z" * 65536)
            net.run(until=1.0 + (step + 1) * 0.05)
        assert sock.cc.cwnd > 2 * start
