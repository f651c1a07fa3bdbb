"""The receive-buffer mechanisms M1–M4 (§4.2)."""

import pytest

from repro.apps.bulk import BulkSenderApp
from repro.experiments.common import (
    THREEG,
    WIFI,
    build_multipath_network,
    mptcp_variant_config,
    open_client,
    open_listener,
    run_bulk,
)
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.net.network import Network
from repro.tcp.socket import AUTOTUNE_INITIAL, IDLE_TIMER, TCPConfig, TCPSocket

from conftest import make_multipath, mptcp_transfer, random_payload

BUFFER = 200 * 1024


class TestM1OpportunisticRetransmission:
    def test_triggers_only_when_window_limited(self):
        """Plenty of buffer and no queue-RTT inflation: M1 must never
        fire (§4.2: "If the connection is not receive-window limited,
        opportunistic retransmission never gets triggered").  Uses two
        shallow-buffered paths — with the deep 3G queue, RTT_max
        inflation makes even multi-MB buffers genuinely window-limited,
        which is the paper's M4 motivation, not an M1 bug."""
        from repro.experiments.common import PathSpec

        paths = [
            PathSpec(rate_bps=8e6, rtt=0.02, buffer_seconds=0.05, name="a"),
            PathSpec(rate_bps=4e6, rtt=0.04, buffer_seconds=0.05, name="b"),
        ]
        config = mptcp_variant_config("m12", 4 * 1024 * 1024)
        outcome = run_bulk(paths, config, duration=10)
        assert outcome.connection.scheduler.stats.opportunistic_retransmissions == 0

    def test_fires_when_underbuffered(self):
        config = mptcp_variant_config("m1", 100 * 1024)
        outcome = run_bulk([WIFI, THREEG], config, duration=10)
        assert outcome.connection.scheduler.stats.opportunistic_retransmissions > 0

    def test_improves_goodput_when_underbuffered(self):
        regular = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("regular", BUFFER), duration=15
        )
        with_m1 = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m1", BUFFER), duration=15
        )
        assert with_m1.goodput_bps > regular.goodput_bps

    def test_wastes_capacity_throughput_exceeds_goodput(self):
        """Fig. 4(b): the goodput/throughput gap is M1's duplicate
        transmissions over 3G."""
        outcome = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m1", BUFFER), duration=15
        )
        assert outcome.throughput_bps > 1.1 * outcome.goodput_bps

    def test_wire_throughput_fits_the_links(self):
        """Throughput counts only the bytes sent after warm-up, over the
        same window as goodput: it cannot exceed the summed path rates."""
        outcome = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m1", BUFFER), duration=8, seed=4
        )
        assert outcome.throughput_bps <= WIFI.rate_bps + THREEG.rate_bps

    def test_never_reinjects_own_data(self):
        config = mptcp_variant_config("m1", BUFFER)
        outcome = run_bulk([WIFI, THREEG], config, duration=10)
        scheduler = outcome.connection.scheduler
        for mapping in scheduler.inflight:
            if mapping.reinjection:
                # A reinjection mapping exists alongside an original
                # mapping for the same range on a different subflow.
                originals = [
                    m
                    for m in scheduler.inflight
                    if not m.reinjection and m.start < mapping.end and mapping.start < m.end
                ]
                for original in originals:
                    assert original.subflow is not mapping.subflow


class TestM2Penalization:
    def test_penalizes_slow_subflow_only(self):
        config = mptcp_variant_config("m12", BUFFER)
        outcome = run_bulk([WIFI, THREEG], config, duration=15)
        conn = outcome.connection
        assert conn.scheduler.stats.penalizations > 0
        slow = max(conn.subflows, key=lambda s: s.srtt)
        fast = min(conn.subflows, key=lambda s: s.srtt)
        assert slow.last_penalty_at > 0
        assert fast.last_penalty_at < 0  # never penalized

    def test_rate_limited_to_one_per_rtt(self):
        config = mptcp_variant_config("m12", BUFFER)
        outcome = run_bulk([WIFI, THREEG], config, duration=15)
        conn = outcome.connection
        slow = max(conn.subflows, key=lambda s: s.srtt)
        # Upper bound: one penalty per slow-subflow RTT of runtime.
        assert conn.scheduler.stats.penalizations <= 15 / max(slow.rtt.min_rtt or 0.1, 0.1) + 5

    def test_m12_beats_m1_alone(self):
        m1 = run_bulk([WIFI, THREEG], mptcp_variant_config("m1", BUFFER), duration=15)
        m12 = run_bulk([WIFI, THREEG], mptcp_variant_config("m12", BUFFER), duration=15)
        # Goodput at least comparable and waste reduced.
        assert m12.goodput_bps >= 0.9 * m1.goodput_bps
        waste_m1 = m1.throughput_bps - m1.goodput_bps
        waste_m12 = m12.throughput_bps - m12.goodput_bps
        assert waste_m12 < waste_m1


class TestM3Autotuning:
    def test_buffer_grows_on_demand(self):
        config = mptcp_variant_config("m123", 1024 * 1024)
        outcome = run_bulk([WIFI, THREEG], config, duration=15)
        conn = outcome.connection
        assert conn._autotune_timer is not IDLE_TIMER  # M3 on
        # It started small and grew (server side grows the rcv buffer;
        # client side grows its send buffer).
        assert conn.snd_buf_limit > AUTOTUNE_INITIAL

    @pytest.mark.parametrize("maximum", [256 * 1024, 4 * 1024 * 1024])
    def test_tcp_and_mptcp_both_start_at_64k(self, maximum):
        host = Network().add_host("h", "10.0.0.1")
        sock = TCPSocket(host, TCPConfig(snd_buf=maximum, rcv_buf=maximum, autotune=True))
        conn = MPTCPConnection(
            host, MPTCPConfig(snd_buf=maximum, rcv_buf=maximum, autotune=True), role="client"
        )
        for endpoint in (sock, conn):
            assert endpoint.snd_buf_limit == 64 * 1024
            assert endpoint.rcv_buf_limit == 64 * 1024

    @pytest.mark.parametrize("maximum", [32 * 1024, 160 * 1024, 4 * 1024 * 1024])
    def test_buffers_start_small_only_grow_and_stay_capped(self, maximum):
        """M3 on both ends of a real transfer: each effective buffer
        starts at min(64 KiB, configured), never shrinks, and never
        passes the configured maximum."""
        net, client, server = make_multipath(seed=2)
        config = MPTCPConfig(snd_buf=maximum, rcv_buf=maximum, autotune=True)
        initial = min(AUTOTUNE_INITIAL, maximum)
        ends = {}
        trace = {"client": [], "server": []}

        def sample():
            for side, conn in ends.items():
                trace[side].append((conn.snd_buf_limit, conn.rcv_buf_limit))
            net.sim.schedule(0.01, sample)

        def on_accept(conn):
            ends["server"] = conn
            conn.on_data = lambda c: c.read()

        open_listener(server, config, on_accept)
        ends["client"] = open_client(client, server, config)
        BulkSenderApp(ends["client"], random_payload(3_000_000))
        sample()
        net.run(until=8.0)
        for side, samples in trace.items():
            assert samples[0] == (initial, initial), side
            for earlier, later in zip(samples, samples[1:]):
                assert later[0] >= earlier[0] and later[1] >= earlier[1], side
            assert max(max(pair) for pair in samples) <= maximum, side
        if maximum > AUTOTUNE_INITIAL:
            assert trace["client"][-1][0] > initial  # the sender's buffer grew
            assert trace["server"][-1][1] > initial  # and so did the receiver's
        if maximum == 160 * 1024:
            assert trace["client"][-1][0] == maximum  # demand exceeds the cap: held there

    def test_receive_rate_is_an_ewma_over_tick_windows(self):
        """The delivered-rate estimate behind the receive side: the first
        tick only marks a window, a tick with no elapsed time changes
        nothing, later windows fold in with weight 0.3."""
        net = Network()
        host = net.add_host("h", "10.0.0.1")
        conn = MPTCPConnection(host, MPTCPConfig(autotune=True), role="client")

        def tick_at(when, delivered):
            net.run(until=when)
            conn.stats.bytes_delivered = delivered
            conn._autotune_tick()
            conn._autotune_timer.stop()
            return conn._rx_rate

        assert tick_at(1.0, 500) == 0.0  # first sample: a mark, no rate
        assert tick_at(2.0, 1_000_500) == 1_000_000.0
        assert tick_at(2.0, 9_999_999) == 1_000_000.0  # no time passed: unchanged
        assert tick_at(3.0, 3_000_500) == pytest.approx(0.7 * 1e6 + 0.3 * 2e6)
        # No subflow means no RTT sample: the buffers stay where they started.
        assert conn.rcv_buf_limit == conn.snd_buf_limit == AUTOTUNE_INITIAL

    def test_autotuned_connection_still_performs(self):
        fixed = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m12", 1024 * 1024), duration=15
        )
        tuned = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m123", 1024 * 1024), duration=15
        )
        assert tuned.goodput_bps >= 0.7 * fixed.goodput_bps


class TestM4Capping:
    def test_capping_reduces_memory(self):
        uncapped = run_bulk(
            [WIFI, THREEG],
            mptcp_variant_config("m123", 1024 * 1024),
            duration=15,
            sample_memory=True,
        )
        capped = run_bulk(
            [WIFI, THREEG],
            mptcp_variant_config("m1234", 1024 * 1024),
            duration=15,
            sample_memory=True,
        )
        assert capped.tx_memory_avg < uncapped.tx_memory_avg

    def test_capping_limits_queue_rtt_inflation(self):
        capped = run_bulk(
            [WIFI, THREEG], mptcp_variant_config("m1234", 1024 * 1024), duration=15
        )
        conn = capped.connection
        slow = max(conn.subflows, key=lambda s: s.rtt.smoothed)
        # The 3G path's smoothed RTT stays well below its 2 s of queue.
        assert slow.rtt.smoothed < 1.2

    def test_capping_on_plain_tcp_keeps_goodput(self):
        """M4 is FreeBSD's inflight limiter: it must not cost goodput on
        a single well-buffered path."""
        plain = run_bulk(
            [THREEG], TCPConfig(snd_buf=1024 * 1024, rcv_buf=1024 * 1024), duration=15
        )
        capped_cfg = TCPConfig(
            snd_buf=1024 * 1024, rcv_buf=1024 * 1024, cwnd_capping=True
        )
        from repro.apps.bulk import BulkSenderApp
        from repro.stats.metrics import GoodputMeter

        net, client, server = build_multipath_network([THREEG], seed=2)
        meter = GoodputMeter(net.sim)

        def on_accept(sock):
            sock.on_data = lambda s: meter.add(len(s.read()))

        open_listener(server, capped_cfg, on_accept)
        BulkSenderApp(open_client(client, server, capped_cfg), None)
        net.run(until=15)
        meter.finish()
        assert meter.rate_bps() > 0.85 * plain.goodput_bps
