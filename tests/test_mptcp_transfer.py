"""MPTCP data transfer: striping, reordering, DATA_ACK semantics,
memory accounting, teardown (§3.3, §3.4)."""

import pytest

from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.mptcp.options import DSS
from repro.net.path import FORWARD, PathElement
from repro.tcp.socket import TCPConfig

from conftest import make_multipath, mptcp_transfer, random_payload


class TestStriping:
    def test_transfer_intact_over_asymmetric_paths(self):
        net, client, server = make_multipath()
        payload = random_payload(1_000_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload

    def test_both_subflows_carry_data(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(600_000))
        carried = [s.stats.bytes_sent for s in result.client.subflows]
        assert all(carried_bytes > 10_000 for carried_bytes in carried)

    def test_aggregates_beyond_best_path(self):
        """With ample buffers MPTCP beats the best single path."""
        paths = [
            dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000),
            dict(rate_bps=8e6, delay=0.015, queue_bytes=80_000),
        ]
        net, client, server = make_multipath(paths=paths)
        config = MPTCPConfig(
            tcp=TCPConfig(snd_buf=10**6, rcv_buf=10**6),
            snd_buf=10**6, rcv_buf=10**6, checksum=False,
        )
        payload = random_payload(4_000_000)
        result = mptcp_transfer(net, client, server, payload, config=config)
        assert result.completed_at is not None
        rate = len(payload) * 8 / result.completed_at
        assert rate > 9e6  # clearly more than one 8 Mb/s path

    def test_survives_loss_on_both_paths(self):
        paths = [
            dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000, loss=0.02),
            dict(rate_bps=2e6, delay=0.05, queue_bytes=100_000, loss=0.02),
        ]
        net, client, server = make_multipath(paths=paths, seed=13)
        payload = random_payload(400_000)
        result = mptcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload

    def test_reordering_mass_is_handled(self):
        """Wildly different RTTs produce data-level reordering; the
        connection-level reassembly absorbs it all."""
        paths = [
            dict(rate_bps=8e6, delay=0.005, queue_bytes=80_000),
            dict(rate_bps=8e6, delay=0.1, queue_bytes=200_000),
        ]
        net, client, server = make_multipath(paths=paths)
        payload = random_payload(800_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert result.server.stats.out_of_order_chunks > 0

    def test_checksums_verified_on_every_mapping(self):
        net, client, server = make_multipath()
        config = MPTCPConfig(checksum=True)
        result = mptcp_transfer(net, client, server, random_payload(200_000), config=config)
        assert result.server.stats.checksums_verified > 0
        assert result.server.stats.checksum_failures == 0

    def test_no_checksum_mode_skips_verification(self):
        net, client, server = make_multipath()
        config = MPTCPConfig(checksum=False)
        result = mptcp_transfer(net, client, server, random_payload(200_000), config=config)
        assert result.server.stats.checksums_verified == 0


class ClearThenDropFirstData(PathElement):
    """Empties the first forward data segment's option list in place and
    drops the segment; records every later copy of the same sequence."""

    def __init__(self):
        super().__init__("ClearThenDropFirstData")
        self.dropped_seq = None
        self.resent = []

    def process(self, segment, direction):
        if direction != FORWARD or not segment.payload_len:
            return [(segment, direction)]
        if self.dropped_seq is None:
            self.dropped_seq = segment.seq
            segment.options.clear()
            return []
        if segment.seq == self.dropped_seq:
            self.resent.append(list(segment.options))
        return [(segment, direction)]


class TestDataSegmentOptions:
    def test_retransmission_keeps_dss_after_in_place_strip(self):
        """A data segment owns its option list: emptying it on the wire
        leaves the sender's record intact, so the retransmission still
        carries its DSS mapping and the connection does not fall back."""
        tap = ClearThenDropFirstData()
        net, client, server = make_multipath(elements_per_path=[[tap], []])
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert tap.resent, "the dropped segment was never retransmitted"
        assert any(isinstance(option, DSS) for option in tap.resent[0])
        assert not result.client.fallback and not result.server.fallback


class TestDataAckSemantics:
    def test_send_memory_freed_only_by_data_ack(self):
        """§3.3.5: subflow-level ACKs do not free the connection send
        queue."""
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(500_000))
        conn = result.client
        # After clean completion everything is data-acked and free.
        assert conn.tx_memory_bytes() == 0
        assert conn.data_una >= 500_000

    def test_receive_window_is_connection_level(self):
        """All subflows advertise the same shared pool."""
        net, client, server = make_multipath()
        from repro.mptcp.options import DSS

        windows_by_port = {}

        def tap(path, segment, direction):
            if direction == -1 and segment.find_option(DSS) and not segment.syn:
                windows_by_port.setdefault(segment.src.port, set()).add(segment.window)

        for path in net.paths:
            path.add_tap(tap)
        mptcp_transfer(net, client, server, random_payload(300_000))
        assert len(windows_by_port) >= 1  # server acks on its side

    def test_peer_rwnd_limits_inflight_data(self):
        config = MPTCPConfig(
            tcp=TCPConfig(snd_buf=500_000, rcv_buf=500_000),
            snd_buf=500_000,
            rcv_buf=30_000,  # tiny receive pool
        )
        net, client, server = make_multipath()
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload, config=config, duration=120)
        assert bytes(result.received) == payload  # slow but correct

    def test_rx_memory_accounting_returns_to_zero(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(400_000))
        assert result.server.rx_memory_bytes() == 0


class TestDataRetransmissionTimer:
    def test_never_restarts_below_one_second(self, monkeypatch):
        """§3.3.5's last-resort timer outwaits the subflows: 2 x the
        slowest subflow RTO, but never less than 1 s — even when every
        subflow's RTO sits at TCP's 0.2 s floor."""
        samples = []  # (armed delay, live subflows' RTOs)
        original = MPTCPConnection._ensure_data_rtx_timer

        def recording(conn):
            original(conn)
            expires = conn._data_rtx_timer.expires_at
            if expires is not None:
                rtos = [s.rtt.rto for s in conn.subflows if not s.failed and s.state.may_send_data]
                samples.append((expires - conn.sim.now, rtos))

        monkeypatch.setattr(MPTCPConnection, "_ensure_data_rtx_timer", recording)
        paths = [
            dict(rate_bps=8e6, delay=0.001, queue_bytes=20_000),
            dict(rate_bps=8e6, delay=0.002, queue_bytes=20_000),
        ]
        net, client, server = make_multipath(paths=paths)
        payload = random_payload(400_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        at_floor = [delay for delay, rtos in samples if rtos and max(rtos) == 0.2]
        assert at_floor  # 2 x 0.2 s would be 0.4 s without the 1 s floor
        assert all(delay == pytest.approx(1.0) for delay in at_floor)
        assert min(delay for delay, _ in samples) >= 1.0 - 1e-9


class TestTeardown:
    def test_clean_close_everywhere(self):
        net, client, server = make_multipath()
        result = mptcp_transfer(net, client, server, random_payload(100_000))
        assert result.client.closed and result.server.closed
        for conn in (result.client, result.server):
            for subflow in conn.subflows:
                assert subflow.state.value == "CLOSED"

    def test_no_leftover_events(self):
        net, client, server = make_multipath()
        mptcp_transfer(net, client, server, random_payload(50_000))
        net.run(until=net.now + 120)
        assert net.sim.pending == 0  # no leaked timers

    def test_data_fin_retransmitted_if_lost(self):
        net, client, server = make_multipath()
        # Drop the first DSS-with-DATA_FIN crossing path 0.
        from repro.mptcp.options import DSS

        path = net.paths[0]
        original = path.link_fwd.deliver
        state = {"dropped": False}

        def drop_fin(segment):
            dss_options = [o for o in segment.options if isinstance(o, DSS)]
            if not state["dropped"] and any(o.data_fin for o in dss_options):
                state["dropped"] = True
                return
            original(segment)

        path.link_fwd.deliver = drop_fin
        payload = random_payload(50_000)
        result = mptcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload
        assert result.client.closed and result.server.closed

    def test_abort_tears_down_all_subflows(self):
        from repro.mptcp.api import connect, listen
        from repro.net.packet import Endpoint

        net, client, server = make_multipath()
        holder = {}
        listen(server, 80, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        conn.abort()
        net.run(until=3.0)
        assert conn.closed
        assert holder["s"].closed

    def test_subflow_fin_does_not_close_connection(self):
        """§3.4: a subflow FIN means only "no more data on this
        subflow"."""
        from repro.mptcp.api import connect, listen
        from repro.net.packet import Endpoint

        net, client, server = make_multipath()
        holder = {}
        listen(server, 80, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        join = next(s for s in conn.subflows if s.kind == "join")
        join.close()
        net.run(until=3.0)
        assert not conn.closed
        conn.send(b"still alive")
        net.run(until=5.0)
        assert holder["s"].read() == b"still alive"


class TestSubflowFailure:
    def test_dead_subflow_data_reinjected(self):
        """Sever one path mid-transfer: its unacked data must arrive via
        the other."""
        net, client, server = make_multipath()
        payload = random_payload(600_000)

        def sever():
            net.paths[0].link_fwd.deliver = lambda s: None
            net.paths[0].link_rev.deliver = lambda s: None

        net.sim.schedule(0.5, sever)
        config = MPTCPConfig(subflow_max_retries=3)
        result = mptcp_transfer(net, client, server, payload, duration=180, config=config)
        assert bytes(result.received) == payload
        assert result.client.scheduler.stats.reinjected_bytes > 0

    def test_rst_on_subflow_kills_only_subflow(self):
        from repro.mptcp.api import connect, listen
        from repro.net.packet import Endpoint

        net, client, server = make_multipath()
        holder = {}
        listen(server, 80, on_accept=lambda c: holder.update(s=c))
        conn = connect(client, Endpoint("10.9.0.1", 80))
        net.run(until=1.0)
        join = next(s for s in conn.subflows if s.kind == "join")
        join.abort()
        net.run(until=2.0)
        assert not conn.closed
        assert any(s.alive for s in conn.subflows)
        conn.send(b"over the survivor")
        net.run(until=4.0)
        assert holder["s"].read() == b"over the survivor"
