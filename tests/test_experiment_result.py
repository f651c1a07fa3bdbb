"""The ExperimentResult container and topology builders."""

import pytest

from repro.apps.bulk import BulkSenderApp
from repro.experiments.common import (
    THREEG,
    WIFI,
    ExperimentResult,
    PathSpec,
    build_multipath_network,
    client_ends,
    mptcp_variant_config,
    open_client,
    open_listener,
)
from repro.middlebox import NAT
from repro.mptcp.connection import MPTCPConfig, MPTCPConnection
from repro.tcp.socket import TCPConfig, TCPSocket

from conftest import random_payload


class TestPathSpec:
    def test_queue_from_seconds(self):
        spec = PathSpec(rate_bps=8e6, rtt=0.02, buffer_seconds=0.08)
        assert spec.queue_bytes() == 80_000

    def test_queue_from_bytes_overrides(self):
        spec = PathSpec(rate_bps=8e6, rtt=0.02, buffer_bytes=1234)
        assert spec.queue_bytes() == 1234

    def test_canonical_paths(self):
        assert WIFI.rate_bps == 8e6 and WIFI.rtt == 0.020
        assert THREEG.buffer_seconds == 2.0


class TestBuildNetwork:
    def test_one_interface_per_path(self):
        net, client, server = build_multipath_network([WIFI, THREEG])
        assert len(client.addresses) == 2
        assert len(net.paths) == 2

    def test_link_parameters_applied(self):
        net, client, server = build_multipath_network([THREEG])
        link = net.paths[0].link_fwd
        assert link.rate_bps == 2e6
        assert link.delay == pytest.approx(0.075)
        assert link.queue_bytes == 500_000

    def test_unnamed_path_is_named_by_its_endpoints(self):
        spec = PathSpec(rate_bps=8e6, rtt=0.02, buffer_bytes=80_000)
        net, _, _ = build_multipath_network([spec], ends=client_ends(1, "10.9.0.1"))
        assert net.paths[0].name == "10.0.0.1<->10.9.0.1"

    def test_elements_land_on_their_path_and_server_ip_is_honoured(self):
        nat = NAT("99.1.0.1")
        net, client, server = build_multipath_network(
            [WIFI, THREEG], ends=client_ends(2, "10.7.0.1"), elements=[[], [nat]]
        )
        assert server.addresses == ["10.7.0.1"]
        assert client.addresses == ["10.0.0.1", "10.1.0.1"]
        assert net.paths[0].elements == []
        assert net.paths[1].elements == [nat]

    def test_server_multihomed_paths_share_one_client_address(self):
        """§3.2: a single-homed client reaches the server's second
        address only through ADD_ADDR, and both subflows leave its one
        interface."""
        ends = [("10.0.0.1", "10.9.0.1"), ("10.0.0.1", "10.9.1.1")]
        net, client, server = build_multipath_network([WIFI, THREEG], ends=ends)
        assert client.addresses == ["10.0.0.1"]
        assert server.addresses == ["10.9.0.1", "10.9.1.1"]
        assert [p.name for p in net.paths] == ["wifi", "3g"]
        open_listener(server, MPTCPConfig(), None)
        conn = open_client(client, server, MPTCPConfig())
        net.run(until=2.0)
        assert "10.9.1.1" in conn.remote_addresses.values()
        subflows = [s for s in conn.subflows if s.established_at is not None]
        assert len(subflows) >= 2
        assert {s.local.ip for s in subflows} == {"10.0.0.1"}
        assert {s.remote.ip for s in subflows} == {"10.9.0.1", "10.9.1.1"}


class TestOpenConnection:
    @pytest.mark.parametrize(
        "config, kind",
        [(None, TCPSocket), (TCPConfig(), TCPSocket), (MPTCPConfig(), MPTCPConnection)],
    )
    def test_config_type_picks_the_transport_on_both_sides(self, config, kind):
        net, client, server = build_multipath_network([WIFI, THREEG])
        accepted = []
        open_listener(server, config, accepted.append)
        transport = open_client(client, server, config)
        net.run(until=1.0)
        assert type(transport) is kind
        assert [type(t) for t in accepted] == [kind]

    def test_bytes_payload_is_delivered_exactly_and_closed_once(self):
        payload = random_payload(200_000, seed=3)
        net, client, server = build_multipath_network([WIFI])
        received = bytearray()

        def on_accept(sock):
            sock.on_data = lambda s: received.extend(s.read())

        open_listener(server, TCPConfig(), on_accept)
        transport = open_client(client, server, TCPConfig())
        closes = []
        close = transport.close
        transport.close = lambda: (closes.append(net.now), close())
        app = BulkSenderApp(transport, payload)
        net.run(until=10.0)
        assert bytes(received) == payload
        assert app.done and app.sent == len(payload)
        assert len(closes) == 1

    @pytest.mark.parametrize("config", [TCPConfig(), MPTCPConfig()])
    def test_one_listener_serves_many_clients(self, config):
        net, client, server = build_multipath_network([WIFI])
        accepted = []
        open_listener(server, config, accepted.append)
        transports = [open_client(client, server, config) for _ in range(2)]
        net.run(until=1.0)
        assert len(accepted) == 2 and accepted[0] is not accepted[1]
        assert {type(t) for t in accepted + transports} == {type(transports[0])}


class TestVariantConfigs:
    def test_regular_disables_all_mechanisms(self):
        config = mptcp_variant_config("regular", 100_000)
        assert not config.enable_m1 and not config.enable_m2
        assert not config.autotune and not config.capping

    def test_m1234_enables_everything(self):
        config = mptcp_variant_config("m1234", 100_000)
        assert config.enable_m1 and config.enable_m2
        assert config.autotune and config.capping

    def test_buffers_propagate(self):
        config = mptcp_variant_config("m12", 123_456)
        assert config.snd_buf == 123_456
        assert config.rcv_buf == 123_456
        assert config.tcp.rcv_buf == 123_456

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            mptcp_variant_config("m9", 100_000)


class TestExperimentResult:
    def _populated(self):
        result = ExperimentResult("demo")
        result.add(x=1, variant="a", y=10.0)
        result.add(x=2, variant="a", y=20.0)
        result.add(x=1, variant="b", y=5.0)
        return result

    def test_series_filters(self):
        result = self._populated()
        assert result.series("x", "y", variant="a") == [(1, 10.0), (2, 20.0)]

    def test_column(self):
        result = self._populated()
        assert result.column("y", variant="b") == [5.0]

    def test_format_table_contains_all_rows(self):
        text = self._populated().format_table()
        assert "demo" in text
        assert text.count("\n") >= 4

    def test_format_table_empty(self):
        assert "(no rows)" in ExperimentResult("empty").format_table()

    def test_format_handles_none_and_floats(self):
        result = ExperimentResult("mixed")
        result.add(a=None, b=1.23456, c="text")
        text = result.format_table()
        assert "-" in text and "1.235" in text and "text" in text
