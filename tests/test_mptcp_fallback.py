"""The fallback ladder (§3.1, §3.3.6): MPTCP must complete the transfer
wherever plain TCP would."""

import pytest

from repro.middlebox import (
    AckCoercer,
    HoleBlocker,
    OptionStripper,
    PayloadModifier,
    SegmentCoalescer,
    SequenceRewriter,
)
from repro.mptcp.connection import MPTCPConfig
from repro.sim.rng import SeededRNG

from conftest import make_multipath, make_tcp_pair, mptcp_transfer, random_payload


def single_path_net(elements, seed=3, **kwargs):
    return make_multipath(
        seed=seed,
        paths=[dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000)],
        elements_per_path=[list(elements)],
        **kwargs,
    )


class TestHandshakeFallback:
    def test_mp_capable_stripped_from_syn(self):
        net, client, server = single_path_net([OptionStripper(syn_only=True)])
        payload = random_payload(150_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert result.client.fallback and result.server.fallback
        assert result.client.closed and result.server.closed

    def test_mp_capable_stripped_from_synack_only(self):
        """§3.1's asymmetric case: server believes MPTCP is on, client
        does not.  The server must detect it from the first non-SYN
        segment."""
        from repro.net.options import KIND_MPTCP

        class SynAckStripper(OptionStripper):
            def process(self, segment, direction):
                if direction == -1 and segment.syn:
                    segment.options = [
                        o for o in segment.options if o.kind != KIND_MPTCP
                    ]
                return [(segment, direction)]

        net, client, server = single_path_net([SynAckStripper()])
        payload = random_payload(150_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert result.client.fallback
        assert result.server.fallback  # detected via first non-SYN segment

    def test_options_stripped_from_data_segments(self):
        net, client, server = single_path_net(
            [OptionStripper(syn_only=False, skip_syn=True)]
        )
        payload = random_payload(150_000)
        result = mptcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert result.client.fallback and result.server.fallback

    def test_plain_tcp_client_accepted_by_mptcp_server(self):
        """A legacy client connects to an MPTCP server: the application
        sees the same connection object, in fallback."""
        from repro.mptcp.api import listen
        from repro.net.packet import Endpoint
        from repro.tcp.socket import TCPSocket

        net, client, server = make_tcp_pair()
        holder = {}

        def on_accept(conn):
            holder["conn"] = conn
            conn.on_data = lambda c: holder.setdefault("data", bytearray()).extend(c.read())
            conn.on_eof = lambda c: c.close()

        listen(server, 80, on_accept=on_accept)
        sock = TCPSocket(client)
        sock.on_established = lambda s: (s.send(b"plain old tcp"), s.close())
        sock.connect(Endpoint("10.9.0.1", 80))
        net.run(until=5.0)
        assert holder["conn"].fallback
        assert bytes(holder["data"]) == b"plain old tcp"

    def test_syn_retransmission_drops_mp_capable(self):
        """After repeated SYN losses the client retries without the
        option (§3.1): maybe the option itself is being eaten."""

        class SynWithMPTCPDropper(OptionStripper):
            """Drops (does not strip) SYNs carrying MPTCP options —
            modelling a middlebox that blackholes unknown options."""

            def process(self, segment, direction):
                from repro.net.options import KIND_MPTCP

                if segment.syn and any(o.kind == KIND_MPTCP for o in segment.options):
                    return []
                return [(segment, direction)]

        net, client, server = single_path_net([SynWithMPTCPDropper()])
        payload = random_payload(60_000)
        result = mptcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload
        assert result.client.fallback


class TestMidConnectionBidirectionalStrip:
    """Regression: a stripper that activates mid-connection and eats
    options in BOTH directions (what a transparent proxy does) also eats
    the receiver's MP_FAIL — so the receiver-side mid-connection rule
    alone never reaches the sender, which kept emitting mappings while
    the raw-continuing receiver delivered duplicate stream bytes.  The
    sender's symmetric rule (a run of option-less pure ACKs after DSS
    traffic) must trigger the fallback instead."""

    def _transfer(self, elements, seed=11):
        net, client, server = make_tcp_pair(
            seed=seed, queue_bytes=400_000, elements=elements
        )
        payload = random_payload(1_500_000, seed=seed)
        result = mptcp_transfer(net, client, server, payload, duration=60)
        return payload, result

    def test_bidirectional_mid_connection_strip_falls_back_cleanly(self):
        stripper = OptionStripper(syn_only=False, skip_syn=True, active_after=0.5)
        payload, result = self._transfer([stripper])
        assert bytes(result.received) == payload  # no duplicated bytes
        assert stripper.stripped > 0
        assert result.client.fallback and result.server.fallback

    def test_mid_connection_strip_composed_with_proxy_behaviours(self):
        """The multi-behaviour path from the population model: stripping
        activates while an ISN rewriter, hole blocker and ACK coercer
        are also on the path — fallback must still be clean."""
        elements = [
            OptionStripper(syn_only=False, skip_syn=True, active_after=0.5),
            SequenceRewriter(SeededRNG(7, "isn")),
            HoleBlocker(),
            AckCoercer(mode="correct"),
        ]
        payload, result = self._transfer(elements)
        assert bytes(result.received) == payload
        assert result.client.fallback


class TestChecksumFallback:
    def test_alg_single_subflow_falls_back_and_delivers_modified(self):
        payload = random_payload(200_000, seed=5)
        pattern = payload[50_000:50_012]
        assert payload.count(pattern) == 1
        replacement = b"REWRITTEN-XX"
        net, client, server = single_path_net(
            [PayloadModifier(pattern, replacement, max_rewrites=1)]
        )
        result = mptcp_transfer(net, client, server, payload)
        expected = payload.replace(pattern, replacement)
        assert bytes(result.received) == expected  # middlebox's version
        assert result.server.fallback
        assert result.client.fallback  # told via MP_FAIL
        assert result.server.stats.checksum_failures == 1

    def test_alg_with_two_subflows_resets_dirty_one(self):
        payload = random_payload(600_000, seed=6)
        pattern = payload[400_000:400_012]
        assert payload.count(pattern) == 1
        net, client, server = make_multipath(
            paths=[
                dict(rate_bps=8e6, delay=0.01, queue_bytes=80_000),
                dict(rate_bps=8e6, delay=0.02, queue_bytes=80_000),
            ],
            elements_per_path=[
                [PayloadModifier(pattern, b"REWRITTEN-XX", max_rewrites=1)],
                [],
            ],
        )
        result = mptcp_transfer(net, client, server, payload, duration=120)
        # The ORIGINAL data survives: the dirty subflow was reset and
        # its data reinjected on the clean one (§3.3.6).
        assert bytes(result.received) == payload
        assert not result.client.fallback
        assert any(s.failed for s in result.server.subflows)

    def test_checksum_disabled_alg_goes_undetected(self):
        """Without checksums (datacenter mode) the modification slips
        through silently — the §3.3.6 trade-off."""
        payload = random_payload(100_000, seed=7)
        pattern = payload[30_000:30_012]
        assert payload.count(pattern) == 1
        replacement = b"REWRITTEN-XX"
        net, client, server = single_path_net(
            [PayloadModifier(pattern, replacement, max_rewrites=1)]
        )
        config = MPTCPConfig(checksum=False)
        result = mptcp_transfer(net, client, server, payload, config=config)
        assert bytes(result.received) == payload.replace(pattern, replacement)
        assert result.server.stats.checksum_failures == 0
        assert not result.server.fallback


class TestCoalescingRecovery:
    def test_lost_mappings_recovered_by_data_retransmission(self):
        """§3.3.5: coalesced segments lose their second mapping; the
        unmapped bytes are dropped and recovered at the data level."""
        net, client, server = single_path_net(
            [SegmentCoalescer(merge_probability=0.1)]
        )
        payload = random_payload(200_000)
        result = mptcp_transfer(net, client, server, payload, duration=120)
        assert bytes(result.received) == payload
        assert result.server.stats.unmapped_bytes_dropped > 0
        assert not result.server.fallback  # degraded, not broken

    def test_length_changing_alg_on_plain_tcp_transparent(self):
        """Sanity: the length-changing ALG keeps plain TCP coherent
        (it fixes up seq/ack), proving the element itself is fair."""
        from conftest import tcp_transfer

        payload = random_payload(100_000, seed=9)
        pattern = payload[20_000:20_010]
        assert payload.count(pattern) == 1
        replacement = b"LONGER-REPLACEMENT"
        net, client, server = make_tcp_pair(
            elements=[PayloadModifier(pattern, replacement, max_rewrites=1)]
        )
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload.replace(pattern, replacement)


class TestForwardStripOnTheOnlySubflow:
    """Fuzzer seed 94: from t = 0.31 s a stripper eats every MPTCP option
    client-to-server on the only subflow; the reverse path stays intact,
    so the receiver's MP_FAIL reaches the sender."""

    SPEC = dict(
        seed=94,
        protocol="mptcp",
        paths=[{"rate_bps": 1e6, "delay": 0.0656, "queue_bytes": 80_000, "loss": 0.005}],
        elements=[[
            "Jitter(max_jitter=0.00357, rng=SeededRNG(27104, 'jit'))",
            "OptionStripper(syn_only=False, skip_syn=True, direction=FORWARD, active_after=0.31)",
        ]],
        duration=45.0,
        checksum=True,
    )

    def _run(self, payload_size):
        from repro.check.fuzzer import ScenarioSpec, run_scenario

        outcome = run_scenario(ScenarioSpec(payload_size=payload_size, **self.SPEC))
        assert outcome.failure is None, outcome.describe()
        assert outcome.completed and outcome.received_bytes == payload_size
        return outcome

    def test_stripped_tail_falls_back_instead_of_reinjecting(self):
        """Shrunk repro: the last 456-byte segment loses its DSS and the
        receiver holds it, one mapless segment short of falling back.
        The data-level RTO used to reinject it at a new subflow sequence,
        stripped again: the second mapless segment, so the raw
        continuation delivered 16,840 bytes of 16,384 sent."""
        self._run(16_384)

    def test_fallback_continues_from_the_last_byte_the_subflow_sent(self):
        """The full scenario: the sender falls back on MP_FAIL with part
        of a scheduler batch reserved but unsent.  Anchoring the raw
        continuation at the reservation's end skipped those bytes, and
        the receiver got [30118, 31566) wrong."""
        self._run(131_072)


class TestOptionlessAcksOnTheDataReceiver:
    """Fuzzer seeds 787 and 3425: a forward-only stripper eats the
    client's options mid-connection, so the *server* (the data receiver)
    sees option-less ACKs.  The ACK rule meant for the data sender made
    it fall back while its data-level reassembly still held bytes behind
    a hole, and the raw continuation landed at the wrong data offset.
    The receiver now waits for an in-sync receive side, and these
    transfers stall instead (completing them is still open).  What the
    application read must be a prefix of what was sent — compared byte
    for byte here, because with a ``Corrupter`` on the path (3425) the
    oracle tolerated the damage as one middlebox modification."""

    @pytest.mark.parametrize(
        "seed, path, elements, payload_size, checksum",
        [
            (
                787,
                dict(rate_bps=4e6, delay=0.0055, queue_bytes=20_000, loss=0.0),
                [
                    "OptionStripper(syn_only=False, skip_syn=True, direction=FORWARD,"
                    " active_after=0.44)",
                ],
                131_072,
                False,
            ),
            (
                3425,
                dict(rate_bps=1e6, delay=0.0298, queue_bytes=80_000, loss=0.02),
                [
                    "OptionStripper(syn_only=False, skip_syn=True, direction=FORWARD,"
                    " active_after=0.45)",
                    "Corrupter(seed=13383, probability=0.003, active_after=1.13)",
                ],
                65_536,
                True,
            ),
        ],
    )
    def test_delivered_bytes_are_a_prefix_of_the_payload(
        self, seed, path, elements, payload_size, checksum
    ):
        from repro.check.fuzzer import ScenarioSpec, _payload, run_scenario

        spec = ScenarioSpec(
            seed=seed,
            protocol="mptcp",
            paths=[path],
            elements=[elements],
            payload_size=payload_size,
            duration=10.0,
            checksum=checksum,
        )
        outcome = run_scenario(spec)
        assert outcome.failure is None, outcome.describe()
        sent = _payload(payload_size, seed)
        assert outcome.received == sent[: len(outcome.received)]
