"""Each middlebox element against plain TCP (they must be transparent
or break things in exactly the documented way)."""

import pytest

from repro.middlebox import (
    NAT,
    AckCoercer,
    HoleBlocker,
    OptionStripper,
    PayloadModifier,
    ProactiveAcker,
    RetransmissionNormalizer,
    SegmentCoalescer,
    SegmentSplitter,
    SequenceRewriter,
)
from repro.net.options import KIND_MPTCP, MSSOption, SACKOption, TimestampsOption
from repro.net.packet import ACK, SYN, Endpoint, Segment
from repro.net.path import FORWARD, REVERSE
from repro.sim.rng import SeededRNG

from conftest import make_tcp_pair, random_payload, tcp_transfer

A = Endpoint("10.0.0.1", 1000)
B = Endpoint("10.9.0.1", 80)


class TestNAT:
    def test_rewrites_and_restores(self):
        nat = NAT("99.0.0.1")
        syn = Segment(A, B, flags=SYN, seq=1)
        [(translated, _)] = nat.process(syn, FORWARD)
        assert translated.src.ip == "99.0.0.1"
        reply = Segment(B, translated.src, flags=SYN | ACK)
        [(restored, _)] = nat.process(reply, REVERSE)
        assert restored.dst == A

    def test_stable_mapping_per_flow(self):
        nat = NAT("99.0.0.1")
        syn = Segment(A, B, flags=SYN)
        [(first, _)] = nat.process(syn, FORWARD)
        data = Segment(A, B, flags=ACK, payload=b"x")
        [(second, _)] = nat.process(data, FORWARD)
        assert first.src == second.src
        assert first.src is second.src  # built once per flow, not per segment

    def test_unsolicited_inbound_dropped(self):
        """§3.2: a server cannot SYN toward a NATted client."""
        nat = NAT("99.0.0.1")
        inbound = Segment(B, Endpoint("99.0.0.1", 20000), flags=SYN)
        assert nat.process(inbound, REVERSE) == []
        assert nat.dropped_unsolicited == 1

    def test_data_without_syn_dropped(self):
        """The §3.2 strawman: data on a new path with no handshake."""
        nat = NAT("99.0.0.1")
        data = Segment(A, B, flags=ACK, payload=b"stray")
        assert nat.process(data, FORWARD) == []

    def test_tcp_transparent_through_nat(self):
        net, client, server = make_tcp_pair(elements=[NAT("99.0.0.1")])
        payload = random_payload(100_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload


class TestSequenceRewriter:
    def test_tcp_transparent(self):
        net, client, server = make_tcp_pair(
            elements=[SequenceRewriter(SeededRNG(2, "rw"))]
        )
        payload = random_payload(150_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload

    def test_sequence_numbers_actually_differ_on_wire(self):
        net, client, server = make_tcp_pair(
            elements=[SequenceRewriter(SeededRNG(2, "rw"))]
        )
        wire_isns = []
        # Tap *after* the rewriter (on delivery to the server).
        server.on_receive.append(lambda s: s.syn and wire_isns.append(s.seq))
        result = tcp_transfer(net, client, server, random_payload(1000))
        assert wire_isns
        assert wire_isns[0] != result.client.iss

    def test_reverse_ack_and_sack_shifted_back(self):
        rewriter = SequenceRewriter(SeededRNG(2, "rw"))
        [(syn, _)] = rewriter.process(Segment(A, B, flags=SYN, seq=100), FORWARD)
        wire = syn.seq
        assert wire != 100
        reply = Segment(
            B, A, flags=ACK, ack=wire + 1, options=[SACKOption(((wire + 10, wire + 20),))]
        )
        [(out, _)] = rewriter.process(reply, REVERSE)
        assert out.ack == 101
        assert out.find_option(SACKOption).blocks == ((110, 120),)


class TestOptionStripper:
    def test_strips_from_syn_only(self):
        stripper = OptionStripper(kinds=(KIND_MPTCP,), syn_only=True)
        from repro.mptcp.options import MPCapable

        syn = Segment(A, B, flags=SYN, options=[MSSOption(1448), MPCapable(sender_key=1)])
        [(out, _)] = stripper.process(syn, FORWARD)
        assert out.find_option(MPCapable) is None
        assert out.find_option(MSSOption) is not None
        data = Segment(A, B, flags=ACK, options=[MPCapable(sender_key=1)], payload=b"d")
        [(out2, _)] = stripper.process(data, FORWARD)
        assert out2.find_option(MPCapable) is not None

    def test_skip_syn_mode(self):
        from repro.mptcp.options import DSS

        stripper = OptionStripper(syn_only=False, skip_syn=True)
        syn = Segment(A, B, flags=SYN, options=[DSS(data_ack=1)])
        [(out, _)] = stripper.process(syn, FORWARD)
        assert out.options  # untouched
        data = Segment(A, B, flags=ACK, options=[DSS(data_ack=1)])
        [(out2, _)] = stripper.process(data, FORWARD)
        assert out2.options == []

    def test_tcp_unharmed_when_stripping_mptcp_kind(self):
        net, client, server = make_tcp_pair(
            elements=[OptionStripper(syn_only=False)]
        )
        payload = random_payload(100_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload


class TestSplitter:
    def test_splits_preserving_stream(self):
        splitter = SegmentSplitter(mss=400)
        seg = Segment(A, B, seq=1000, flags=ACK, payload=bytes(range(250)) * 4)
        pieces = splitter.process(seg, FORWARD)
        assert len(pieces) == 3
        reassembled = b"".join(p.payload for p, _ in pieces)
        assert reassembled == seg.payload
        assert pieces[1][0].seq == 1400

    def test_copies_options_to_every_piece(self):
        """The TSO behaviour the paper measured on 12 NICs (§3.3.4)."""
        from repro.mptcp.options import DSS

        splitter = SegmentSplitter(mss=500)
        dss = DSS(dsn=7, subflow_seq=1, length=1000)
        seg = Segment(A, B, flags=ACK, payload=b"z" * 1000, options=[dss])
        pieces = splitter.process(seg, FORWARD)
        assert len(pieces) == 2
        for piece, _ in pieces:
            assert piece.find_option(DSS) == dss

    def test_fin_only_on_last_piece(self):
        from repro.net.packet import FIN

        splitter = SegmentSplitter(mss=300)
        seg = Segment(A, B, flags=ACK | FIN, payload=b"q" * 700)
        pieces = [p for p, _ in splitter.process(seg, FORWARD)]
        assert [p.fin for p in pieces] == [False, False, True]

    def test_small_segment_untouched(self):
        splitter = SegmentSplitter(mss=1000)
        seg = Segment(A, B, flags=ACK, payload=b"small")
        assert len(splitter.process(seg, FORWARD)) == 1

    def test_tcp_transparent(self):
        net, client, server = make_tcp_pair(elements=[SegmentSplitter(mss=500)])
        payload = random_payload(120_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload


class TestCoalescer:
    def test_tcp_transparent(self):
        net, client, server = make_tcp_pair(elements=[SegmentCoalescer()])
        payload = random_payload(120_000)
        result = tcp_transfer(net, client, server, payload, duration=60)
        assert bytes(result.received) == payload

    def test_merges_contiguous_segments(self):
        net, client, server = make_tcp_pair(elements=[SegmentCoalescer()])
        sizes = []
        server.on_receive.append(lambda s: s.payload and sizes.append(len(s.payload)))
        tcp_transfer(net, client, server, random_payload(80_000))
        assert sizes and max(sizes) > 1448  # merged beyond one MSS


class TestProactiveAcker:
    def test_injects_acks_toward_sender(self):
        net, client, server = make_tcp_pair(elements=[ProactiveAcker()])
        payload = random_payload(60_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        element = net.paths[0].elements[0]
        assert element.acks_injected > 0


class TestAckCoercer:
    def test_transparent_for_normal_tcp(self):
        net, client, server = make_tcp_pair(elements=[AckCoercer(mode="drop")])
        payload = random_payload(100_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
        assert net.paths[0].elements[0].coerced == 0

    def test_drops_ack_for_unseen_data(self):
        coercer = AckCoercer(mode="drop")
        coercer.process(Segment(A, B, seq=0, flags=SYN), FORWARD)
        coercer.process(Segment(A, B, seq=1, flags=ACK, payload=b"x" * 100), FORWARD)
        # ACK covering 5000 bytes the box never saw:
        assert coercer.process(Segment(B, A, flags=ACK, ack=5000), REVERSE) == []

    def test_corrects_instead_of_dropping(self):
        coercer = AckCoercer(mode="correct")
        coercer.process(Segment(A, B, seq=0, flags=SYN), FORWARD)
        coercer.process(Segment(A, B, seq=1, flags=ACK, payload=b"x" * 100), FORWARD)
        [(out, _)] = coercer.process(Segment(B, A, flags=ACK, ack=5000), REVERSE)
        assert out.ack == 101

    def test_contiguity_tracking_stalls_at_hole(self):
        coercer = AckCoercer(mode="drop")
        coercer.process(Segment(A, B, seq=0, flags=SYN), FORWARD)
        coercer.process(Segment(A, B, seq=1, flags=ACK, payload=b"x" * 100), FORWARD)
        coercer.process(Segment(A, B, seq=301, flags=ACK, payload=b"x" * 100), FORWARD)  # hole
        # The box's view stops at 101; an ack at 401 covers "unseen" data.
        assert coercer.process(Segment(B, A, flags=ACK, ack=401), REVERSE) == []


class TestHoleBlocker:
    def test_transparent_for_in_order_tcp(self):
        net, client, server = make_tcp_pair(
            elements=[HoleBlocker()], queue_bytes=10**6
        )
        payload = random_payload(100_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload

    def test_blocks_after_hole_until_filled(self):
        blocker = HoleBlocker()
        blocker.process(Segment(A, B, seq=0, flags=SYN), FORWARD)
        assert blocker.process(Segment(A, B, seq=1, flags=ACK, payload=b"x" * 10), FORWARD)
        # Skip ahead: hole at 11.
        assert blocker.process(Segment(A, B, seq=50, flags=ACK, payload=b"y" * 10), FORWARD) == []
        # Fill the hole; flow resumes.
        assert blocker.process(Segment(A, B, seq=11, flags=ACK, payload=b"z" * 39), FORWARD)
        assert blocker.process(Segment(A, B, seq=50, flags=ACK, payload=b"y" * 10), FORWARD)


class TestPayloadModifier:
    def test_same_length_rewrite(self):
        alg = PayloadModifier(b"USER alice", b"USER carol")
        seg = Segment(A, B, seq=1, flags=ACK, payload=b"xx USER alice yy")
        [(out, _)] = alg.process(seg, FORWARD)
        assert out.payload == b"xx USER carol yy"
        assert alg.rewrites == 1

    def test_length_changing_rewrite_adjusts_later_seqs(self):
        alg = PayloadModifier(b"PORT 1,2", b"PORT 99,100,200")
        first = Segment(A, B, seq=1, flags=ACK, payload=b"PORT 1,2\r\n")
        [(out1, _)] = alg.process(first, FORWARD)
        delta = len(b"PORT 99,100,200") - len(b"PORT 1,2")
        second = Segment(A, B, seq=11, flags=ACK, payload=b"NEXT")
        [(out2, _)] = alg.process(second, FORWARD)
        assert out2.seq == 11 + delta

    def test_reverse_ack_fixup(self):
        alg = PayloadModifier(b"abc", b"abcdef")
        alg.process(Segment(A, B, seq=1, flags=ACK, payload=b"abc"), FORWARD)
        # The receiver acks 1 + 6 = 7 (it saw 6 bytes); the sender sent 3.
        [(out, _)] = alg.process(Segment(B, A, flags=ACK, ack=7), REVERSE)
        assert out.ack == 4

    def test_sack_edges_above_a_later_edit_are_shifted_back(self):
        """Each SACK edge is mapped back on its own: a block past an edit
        the cumulative ACK has not reached needs that edit's delta too."""
        alg = PayloadModifier(b"AB", b"ABCDEF")
        for seq in (1000, 1100, 1200):
            payload = b"x" * 10 + b"AB" + b"x" * 88 if seq == 1100 else b"x" * 100
            alg.process(Segment(A, B, seq=seq, flags=ACK, payload=payload), FORWARD)
        sack = SACKOption(((1204, 1304),))
        [(out, _)] = alg.process(Segment(B, A, flags=ACK, ack=1100, options=[sack]), REVERSE)
        assert out.ack == 1100
        assert out.find_option(SACKOption).blocks == ((1200, 1300),)
        # Blocks below every edit keep their option: nothing is rebuilt.
        below = SACKOption(((1050, 1100),))
        [(out, _)] = alg.process(Segment(B, A, flags=ACK, ack=1000, options=[below]), REVERSE)
        assert out.options[0] is below

    def test_retransmission_not_double_rewritten(self):
        alg = PayloadModifier(b"aaa", b"bbb")
        seg = Segment(A, B, seq=1, flags=ACK, payload=b"aaa")
        alg.process(seg.copy(), FORWARD)
        alg.process(seg.copy(), FORWARD)  # retransmission
        assert alg.rewrites == 1

    def test_max_rewrites_respected(self):
        alg = PayloadModifier(b"x", b"y", max_rewrites=1)
        alg.process(Segment(A, B, seq=1, flags=ACK, payload=b"x"), FORWARD)
        [(out, _)] = alg.process(Segment(A, B, seq=2, flags=ACK, payload=b"x"), FORWARD)
        assert out.payload == b"x"


class TestNormalizer:
    def test_reasserts_original_content(self):
        normalizer = RetransmissionNormalizer()
        original = Segment(A, B, seq=1, flags=ACK, payload=b"the original")
        normalizer.process(original, FORWARD)
        sneaky = Segment(A, B, seq=1, flags=ACK, payload=b"the MODIFIED")
        [(out, _)] = normalizer.process(sneaky, FORWARD)
        assert out.payload == b"the original"
        assert normalizer.normalized == 1

    def test_tcp_transparent(self):
        net, client, server = make_tcp_pair(elements=[RetransmissionNormalizer()])
        payload = random_payload(100_000)
        result = tcp_transfer(net, client, server, payload)
        assert bytes(result.received) == payload
