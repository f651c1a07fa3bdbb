"""Payload-modifying middleboxes handed memoryview payloads.

Guards the materialize-on-modify boundary: every content-modifying
middlebox (`PayloadModifier`, `SegmentSplitter`/`SegmentCoalescer`,
`RetransmissionNormalizer`) must corrupt or pass DSS checksums exactly
as it does with plain ``bytes`` payloads, and must never write through
a shared view backing.  Pass-through elements (`SequenceRewriter`)
must forward the very same view object — zero-copy.
"""

from types import SimpleNamespace

import pytest

from repro.middlebox import (
    PayloadModifier,
    RetransmissionNormalizer,
    SegmentCoalescer,
    SegmentSplitter,
    SequenceRewriter,
)
from repro.mptcp.checksum import dss_checksum, verify_dss_checksum
from repro.net.packet import ACK, Endpoint, Segment
from repro.net.path import FORWARD
from repro.sim.engine import Simulator

A = Endpoint("10.0.0.1", 1000)
B = Endpoint("10.9.0.1", 80)

DSN = 7_000
SSN = 1


def make_payload(content: bytes, as_a_view: bool):
    """The same content either as bytes or as a mid-buffer view."""
    if not as_a_view:
        return content
    backing = b"\xaa" * 5 + content + b"\xbb" * 3
    return memoryview(backing)[5 : 5 + len(content)]


def data_segment(payload, seq: int = 100) -> Segment:
    return Segment(A, B, seq=seq, flags=ACK, payload=payload)


@pytest.mark.parametrize("as_a_view", [False, True], ids=["bytes", "view"])
class TestChecksumBoundary:
    def test_payload_modifier_corrupts_checksum(self, as_a_view):
        content = b"PORT 10,0,0,1,7,208 and trailing data"
        checksum = dss_checksum(DSN, SSN, len(content), content)
        payload = make_payload(content, as_a_view)
        backing_before = bytes(payload)

        alg = PayloadModifier(pattern=b"10,0,0,1", replacement=b"99,0,0,1")
        [(out, _)] = alg.process(data_segment(payload), FORWARD)

        assert alg.rewrites == 1
        assert bytes(out.payload) == content.replace(b"10,0,0,1", b"99,0,0,1")
        # The rewrite is what the DSS checksum exists to catch:
        assert not verify_dss_checksum(DSN, SSN, len(content), out.payload, checksum)
        # ... and it must not have reached the shared backing.
        assert bytes(payload) == backing_before == content

    def test_payload_modifier_passthrough_keeps_checksum(self, as_a_view):
        content = b"no pattern here"
        checksum = dss_checksum(DSN, SSN, len(content), content)
        payload = make_payload(content, as_a_view)

        alg = PayloadModifier(pattern=b"ZZZZ", replacement=b"YYYY")
        [(out, _)] = alg.process(data_segment(payload), FORWARD)

        assert verify_dss_checksum(DSN, SSN, len(content), out.payload, checksum)

    def test_splitter_pieces_reassemble_to_valid_checksum(self, as_a_view):
        content = bytes(range(200)) * 10  # 2000 B, split at mss=512
        checksum = dss_checksum(DSN, SSN, len(content), content)
        payload = make_payload(content, as_a_view)

        splitter = SegmentSplitter(mss=512)
        pieces = splitter.process(data_segment(payload), FORWARD)

        assert len(pieces) == 4
        joined = b"".join(piece.payload for piece, _ in pieces)
        assert joined == content
        assert verify_dss_checksum(DSN, SSN, len(content), joined, checksum)
        if as_a_view:
            # Splitting is pure re-slicing: every piece still shares the
            # original backing buffer.
            backing = payload.obj
            for piece, _ in pieces:
                assert isinstance(piece.payload, memoryview)
                assert piece.payload.obj is backing

    def test_coalescer_merge_preserves_mapped_bytes(self, as_a_view):
        first = b"A" * 300
        second = b"B" * 300
        checksum_first = dss_checksum(DSN, SSN, len(first), first)
        checksum_second = dss_checksum(DSN + 300, SSN + 300, len(second), second)

        coalescer = SegmentCoalescer()
        coalescer.path = SimpleNamespace(sim=Simulator())
        assert coalescer.process(data_segment(make_payload(first, as_a_view), seq=100), FORWARD) == []
        assert coalescer.process(data_segment(make_payload(second, as_a_view), seq=400), FORWARD) == []
        assert coalescer.merges == 1

        merged, _, _ = coalescer._held[(A, B)]
        assert bytes(merged.payload) == first + second
        # Both original mappings, sliced back out of the merged payload,
        # still verify — coalescing loses the *option*, not the bytes.
        assert verify_dss_checksum(DSN, SSN, 300, merged.payload[:300], checksum_first)
        assert verify_dss_checksum(
            DSN + 300, SSN + 300, 300, merged.payload[300:], checksum_second
        )

    def test_normalizer_reasserts_original_checksum(self, as_a_view):
        original = b"the authoritative content!!"
        forged = b"the forged retransmission!!"
        assert len(original) == len(forged)
        checksum = dss_checksum(DSN, SSN, len(original), original)

        normalizer = RetransmissionNormalizer()
        normalizer.process(data_segment(make_payload(original, as_a_view)), FORWARD)
        [(out, _)] = normalizer.process(
            data_segment(make_payload(forged, as_a_view)), FORWARD
        )

        assert normalizer.normalized == 1
        assert bytes(out.payload) == original
        assert verify_dss_checksum(DSN, SSN, len(original), out.payload, checksum)

    def test_rewriter_is_zero_copy_passthrough(self, as_a_view):
        content = b"untouched payload"
        checksum = dss_checksum(DSN, SSN, len(content), content)
        payload = make_payload(content, as_a_view)

        rewriter = SequenceRewriter()
        [(out, _)] = rewriter.process(data_segment(payload), FORWARD)

        assert out.payload is payload  # headers rewritten, payload by reference
        assert verify_dss_checksum(DSN, SSN, len(content), out.payload, checksum)
