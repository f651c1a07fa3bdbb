"""Content-modifying middleboxes (§3.3.6).

``PayloadModifier`` models an application-level gateway (the FTP ALG of
RFC 2663): it substitutes a byte pattern in the forward payload stream.
With a different-length replacement it also fixes up all subsequent
sequence numbers (and reverse ACKs/SACKs) so the *endpoints* never see
an inconsistency — exactly the behaviour that silently corrupts every
data-to-subflow mapping scheme and that only the DSS checksum detects.

``RetransmissionNormalizer`` models the traffic normalizer of footnote
5: it remembers payload bytes per sequence range and re-asserts the
original content if a "retransmission" arrives with different data —
defeating any scheme that encodes control information by varying
retransmitted payloads.
"""

from __future__ import annotations

from repro.middlebox.rewriter import SequenceRewriter
from repro.net.packet import Endpoint, Segment
from repro.net.path import FORWARD, PathElement
from repro.net.payload import Buffer
from repro.tcp.seq import seq_add, seq_diff


class PayloadModifier(PathElement):
    """Rewrites ``pattern`` → ``replacement`` in the forward stream.

    The match is applied per segment (the model assumes the pattern
    does not straddle a segment boundary, as FTP control commands do
    not).  When lengths differ, a cumulative per-flow delta adjusts the
    sequence numbers of everything after the edit, and reverse ACKs and
    SACK edges are shifted back, each by the deltas of the edits below
    it, keeping both endpoints consistent.
    """

    # The invariant oracle tolerates end-to-end stream differences for
    # endpoints that cannot detect an in-path payload rewrite.
    rewrites_payload = True

    def __init__(
        self,
        pattern: bytes,
        replacement: bytes,
        max_rewrites: int | None = None,
        name: str = "ALG",
    ):
        super().__init__(name)
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = pattern
        self.replacement = replacement
        self.max_rewrites = max_rewrites
        self.rewrites = 0
        # Per flow: list of (first_unshifted_seq, cumulative_delta).
        self._deltas: dict[tuple[Endpoint, Endpoint], list[tuple[int, int]]] = {}
        self._seen: dict[tuple[Endpoint, Endpoint], int] = {}

    def _flow_delta(self, key, seq: int) -> int:
        """Cumulative delta applying to a segment starting at seq."""
        total = 0
        for boundary, delta in self._deltas.get(key, []):
            if seq_diff(seq, boundary) >= 0:
                total += delta
        return total

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction == FORWARD:
            key = (segment.src, segment.dst)
            delta = self._flow_delta(key, segment.seq)
            original_end = segment.end_seq
            if segment.payload and (
                self.max_rewrites is None or self.rewrites < self.max_rewrites
            ):
                # Views have no find(): search a bytes copy, which is
                # also what a rewrite builds from, so it can never reach
                # other holders of the (possibly shared) backing.
                original = bytes(segment.payload)
                index = original.find(self.pattern)
                # Only rewrite fresh data (not retransmissions) so the
                # delta ledger stays consistent.
                seen = self._seen.get(key)
                fresh = seen is None or seq_diff(original_end, seen) > 0
                if index >= 0 and fresh:
                    segment.payload = (
                        original[:index]
                        + self.replacement
                        + original[index + len(self.pattern) :]
                    )
                    length_change = len(self.replacement) - len(self.pattern)
                    if length_change != 0:
                        boundary = seq_add(segment.seq, index + len(self.pattern))
                        self._deltas.setdefault(key, []).append((boundary, length_change))
                    self.rewrites += 1
            seen = self._seen.get(key)
            if seen is None or seq_diff(original_end, seen) > 0:
                self._seen[key] = original_end
            if delta:
                segment.seq = seq_add(segment.seq, delta)
            return [(segment, direction)]
        # Reverse: shift ACKs and SACK edges back so the sender's view
        # stays coherent.
        ledger = self._deltas.get((segment.dst, segment.src))
        if ledger is not None and segment.has_ack:
            segment.ack = _to_sender(segment.ack, ledger)
            SequenceRewriter._fix_sack(segment, _to_sender, ledger)
        return [(segment, direction)]


def _to_sender(seq: int, ledger: list[tuple[int, int]]) -> int:
    """The sender-space sequence number of receiver-space ``seq``.

    Inverts the forward shift by scanning (the ledger is short): an
    edit's delta applies once ``seq`` reaches the point where that
    edit's boundary landed in the receiver's space.
    """
    total = 0
    for boundary, delta in ledger:
        if seq_diff(seq, seq_add(boundary, total + delta)) >= 0:
            total += delta
    return seq_add(seq, -total)


class RetransmissionNormalizer(PathElement):
    """Caches forward payload by sequence range; a retransmission with
    different content is overwritten with the original bytes.

    Caching and re-asserting store payload *references* (views or
    bytes); only the content comparison exports ``bytes``, so it is one
    ``memcmp`` rather than a memoryview's item-by-item compare.
    """

    def __init__(self, cache_limit: int = 4 * 1024 * 1024, name: str = "Normalizer"):
        super().__init__(name)
        self.cache_limit = cache_limit
        self._cache: dict[tuple[Endpoint, Endpoint], dict[int, Buffer]] = {}
        self._cached_bytes = 0
        self.normalized = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction != FORWARD or not segment.payload:
            return [(segment, direction)]
        key = (segment.src, segment.dst)
        # Forward-only payload cache: only FORWARD traffic touches it.
        flow_cache = self._cache.setdefault(key, {})
        cached = flow_cache.get(segment.seq)
        if cached is not None and len(cached) == segment.payload_len:
            if bytes(cached) != bytes(segment.payload):
                segment.payload = cached  # re-assert original content
                self.normalized += 1
        elif self._cached_bytes + segment.payload_len <= self.cache_limit:
            flow_cache[segment.seq] = segment.payload
            self._cached_bytes += segment.payload_len
        return [(segment, direction)]
