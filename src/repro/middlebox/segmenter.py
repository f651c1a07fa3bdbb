"""Segment splitting and coalescing (§3.3.4, §3.3.5).

**Splitter** — models TSO NICs and resegmenting proxies.  The paper
tested 12 TSO NICs from four vendors: *all* copy a TCP option from the
large segment onto every split segment.  That duplication is why the
DSS mapping must be idempotent — (relative SSN, DSN, length) names
absolute positions, so receiving the same mapping twice is harmless,
whereas a bare "DSN of this segment" option would map the later splits
to the wrong place.

**Coalescer** — models traffic normalizers that merge consecutive
segments.  The merged segment can keep only one set of options (40-byte
option space), so the second segment's DSS mapping is lost: the
receiver gets bytes with no mapping, subflow-ACKs them, never
data-ACKs them, and the sender's data-level retransmission recovers —
the degradation (not breakage) the paper describes.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.net.options import fits_option_space
from repro.net.packet import FIN, PSH, Endpoint, Segment
from repro.net.path import PathElement
from repro.sim.engine import Timer
from repro.tcp.seq import seq_add


class SegmentSplitter(PathElement):
    """Split payloads larger than ``mss`` into chained segments, copying
    the full option list onto each (TSO behaviour)."""

    def __init__(self, mss: int = 512, name: str = "Splitter"):
        super().__init__(name)
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.splits = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if segment.payload_len <= self.mss:
            return [(segment, direction)]
        pieces: list[tuple[Segment, int]] = []
        payload = segment.payload
        offset = 0
        while offset < len(payload):
            # A memoryview slice is a zero-copy window: splitting never
            # duplicates payload bytes, exactly like a real TSO NIC
            # scattering one buffer across frames.
            chunk = payload[offset : offset + self.mss]
            is_last = offset + len(chunk) >= len(payload)
            flags = segment.flags
            if not is_last:
                flags &= ~FIN  # FIN rides only the final piece
            piece = Segment(
                src=segment.src,
                dst=segment.dst,
                seq=seq_add(segment.seq, offset),
                ack=segment.ack,
                flags=flags,
                window=segment.window,
                options=list(segment.options),  # copied onto every split
                payload=chunk,
                created_at=segment.created_at,
            )
            pieces.append((piece, direction))
            offset += len(chunk)
        self.splits += len(pieces) - 1
        return pieces


class SegmentCoalescer(PathElement):
    """Merge consecutive in-order segments of a flow.

    Holds one segment per flow for up to ``HOLD_TIME``; if the next
    segment of that flow continues it contiguously (same flags profile),
    they merge — keeping the *first* segment's options, since two DSS
    mappings cannot fit the option space.  A merged payload stays within
    ``MAX_SIZE`` bytes.
    """

    HOLD_TIME = 0.002
    MAX_SIZE = 64 * 1024

    def __init__(
        self,
        merge_probability: float = 1.0,
        rng=None,
        name: str = "Coalescer",
    ):
        super().__init__(name)
        from repro.sim.rng import SeededRNG

        self.merge_probability = merge_probability
        self.rng = rng or SeededRNG(0, name)
        self._held: dict[tuple[Endpoint, Endpoint], tuple[Segment, int, Timer]] = {}
        self.merges = 0

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if not segment.payload or segment.syn or segment.rst:
            self._flush_flow((segment.src, segment.dst))
            return [(segment, direction)]
        if not self.rng.chance(self.merge_probability):
            self._flush_flow((segment.src, segment.dst))
            return [(segment, direction)]
        key = (segment.src, segment.dst)
        held = self._held.get(key)
        if held is not None:
            held_segment, held_direction, timer = held
            contiguous = seq_add(held_segment.seq, held_segment.payload_len) == segment.seq
            if (
                contiguous
                and held_direction == direction
                and held_segment.payload_len + segment.payload_len <= self.MAX_SIZE
                and not held_segment.fin
            ):
                # Mutation point: coalescing builds new content, so both
                # sides materialize out of their shared backings here.
                held_segment.payload = b"".join((held_segment.payload, segment.payload))
                held_segment.flags |= segment.flags & (FIN | PSH)
                held_segment.ack = segment.ack
                held_segment.window = segment.window
                # Options: keep the held (first) segment's — the second
                # mapping is lost here.
                self.merges += 1
                return []
            self._flush_flow(key)
        timer = Timer(self.sim, partial(self._flush_flow, key))
        timer.start(self.HOLD_TIME)
        # Held until the timer or the next non-mergeable segment of the
        # flow hands it on via _flush_flow.
        self._held[key] = (segment, direction, timer)
        return []

    def _flush_flow(self, key) -> None:
        held = self._held.pop(key, None)
        if held is None:
            return
        segment, direction, timer = held
        timer.stop()
        self.inject(segment, direction)
