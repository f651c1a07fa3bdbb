"""Sequence-number rewriting (§3.3).

The study found 10% of paths (18% on port 80) rewrite TCP initial
sequence numbers — typically firewalls "improving" ISN randomization.
The rewriter adds a per-flow random delta to forward sequence numbers
and subtracts it from reverse acknowledgments (and reverse SACK blocks).
MPTCP survives because the DSS mapping carries subflow *offsets*, never
absolute sequence numbers (§3.3.4); a design that embedded absolute
subflow sequence numbers would desynchronize here.

The rewriter edits *headers* only — payloads pass through untouched, so
in the zero-copy datapath it forwards memoryview payloads by reference
and never materializes.
"""

from __future__ import annotations

from repro.net.options import SACKOption
from repro.net.packet import Endpoint, Segment
from repro.tcp.seq import seq_add
from repro.net.path import FORWARD, PathElement
from repro.sim.rng import SeededRNG


class SequenceRewriter(PathElement):
    # Synchronous per-segment rewrite, no timers or clock reads.
    shard_safe = True

    def __init__(
        self,
        rng: SeededRNG | None = None,
        both_directions: bool = True,
        name: str = "SeqRewriter",
    ):
        super().__init__(name)
        self.rng = rng or SeededRNG(0, name)
        self.both_directions = both_directions
        self._deltas: dict[tuple[Endpoint, Endpoint], int] = {}
        self.rewrites = 0

    def _delta_for(self, a: Endpoint, b: Endpoint, create: bool) -> int | None:
        key = (a, b)
        delta = self._deltas.get(key)
        if delta is None and create:
            delta = self.rng.getrandbits(32)
            # Both directions consult the same ledger instance; the
            # merged cut driver is single-process and has_cut_elements
            # bars process-per-shard cloning.
            self._deltas[key] = delta
        return delta

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction == FORWARD:
            delta = self._delta_for(segment.src, segment.dst, create=segment.syn)
            if delta is None and not segment.syn:
                delta = self._delta_for(segment.src, segment.dst, create=True)
            if delta is not None:
                segment.seq = seq_add(segment.seq, delta)
                self.rewrites += 1
            if self.both_directions:
                reverse_delta = self._deltas.get((segment.dst, segment.src))
                if reverse_delta is not None and segment.has_ack:
                    segment.ack = seq_add(segment.ack, -reverse_delta)
                    self._fix_sack(segment, -reverse_delta)
        else:
            delta = self._deltas.get((segment.dst, segment.src))
            if delta is not None and segment.has_ack:
                segment.ack = seq_add(segment.ack, -delta)
                self._fix_sack(segment, -delta)
                self.rewrites += 1
            if self.both_directions:
                own = self._delta_for(segment.src, segment.dst, create=segment.syn)
                if own is None:
                    own = self._delta_for(segment.src, segment.dst, create=True)
                segment.seq = seq_add(segment.seq, own)
        return [(segment, direction)]

    @staticmethod
    def _fix_sack(segment: Segment, delta: int) -> None:
        sack = segment.find_option(SACKOption)
        if sack is None:
            return
        fixed = SACKOption(
            blocks=tuple(
                (seq_add(left, delta), seq_add(right, delta))
                for left, right in sack.blocks
            )
        )
        segment.options = [fixed if option is sack else option for option in segment.options]
