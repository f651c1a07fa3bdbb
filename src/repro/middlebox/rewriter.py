"""Sequence-number rewriting (§3.3).

The study found 10% of paths (18% on port 80) rewrite TCP initial
sequence numbers — typically firewalls "improving" ISN randomization.
The rewriter adds a per-flow random delta to the sequence numbers of
each flow it sees, in both directions, and subtracts the opposite
flow's delta from acknowledgments (and SACK blocks).
MPTCP survives because the DSS mapping carries subflow *offsets*, never
absolute sequence numbers (§3.3.4); a design that embedded absolute
subflow sequence numbers would desynchronize here.

The rewriter edits *headers* only — payloads pass through untouched, so
in the zero-copy datapath it forwards memoryview payloads by reference
and never materializes.
"""

from __future__ import annotations

from typing import Callable

from repro.net.options import SACKOption
from repro.net.packet import ACK, Endpoint, Segment
from repro.tcp.seq import seq_add
from repro.net.path import FORWARD, PathElement
from repro.sim.rng import SeededRNG


class SequenceRewriter(PathElement):
    def __init__(
        self,
        rng: SeededRNG | None = None,
        name: str = "SeqRewriter",
    ):
        super().__init__(name)
        self.rng = rng or SeededRNG(0, name)
        self._deltas: dict[tuple[Endpoint, Endpoint], int] = {}
        self.rewrites = 0

    def _delta_for(self, a: Endpoint, b: Endpoint) -> int:
        """The a → b flow's delta, drawn when the flow is first seen
        (SYN or not: a mid-flow segment gets one too)."""
        key = (a, b)
        delta = self._deltas.get(key)
        if delta is None:
            delta = self._deltas[key] = self.rng.getrandbits(32)
        return delta

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        if direction == FORWARD:
            segment.seq = seq_add(segment.seq, self._delta_for(segment.src, segment.dst))
            self.rewrites += 1
            delta = self._deltas.get((segment.dst, segment.src))
            if delta is not None and segment.flags & ACK:
                segment.ack = seq_add(segment.ack, -delta)
                self._fix_sack(segment, seq_add, -delta)
        else:
            delta = self._deltas.get((segment.dst, segment.src))
            if delta is not None and segment.flags & ACK:
                segment.ack = seq_add(segment.ack, -delta)
                self._fix_sack(segment, seq_add, -delta)
                self.rewrites += 1
            segment.seq = seq_add(segment.seq, self._delta_for(segment.src, segment.dst))
        return [(segment, direction)]

    @staticmethod
    def _fix_sack(segment: Segment, shift: Callable[..., int], arg: object) -> None:
        """Map every SACK edge of ``segment`` to ``shift(edge, arg)``; the
        option list is rebuilt only when an edge moves.  Shared with
        :class:`~repro.middlebox.alg.PayloadModifier`, whose shift
        depends on the edge."""
        options = segment.options
        for index, sack in enumerate(options):
            if type(sack) is SACKOption:
                break
        else:
            return
        blocks = tuple((shift(left, arg), shift(right, arg)) for left, right in sack.blocks)
        if blocks != sack.blocks:
            options = list(options)
            options[index] = SACKOption(blocks)
            segment.options = options
