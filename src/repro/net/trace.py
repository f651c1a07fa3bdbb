"""Packet capture: a tcpdump for the simulator.

Attach a :class:`PacketTrace` to any path (or every path of a network)
and get a time-ordered record of segments with decoded MPTCP options —
the tool used to debug every middlebox interaction in this repository.
A trace keeps every segment it sees, or with ``tail=N`` only the last
``N`` (the invariant oracle's mode).

>>> trace = PacketTrace.attach_all(net)
>>> ...run...
>>> print(trace.format())            # human-readable capture
>>> syns = trace.filter(syn=True)    # programmatic access
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.net.packet import Segment, flags_repr

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.path import Path


@dataclass
class TraceRecord:
    time: float
    path_name: str
    direction: int
    segment: Segment  # rebuilt from the header fields captured

    def format(self) -> str:
        seg = self.segment
        arrow = "->" if self.direction == 1 else "<-"
        parts = [
            f"{self.time*1000:10.3f}ms",
            f"{self.path_name:>16s}",
            arrow,
            f"{seg.src}",
            ">",
            f"{seg.dst}",
            flags_repr(seg.flags),
            f"seq={seg.seq}",
        ]
        if seg.has_ack:
            parts.append(f"ack={seg.ack}")
        parts.append(f"win={seg.window}")
        if seg.payload:
            parts.append(f"len={seg.payload_len}")
        if seg.options:
            names = ",".join(type(option).__name__ for option in seg.options)
            parts.append(f"[{names}]")
        return " ".join(parts)


def _thaw(entry: tuple) -> TraceRecord:
    """Build the record a captured header tuple stands for."""
    time, path_name, direction, src, dst, seq, ack, flags, window, options, payload, created = entry
    segment = Segment(src, dst, seq, ack, flags, window, list(options), payload, created)
    return TraceRecord(time, path_name, direction, segment)


class PacketTrace:
    """Capture segments crossing one or more paths.

    Each tap stores one tuple of header fields (sharing the payload and
    option objects, which are immutable) in a ring; :attr:`records`
    builds the :class:`TraceRecord` objects on read, so a record shows
    the segment as it was at capture time.  ``tail=None`` keeps every
    tap; ``tail=N`` keeps only the last ``N``, discarding the oldest and
    counting them in ``dropped`` — the mode the invariant oracle uses so
    a violation report carries the packets leading up to the failure.
    """

    def __init__(self, tail: Optional[int] = None):
        self._ring: deque[tuple] = deque(maxlen=tail)
        self.dropped = 0

    @property
    def records(self) -> list[TraceRecord]:
        """The captured records, oldest first."""
        return list(map(_thaw, self._ring))

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, path: "Path") -> "PacketTrace":
        """A trace of every segment crossing ``path``."""
        trace = cls()
        path.add_tap(trace._tap)
        return trace

    @classmethod
    def attach_all(cls, network: "Network") -> "PacketTrace":
        """A trace of every segment crossing the network's paths."""
        trace = cls()
        for path in network.paths:
            path.add_tap(trace._tap)
        return trace

    def _tap(self, path: "Path", segment: Segment, direction: int) -> None:
        ring = self._ring
        if len(ring) == ring.maxlen:  # full: the deque evicts the oldest itself
            self.dropped += 1
        ring.append((
            path.sim.now, path.name, direction,
            segment.src, segment.dst, segment.seq, segment.ack, segment.flags, segment.window,
            tuple(segment.options), segment._payload, segment.created_at,
        ))  # the fields _thaw unpacks, in its order

    # ------------------------------------------------------------------
    def filter(
        self,
        syn: Optional[bool] = None,
        fin: Optional[bool] = None,
        rst: Optional[bool] = None,
        payload: Optional[bool] = None,
        option_type: Optional[type] = None,
        src_port: Optional[int] = None,
        direction: Optional[int] = None,
    ) -> list[TraceRecord]:
        """Records matching every given criterion."""
        out: list[TraceRecord] = []
        for record in self.records:
            seg = record.segment
            if syn is not None and seg.syn != syn:
                continue
            if fin is not None and seg.fin != fin:
                continue
            if rst is not None and seg.rst != rst:
                continue
            if payload is not None and bool(seg.payload) != payload:
                continue
            if option_type is not None and seg.find_option(option_type) is None:
                continue
            if src_port is not None and seg.src.port != src_port:
                continue
            if direction is not None and record.direction != direction:
                continue
            out.append(record)
        return out

    def format(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """The given records (all of them by default) one per line; an
        empty selection formats as an empty string."""
        if records is None:
            records = self.records
        return "\n".join(record.format() for record in records)

    def __len__(self) -> int:
        return len(self._ring)
