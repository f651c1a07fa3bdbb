"""Duplex paths with in-path middlebox element chains.

A :class:`Path` joins two host interfaces through one link per direction
and an ordered chain of :class:`PathElement` middleboxes shared by both
directions (so a NAT translates consistently).  Elements may transform,
drop, multiply or redirect segments — everything the paper's Click models
do.

Pipeline order:

* forward (A→B): elements ``0..n-1`` in order, then the A→B link.
* reverse (B→A): elements ``n-1..0``, then the B→A link.

An element that *injects* a segment in the opposite direction (a
pro-active-ACK proxy answering the sender) re-enters the pipeline at its
own position travelling the other way, which is exactly where a real
middlebox sits.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.link import Link
from repro.net.packet import Segment
from repro.sim import Simulator

FORWARD = 1
REVERSE = -1


class PathElement:
    """Base middlebox element: default is a transparent wire."""

    # Subclasses that rewrite IP addresses (NATs) set this so the
    # topology builder installs wildcard routes for the rewritten side.
    rewrites_addresses = False

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.path: Optional["Path"] = None
        self.index: int = -1

    # ------------------------------------------------------------------
    def attach(self, path: "Path", index: int) -> None:
        """Called by the Path when installed; gives access to the clock."""
        self.path = path
        self.index = index

    @property
    def sim(self) -> Simulator:
        assert self.path is not None, "element not attached to a path"
        return self.path.sim

    def process(self, segment: Segment, direction: int) -> list[tuple[Segment, int]]:
        """Transform one segment.

        Returns a list of (segment, direction) pairs to continue through
        the pipeline; an empty list drops the packet.  The default is a
        pass-through.
        """
        return [(segment, direction)]

    def inject(self, segment: Segment, direction: int) -> None:
        """Emit a segment from this element's position mid-path (used by
        elements with timers, e.g. a coalescer flushing its buffer)."""
        assert self.path is not None
        if direction == FORWARD:
            self.path._run_pipeline(segment, direction, self.index + 1)
        else:
            self.path._run_pipeline(segment, direction, self.index - 1)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.name}>"


class Path:
    """A duplex point-to-point path between two deliver callbacks."""

    def __init__(
        self,
        sim: Simulator,
        link_fwd: Link,
        link_rev: Link,
        elements: Optional[list[PathElement]] = None,
        name: str = "path",
    ):
        self.sim = sim
        self.name = name
        self.link_fwd = link_fwd
        self.link_rev = link_rev
        self.elements: list[PathElement] = elements or []
        for index, element in enumerate(self.elements):
            element.attach(self, index)
        self.deliver_fwd: Callable[[Segment], None] = lambda seg: None
        self.deliver_rev: Callable[[Segment], None] = lambda seg: None
        link_fwd.deliver = self._delivered_fwd
        link_rev.deliver = self._delivered_rev
        # Optional wire taps for tracing; called as tap(path, segment, direction).
        self.taps: list[Callable[["Path", Segment, int], None]] = []

    # ------------------------------------------------------------------
    def send(self, segment: Segment, direction: int) -> None:
        """Entry point used by hosts."""
        for tap in self.taps:
            tap(self, segment, direction)
        start = 0 if direction == FORWARD else len(self.elements) - 1
        self._run_pipeline(segment, direction, start)

    def _run_pipeline(self, segment: Segment, direction: int, index: int) -> None:
        while 0 <= index < len(self.elements):
            outputs = self.elements[index].process(segment, direction)
            if not outputs:
                return
            if len(outputs) > 1:
                # Fan-out (e.g. a TSO splitter): recurse for the extras.
                for extra_segment, extra_direction in outputs[1:]:
                    next_index = index + extra_direction
                    self._run_pipeline(extra_segment, extra_direction, next_index)
            segment, new_direction = outputs[0]
            if new_direction != direction:
                direction = new_direction
                index += direction
                continue
            index += direction
        if direction == FORWARD:
            self.link_fwd.send(segment)
        else:
            self.link_rev.send(segment)

    def _delivered_fwd(self, segment: Segment) -> None:
        self.deliver_fwd(segment)

    def _delivered_rev(self, segment: Segment) -> None:
        self.deliver_rev(segment)

    def add_tap(self, tap: Callable[["Path", Segment, int], None]) -> None:
        self.taps.append(tap)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Path {self.name} elements={self.elements}>"
